//! Constructs every kernel implementation for a graph — the entry point the
//! figure-reproduction harness iterates over.

use std::sync::Arc;

use gnnone_sim::{DeviceBuffer, GnnOneError};

use crate::baselines::{
    CusparseSddmm, CusparseSpmm, DaltonSpmv, DgSparseSddmm, DglSddmm, FeatGraphSddmm,
    FeatGraphSpmm, GeSpmm, GnnAdvisorSpmm, HuangSpmm, MergeSpmv, RowBinningSpmm, SputnikSddmm,
    SputnikSpmm, YangSpmm,
};
use crate::gnnone::{GnnOneConfig, GnnOneCsrSpmm, GnnOneSddmm, GnnOneSpmm, GnnOneSpmv};
use crate::graph::GraphData;
use crate::ir::{IrFusedGat, IrUAddV};
use crate::traits::{
    EdgeApplyKernel, FusedAttentionKernel, Kernel, Op, SddmmKernel, SpmmKernel, SpmvKernel,
};

/// All SDDMM systems of Fig. 3, GNNOne first.
pub fn sddmm_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn SddmmKernel>> {
    vec![
        Box::new(GnnOneSddmm::new(Arc::clone(graph), GnnOneConfig::default())),
        Box::new(DgSparseSddmm::new(Arc::clone(graph))),
        Box::new(CusparseSddmm::new(Arc::clone(graph))),
        Box::new(SputnikSddmm::new(Arc::clone(graph))),
        Box::new(FeatGraphSddmm::new(Arc::clone(graph))),
        Box::new(DglSddmm::new(Arc::clone(graph))),
    ]
}

/// All SpMM systems of Fig. 4, GNNOne first.
pub fn spmm_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(GnnOneSpmm::new(Arc::clone(graph), GnnOneConfig::default())),
        Box::new(GeSpmm::new(Arc::clone(graph))),
        Box::new(CusparseSpmm::new(Arc::clone(graph))),
        Box::new(HuangSpmm::new(Arc::clone(graph))),
        Box::new(FeatGraphSpmm::new(Arc::clone(graph))),
        Box::new(GnnAdvisorSpmm::new(Arc::clone(graph))),
    ]
}

/// Extra SpMM systems discussed but not plotted in Fig. 4: Yang et al.'s
/// nonzero-split (§3.2/§4.4), Sputnik's row-swizzled SpMM (§6) and the
/// row-binning lineage (§6).
pub fn spmm_discussion_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(YangSpmm::new(Arc::clone(graph))),
        Box::new(SputnikSpmm::new(Arc::clone(graph))),
        Box::new(RowBinningSpmm::new(Arc::clone(graph))),
    ]
}

/// All three SpMV designs of the §4.4 trade-off discussion: GNNOne's COO
/// nonzero-split plus the two prior classes it generalizes.
pub fn spmv_class_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn SpmvKernel>> {
    vec![
        Box::new(GnnOneSpmv::new(Arc::clone(graph))),
        Box::new(MergeSpmv::new(Arc::clone(graph))),
        Box::new(DaltonSpmv::new(Arc::clone(graph))),
    ]
}

/// Both SpMV systems of Fig. 12, GNNOne first.
pub fn spmv_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn SpmvKernel>> {
    vec![
        Box::new(GnnOneSpmv::new(Arc::clone(graph))),
        Box::new(MergeSpmv::new(Arc::clone(graph))),
    ]
}

/// SpMM kernels of the §5.4.5 format study: the GNNOne structure re-hosted
/// on formats other than COO.
pub fn spmm_format_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn SpmmKernel>> {
    vec![Box::new(GnnOneCsrSpmm::new(Arc::clone(graph)))]
}

/// Edge-apply SDDMM variants (§4.3), e.g. GAT's `u_add_v` logits.
///
/// The entry is the IR-lowered [`IrUAddV`] (same name, format and launch
/// as the hand-built `GnnOneUAddV`), so every sanitizer/chaos/verify/bench
/// sweep over this registry exercises an IR-lowered launch.
pub fn edge_apply_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn EdgeApplyKernel>> {
    vec![Box::new(IrUAddV::new(Arc::clone(graph)))]
}

/// Fused-attention kernels (§5.3.2's future-work direction).
///
/// The entry is the IR-lowered [`IrFusedGat`] — the `u_add_v → leaky_relu
/// → edge_softmax → aggregate` chain pattern-matched into the single
/// `RowSoftmaxGat` launch — byte-identical to the hand-built
/// `FusedGatAttention` (pinned by `tests/fusion_ir.rs`).
pub fn fused_kernels(graph: &Arc<GraphData>) -> Vec<Box<dyn FusedAttentionKernel>> {
    vec![Box::new(IrFusedGat::new(Arc::clone(graph), 0.2))]
}

/// Fig. 8's SDDMM ablation ladder as `(column label, kernel)` pairs, full
/// design first. All three kernels keep the `"GnnOne"` system name — the
/// ladder is one system under different config toggles, and the metrics
/// registry aggregates their launches under that one name.
pub fn sddmm_ablation_kernels(graph: &Arc<GraphData>) -> Vec<(&'static str, GnnOneSddmm)> {
    vec![
        (
            "+Float4",
            GnnOneSddmm::new(Arc::clone(graph), GnnOneConfig::default()),
        ),
        (
            "+Data-reuse",
            GnnOneSddmm::new(Arc::clone(graph), GnnOneConfig::ablation_data_reuse()),
        ),
        (
            "Baseline",
            GnnOneSddmm::new(Arc::clone(graph), GnnOneConfig::ablation_baseline()),
        ),
    ]
}

/// Every registry kernel — all 21, in the row order of
/// `BENCH_NATIVE.json`: the Fig. 3 SDDMMs, the Fig. 4 SpMMs, the
/// discussion and format-study SpMMs, the SpMV classes, edge-apply, fused.
pub fn all(graph: &Arc<GraphData>) -> Vec<Kernel> {
    let mut kernels: Vec<Kernel> = sddmm_kernels(graph)
        .into_iter()
        .map(Kernel::Sddmm)
        .collect();
    kernels.extend(
        spmm_kernels(graph)
            .into_iter()
            .chain(spmm_discussion_kernels(graph))
            .chain(spmm_format_kernels(graph))
            .map(Kernel::Spmm),
    );
    kernels.extend(spmv_class_kernels(graph).into_iter().map(Kernel::Spmv));
    kernels.extend(edge_apply_kernels(graph).into_iter().map(Kernel::EdgeApply));
    kernels.extend(fused_kernels(graph).into_iter().map(Kernel::Fused));
    kernels
}

/// Looks up one registry kernel by family and name (case-insensitive).
/// Names are unique within a family; `"GnnOne"`, for one, names the
/// SDDMM, SpMM and SpMV kernels.
pub fn by_name(graph: &Arc<GraphData>, op: Op, name: &str) -> Option<Kernel> {
    all(graph)
        .into_iter()
        .find(|k| k.op() == op && k.is_named(name))
}

/// Checks a `--kernels` filter: every name must be some registry
/// kernel's (matched as [`by_name`] matches), so a typo fails fast
/// instead of passing as an empty sweep.
pub fn check_filter(graph: &Arc<GraphData>, names: &[String]) -> Result<(), GnnOneError> {
    let kernels = all(graph);
    match names
        .iter()
        .find(|name| !kernels.iter().any(|k| k.is_named(name)))
    {
        Some(name) => Err(GnnOneError::Config {
            detail: format!("unknown kernel name in --kernels: {name}"),
        }),
        None => Ok(()),
    }
}

/// One value per input role of the registry-wide sweeps (sanitize, fuzz,
/// chaos, shard), wired to each family the same way in all of them.
#[derive(Debug)]
pub struct SweepInputs<T> {
    /// Vertex features (`|V| × f`): SDDMM's `x`, SpMM's `x`.
    pub x: T,
    /// Vertex features (`|V| × f`): SDDMM's `y`, fused `z`.
    pub z: T,
    /// Edge values (`|E|`): SpMM and SpMV weights.
    pub w: T,
    /// Scalar vertex operand (`|V|`): SpMV's `x`, edge-apply/fused `el`.
    pub el: T,
    /// Scalar vertex operand (`|V|`): edge-apply/fused `er`.
    pub er: T,
}

impl<T> SweepInputs<T> {
    /// The inputs an `op` kernel reads, in signature order.
    pub fn for_op(&self, op: Op) -> Vec<&T> {
        match op {
            Op::Sddmm => vec![&self.x, &self.z],
            Op::Spmm => vec![&self.w, &self.x],
            Op::Spmv => vec![&self.w, &self.el],
            Op::EdgeApply => vec![&self.el, &self.er],
            Op::Fused => vec![&self.z, &self.el, &self.er],
        }
    }
}

impl SweepInputs<Vec<f32>> {
    /// Uploads every role to a device buffer.
    pub fn upload(&self) -> SweepInputs<DeviceBuffer<f32>> {
        SweepInputs {
            x: DeviceBuffer::from_slice(&self.x),
            z: DeviceBuffer::from_slice(&self.z),
            w: DeviceBuffer::from_slice(&self.w),
            el: DeviceBuffer::from_slice(&self.el),
            er: DeviceBuffer::from_slice(&self.er),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnone_sparse::formats::Coo;
    use gnnone_sparse::gen;

    fn graph() -> Arc<GraphData> {
        let el = gen::erdos_renyi(64, 256, 1).symmetrize();
        Arc::new(GraphData::new(Coo::from_edge_list(&el)))
    }

    #[test]
    fn registries_match_paper_figures() {
        let g = graph();
        let sddmm: Vec<_> = sddmm_kernels(&g).iter().map(|k| k.name()).collect();
        assert_eq!(
            sddmm,
            vec![
                "GnnOne",
                "dgSparse",
                "CuSparse",
                "Sputnik",
                "FeatGraph",
                "DGL"
            ]
        );
        let spmm: Vec<_> = spmm_kernels(&g).iter().map(|k| k.name()).collect();
        assert_eq!(
            spmm,
            vec![
                "GnnOne",
                "GE-SpMM",
                "CuSparse",
                "Huang et al.",
                "FeatGraph",
                "GNNAdvisor"
            ]
        );
        let spmv: Vec<_> = spmv_kernels(&g).iter().map(|k| k.name()).collect();
        assert_eq!(spmv, vec!["GnnOne", "Merge-SpMV"]);
    }

    #[test]
    fn auxiliary_registries_cover_the_remaining_kernels() {
        let g = graph();
        let fmt: Vec<_> = spmm_format_kernels(&g)
            .iter()
            .map(|k| (k.name(), k.format()))
            .collect();
        assert_eq!(fmt, vec![("GnnOne-CSR", "CSR")]);
        let edge: Vec<_> = edge_apply_kernels(&g)
            .iter()
            .map(|k| (k.name(), k.format()))
            .collect();
        assert_eq!(edge, vec![("GnnOne-UAddV", "COO")]);
        let fused: Vec<_> = fused_kernels(&g)
            .iter()
            .map(|k| (k.name(), k.format()))
            .collect();
        assert_eq!(fused, vec![("FusedGAT", "CSR")]);
        // Fig. 8's columns, full design first — and one shared system name,
        // which the metrics registry's aggregation depends on.
        let ablation = sddmm_ablation_kernels(&g);
        let labels: Vec<_> = ablation.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["+Float4", "+Data-reuse", "Baseline"]);
        assert!(ablation.iter().all(|(_, k)| k.name() == "GnnOne"));
    }

    #[test]
    fn all_lists_twenty_one_unique_kernels_covering_every_figure_list() {
        let g = graph();
        let all = all(&g);
        let ids: Vec<(Op, &str)> = all.iter().map(|k| (k.op(), k.name())).collect();
        assert_eq!(ids.len(), 21);
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{id:?} listed twice");
        }
        // Families appear in `BENCH_NATIVE.json` row order.
        let mut ops: Vec<Op> = ids.iter().map(|&(op, _)| op).collect();
        ops.dedup();
        assert_eq!(
            ops,
            [Op::Sddmm, Op::Spmm, Op::Spmv, Op::EdgeApply, Op::Fused]
        );
        let figure_lists: Vec<Vec<Kernel>> = vec![
            sddmm_kernels(&g).into_iter().map(Kernel::Sddmm).collect(),
            spmm_kernels(&g).into_iter().map(Kernel::Spmm).collect(),
            spmm_discussion_kernels(&g)
                .into_iter()
                .map(Kernel::Spmm)
                .collect(),
            spmm_format_kernels(&g)
                .into_iter()
                .map(Kernel::Spmm)
                .collect(),
            spmv_kernels(&g).into_iter().map(Kernel::Spmv).collect(),
            spmv_class_kernels(&g)
                .into_iter()
                .map(Kernel::Spmv)
                .collect(),
            edge_apply_kernels(&g)
                .into_iter()
                .map(Kernel::EdgeApply)
                .collect(),
            fused_kernels(&g).into_iter().map(Kernel::Fused).collect(),
        ];
        for k in figure_lists.iter().flatten() {
            assert!(
                ids.contains(&(k.op(), k.name())),
                "{} not in all()",
                k.name()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        let g = graph();
        for k in all(&g) {
            for spelling in [k.name().to_string(), k.name().to_ascii_lowercase()] {
                let found = by_name(&g, k.op(), &spelling).expect("registry kernel");
                assert_eq!((found.op(), found.name()), (k.op(), k.name()));
            }
        }
        assert_eq!(
            by_name(&g, Op::Spmm, "yang et al.").unwrap().name(),
            "Yang et al."
        );
        assert!(by_name(&g, Op::Sddmm, "Yang et al.").is_none());
        assert!(by_name(&g, Op::Fused, "nope").is_none());
        assert!(check_filter(&g, &["fusedgat".into(), "Dalton et al.".into()]).is_ok());
        let err = check_filter(&g, &["GnnOne".into(), "NoSuchKernel".into()]).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("NoSuchKernel"), "{err}");
    }
}
