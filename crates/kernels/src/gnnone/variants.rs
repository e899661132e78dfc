//! SDDMM *variants* (paper §4.3): "GAT, GaAN, and many other GNNs also
//! invoke SDDMM variants which are naturally suited for edge-parallel
//! computation as the output tensor is at edge-level."
//!
//! [`GnnOneUAddV`] is the variant GAT's attention logits need:
//! `w[e] = el[row(e)] + er[col(e)]` — the same unified two-stage shape as
//! the dot-product SDDMM (Stage-1 NZE caching, edge-parallel balance),
//! with scalar gathers instead of feature-vector loads. It is the
//! [`CooNzes`] × [`ScalarGather`] instantiation of the shared
//! [`TwoStagePipeline`] under the scalar geometry (32 single-lane groups)
//! and Round-robin assignment, which together make each Stage-2 step a
//! full 32-NZE stride.
//!
//! [`GnnOneLoadOnly`] is the Fig. 11 load-only prototype: the SDDMM data
//! load with the compute and output dropped ([`NoReduce`]), turning the
//! paper's "data load dominates" claim into a directly measured kernel.

use std::sync::Arc;

use gnnone_sim::{engine::LaunchError, DeviceBuffer, Gpu, KernelReport};

use crate::analysis::{summaries, AccessSummary, ExecModel};
use crate::geometry::GroupGeometry;
use crate::gnnone::config::{GnnOneConfig, Schedule};
use crate::gnnone::pipeline::{stage2_geometry, CooNzes, TwoStagePipeline};
use crate::gnnone::reduce::{NoReduce, ScalarGather};
use crate::graph::GraphData;
use crate::traits::{EdgeApplyKernel, Op};

/// The `u_add_v` SDDMM variant over COO.
pub struct GnnOneUAddV {
    graph: Arc<GraphData>,
}

impl GnnOneUAddV {
    /// Creates the kernel for `graph`.
    pub fn new(graph: Arc<GraphData>) -> Self {
        Self { graph }
    }

    /// Computes `w[e] = el[row(e)] + er[col(e)]` for every NZE.
    pub fn run(
        &self,
        gpu: &Gpu,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        w: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError> {
        // Round-robin over 32 single-lane groups walks the cache in
        // coalesced 32-NZE strides — the natural shape for a scalar op.
        let cfg = GnnOneConfig {
            cache_size: 128,
            schedule: Schedule::RoundRobin,
            vectorize: false,
            data_reuse: true,
        };
        let pipeline = TwoStagePipeline::new(
            CooNzes::new(
                &self.graph.d_coo_rows,
                &self.graph.d_coo_cols,
                self.graph.nnz(),
            ),
            ScalarGather { el, er, w },
            1,
            GroupGeometry::scalar(),
            cfg,
            "GnnOne-u_add_v",
        );
        gpu.try_launch(&pipeline)
    }
}

impl EdgeApplyKernel for GnnOneUAddV {
    fn graph(&self) -> &GraphData {
        &self.graph
    }

    fn name(&self) -> &'static str {
        "GnnOne-UAddV"
    }

    fn format(&self) -> &'static str {
        "COO"
    }

    fn run(
        &self,
        gpu: &Gpu,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        w: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError> {
        GnnOneUAddV::run(self, gpu, el, er, w)
    }

    fn access_summary(&self, model: ExecModel) -> Option<AccessSummary> {
        // The same fixed config `run` launches with.
        let cfg = GnnOneConfig {
            cache_size: 128,
            schedule: Schedule::RoundRobin,
            vectorize: false,
            data_reuse: true,
        };
        Some(match model {
            ExecModel::Sim => summaries::gnnone_uaddv(self.name(), &self.graph, &cfg),
            ExecModel::Native => summaries::native_edge_out(
                self.name(),
                Op::EdgeApply.as_str(),
                &self.graph,
                &GnnOneConfig::default(),
                1,
                summaries::uaddv_reads(),
            ),
        })
    }
}

/// Load-only SDDMM prototype over COO: Stage 1 + Stage 2 fetch + both
/// feature-vector gathers, no compute, no output — the measured
/// counterpart of Fig. 11's data-load fraction.
pub struct GnnOneLoadOnly {
    graph: Arc<GraphData>,
    config: GnnOneConfig,
}

impl GnnOneLoadOnly {
    /// Creates the kernel for `graph` with `config` (the same knobs as the
    /// full SDDMM, so load-only and full kernels stay comparable).
    pub fn new(graph: Arc<GraphData>, config: GnnOneConfig) -> Self {
        config.validate();
        Self { graph, config }
    }

    /// Streams the full SDDMM data load for feature length `f` without
    /// producing output.
    pub fn run(
        &self,
        gpu: &Gpu,
        x: &DeviceBuffer<f32>,
        y: &DeviceBuffer<f32>,
        f: usize,
    ) -> Result<KernelReport, LaunchError> {
        let pipeline = TwoStagePipeline::new(
            CooNzes::new(
                &self.graph.d_coo_rows,
                &self.graph.d_coo_cols,
                self.graph.nnz(),
            ),
            NoReduce { x, y },
            f,
            stage2_geometry(&self.config, f),
            self.config,
            "GnnOne-LoadOnly",
        );
        gpu.try_launch(&pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnone_sim::GpuSpec;
    use gnnone_sparse::formats::{Coo, EdgeList};
    use gnnone_sparse::gen;

    fn check(coo: Coo) {
        let g = Arc::new(GraphData::new(coo));
        let n = g.num_vertices();
        let el: Vec<f32> = (0..n).map(|i| (i % 7) as f32 * 0.5).collect();
        let er: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 0.25).collect();
        let dw = DeviceBuffer::<f32>::zeros(g.nnz());
        let r = GnnOneUAddV::new(Arc::clone(&g))
            .run(
                &Gpu::new(GpuSpec::a100_40gb()),
                &DeviceBuffer::from_slice(&el),
                &DeviceBuffer::from_slice(&er),
                &dw,
            )
            .unwrap();
        let got = dw.to_vec();
        for e in 0..g.nnz() {
            let expect = el[g.coo.rows()[e] as usize] + er[g.coo.cols()[e] as usize];
            assert!((got[e] - expect).abs() < 1e-6, "edge {e}");
        }
        // No reduction → no shuffles, no barriers beyond Stage 1's.
        assert_eq!(r.stats.shfl_rounds, 0);
        assert_eq!(r.stats.atomics, 0);
    }

    #[test]
    fn correct_on_random_graph() {
        let el = gen::rmat(8, 1200, gen::GRAPH500_PROBS, 131).symmetrize();
        check(Coo::from_edge_list(&el));
    }

    #[test]
    fn correct_on_tiny_graph() {
        check(Coo::from_edge_list(&EdgeList::new(
            3,
            vec![(0, 1), (1, 2), (2, 0)],
        )));
    }

    #[test]
    fn balanced_across_warps() {
        let el = gen::rmat(9, 4000, gen::GRAPH500_PROBS, 132).symmetrize();
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
        let n = g.num_vertices();
        let buf = DeviceBuffer::from_slice(&vec![1.0f32; n]);
        let dw = DeviceBuffer::<f32>::zeros(g.nnz());
        let r = GnnOneUAddV::new(Arc::clone(&g))
            .run(&Gpu::new(GpuSpec::a100_40gb()), &buf, &buf, &dw)
            .unwrap();
        let mean = r.stats.total_solo_cycles / r.stats.warps.max(1);
        assert!(
            r.stats.max_warp_cycles < 3 * mean.max(1),
            "edge-parallel variant must be balanced: max {} mean {mean}",
            r.stats.max_warp_cycles
        );
    }

    #[test]
    fn load_only_is_cheaper_than_full_sddmm_and_writes_nothing() {
        use crate::gnnone::GnnOneSddmm;
        use crate::traits::SddmmKernel;
        let el = gen::rmat(8, 1500, gen::GRAPH500_PROBS, 133).symmetrize();
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
        let n = g.num_vertices();
        let f = 32;
        let x = DeviceBuffer::from_slice(&vec![1.0f32; n * f]);
        let y = DeviceBuffer::from_slice(&vec![1.0f32; n * f]);
        let dw = DeviceBuffer::<f32>::zeros(g.nnz());
        let gpu = Gpu::new(GpuSpec::tiny());
        let load_only = GnnOneLoadOnly::new(Arc::clone(&g), GnnOneConfig::default())
            .run(&gpu, &x, &y, f)
            .unwrap();
        let full = GnnOneSddmm::new(Arc::clone(&g), GnnOneConfig::default())
            .run(&gpu, &x, &y, f, &dw)
            .unwrap();
        // The load stream is the kernel: no shuffles, no stores at all.
        assert_eq!(load_only.stats.shfl_rounds, 0);
        assert_eq!(load_only.stats.write_bytes, 0);
        // Dropping compute + reduction can only shrink the kernel.
        assert!(
            load_only.cycles <= full.cycles,
            "load-only {} !<= full {}",
            load_only.cycles,
            full.cycles
        );
        // But it still performs the full data load.
        assert!(load_only.stats.loads > 0);
    }
}
