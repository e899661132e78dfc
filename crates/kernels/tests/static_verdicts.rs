//! Registry-wide static-verification gate plus differential validation
//! of the symbolic checker against the dynamic layer.
//!
//! Three obligations, mirroring `docs/STATIC_ANALYSIS.md`:
//!
//! 1. every shipped registry kernel is `Proved` under both execution
//!    models, on Table 1 graphs and across the 24-point config lattice —
//!    a kernel without a summary surfaces as `Unknown` and fails here
//!    (coverage gate);
//! 2. every seeded-bug kernel is statically `Refuted` with the expected
//!    witness *and* dynamically caught by the sanitizer / watchdog —
//!    disagreement between the layers is a soundness hole;
//! 3. the static per-warp instruction bound dominates the watermark the
//!    simulator actually observes, launch for launch.

use std::sync::Arc;

use gnnone_kernels::analysis::seeded;
use gnnone_kernels::analysis::{self, check_summary, AccessSummary, ExecModel, Verdict};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::registry;
use gnnone_sim::{DeviceBuffer, Gpu, GpuSpec};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::formats::Coo;
use gnnone_sparse::gen::{self, adversarial};

fn table1_graph(id: &str) -> Arc<GraphData> {
    let ds = Dataset::by_id(id, Scale::Tiny).expect("Table 1 id");
    Arc::new(GraphData::new(ds.coo))
}

#[test]
fn registry_is_proved_on_table1_graphs_under_both_models() {
    for id in ["G0", "G1"] {
        let g = table1_graph(id);
        for f in [6, 16] {
            for model in [ExecModel::Sim, ExecModel::Native] {
                let verdicts = analysis::verify_graph(&g, f, model);
                assert_eq!(verdicts.len(), 21, "{id} f={f}: registry size drifted");
                for v in &verdicts {
                    assert!(
                        v.verdict.is_proved(),
                        "{id} f={f} {model:?} {} ({}): {:?}",
                        v.kernel,
                        v.op,
                        v.verdict
                    );
                }
            }
        }
    }
}

/// A verify report names each family once: every registry kernel's
/// summary carries the same family label as the kernel itself.
#[test]
fn summary_family_labels_match_the_kernel_family() {
    let g = table1_graph("G0");
    for k in registry::all(&g) {
        for model in [ExecModel::Sim, ExecModel::Native] {
            let s = k.access_summary(8, model).expect("summary");
            assert_eq!(s.op, k.op().as_str(), "{} {model:?}", k.name());
        }
    }
}

#[test]
fn config_lattice_is_fully_proved() {
    let g = table1_graph("G0");
    let verdicts = analysis::verify_lattice(&g, 8);
    // 24 lattice points × 2 models × 2 tunable kernels.
    assert_eq!(verdicts.len(), 96);
    for (cfg, v) in &verdicts {
        assert!(
            v.verdict.is_proved(),
            "{} ({}) {:?} at {cfg:?}: {:?}",
            v.kernel,
            v.op,
            v.model,
            v.verdict
        );
    }
}

#[test]
fn seeded_bugs_are_statically_refuted_with_the_expected_witness() {
    let bugs = seeded::corpus();
    assert_eq!(bugs.len(), 15);
    for bug in &bugs {
        match check_summary(&bug.summary()) {
            Verdict::Refuted(w) => assert_eq!(
                w.check, bug.expect_check,
                "{}: refuted by the wrong obligation ({})",
                bug.name, w.detail
            ),
            other => panic!("{}: expected Refuted, got {other:?}", bug.name),
        }
    }
}

#[test]
fn seeded_bugs_are_dynamically_caught() {
    for bug in seeded::corpus() {
        assert!(
            bug.dynamically_caught(),
            "{}: the dynamic layer missed a bug the static pass refutes",
            bug.name
        );
    }
}

#[test]
fn adversarial_corpus_never_yields_unknown() {
    let mut resolved_cases = 0;
    for case in adversarial::corpus(0xC0FFEE) {
        let Ok(resolved) = case.resolve() else {
            continue; // malformed cases are the fuzz harness's business
        };
        assert!(case.expect_valid, "{}: malformed case resolved", case.name);
        resolved_cases += 1;
        let g = Arc::new(GraphData::new(resolved.coo));
        for model in [ExecModel::Sim, ExecModel::Native] {
            for v in analysis::verify_graph(&g, resolved.f, model) {
                assert!(
                    v.verdict.is_proved(),
                    "{} {model:?} {} ({}): {:?}",
                    case.name,
                    v.kernel,
                    v.op,
                    v.verdict
                );
            }
        }
    }
    assert!(resolved_cases >= 5, "corpus lost its valid-extreme cases");
}

/// Max over launches and warps of the summary's per-warp instruction
/// bound, instantiated at the summary's own base environment.
fn static_ops_bound(s: &AccessSummary) -> u64 {
    let mut bound = 0;
    for launch in &s.launches {
        let mut env = s.base_env;
        env.warp_id = 0;
        env.grid_warps = launch.grid_warps.eval(&env);
        for w in 0..env.grid_warps {
            env.warp_id = w;
            bound = bound.max(launch.ops_per_warp.eval(&env));
        }
    }
    bound
}

fn salted(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 37 + salt * 101) % 29) as f32 - 14.0) * 0.11)
        .collect()
}

#[test]
fn static_ops_bound_dominates_the_observed_watermark() {
    let el = gen::erdos_renyi(64, 256, 7).symmetrize();
    let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
    let f = 8;
    let nv = g.num_vertices();
    let nnz = g.nnz();
    let gpu = Gpu::new(GpuSpec::tiny());
    let dx = DeviceBuffer::from_slice(&salted(nv * f, 1));
    let dz = DeviceBuffer::from_slice(&salted(nv * f, 2));
    let dw = DeviceBuffer::from_slice(&salted(nnz, 3));
    let del = DeviceBuffer::from_slice(&salted(nv, 4));
    let der = DeviceBuffer::from_slice(&salted(nv, 5));
    let dy = DeviceBuffer::<f32>::zeros(nv * f);
    let dwe = DeviceBuffer::<f32>::zeros(nnz);
    let dyv = DeviceBuffer::<f32>::zeros(nv);
    let dalpha = DeviceBuffer::<f32>::zeros(nnz);

    let mut checked = 0;
    let mut dominates = |name: &str, summary: Option<AccessSummary>| {
        let s = summary.unwrap_or_else(|| panic!("{name}: no sim summary"));
        let bound = static_ops_bound(&s);
        let observed = gpu.last_max_warp_ops();
        assert!(
            bound >= observed,
            "{name}: static bound {bound} < observed max warp ops {observed}"
        );
        checked += 1;
    };

    for k in registry::sddmm_kernels(&g) {
        k.run(&gpu, &dx, &dz, f, &dwe).unwrap();
        dominates(k.name(), k.access_summary(f, ExecModel::Sim));
    }
    for k in registry::spmm_kernels(&g)
        .into_iter()
        .chain(registry::spmm_discussion_kernels(&g))
        .chain(registry::spmm_format_kernels(&g))
    {
        dy.fill_default();
        k.run(&gpu, &dw, &dx, f, &dy).unwrap();
        dominates(k.name(), k.access_summary(f, ExecModel::Sim));
    }
    for k in registry::spmv_class_kernels(&g) {
        dyv.fill_default();
        k.run(&gpu, &dw, &del, &dyv).unwrap();
        dominates(k.name(), k.access_summary(ExecModel::Sim));
    }
    for k in registry::edge_apply_kernels(&g) {
        k.run(&gpu, &del, &der, &dwe).unwrap();
        dominates(k.name(), k.access_summary(ExecModel::Sim));
    }
    for k in registry::fused_kernels(&g) {
        dy.fill_default();
        k.run(&gpu, &dz, &del, &der, f, &dy, Some(&dalpha)).unwrap();
        dominates(k.name(), k.access_summary(f, ExecModel::Sim));
    }
    assert_eq!(checked, 21, "registry size drifted");
}
