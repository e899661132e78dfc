//! Registry-wide sanitizer sweep: run every shipped kernel under the
//! `gnnone-sim` sanitizer on one graph and collect per-kernel verdicts.
//!
//! This is the simulator's `compute-sanitizer` workflow: the sweep attaches
//! a [`Sanitizer`] to the [`Gpu`], drives every kernel in
//! [`crate::registry`] — the figure registries plus the format-study,
//! edge-apply, and fused-attention registries, so every shipped kernel is
//! reachable by name — and attributes findings to kernels by the change in
//! [`Sanitizer::finding_count`] around each launch. Inputs are generated
//! deterministically from the graph shape so two sweeps over the same
//! graph audit identical executions.
//!
//! Kernels are allowed to decline a launch (a `LaunchError`, e.g. a CTA
//! shape the spec cannot host) — that is recorded as a skip, not a finding.

use std::sync::Arc;

use gnnone_sim::{DeviceBuffer, Gpu, SanitizeConfig, Sanitizer};

use crate::backend::Device;
use crate::graph::GraphData;
use crate::registry::{self, SweepInputs};

/// Outcome of sweeping one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSweep {
    /// Kernel name (figure label, or the standalone kernel's name).
    pub name: String,
    /// Operation family ([`crate::traits::Op::as_str`]).
    pub op: &'static str,
    /// Storage format the kernel consumes.
    pub format: &'static str,
    /// `None` when the kernel launched; `Some(reason)` when it declined.
    pub skipped: Option<String>,
    /// Sanitizer findings attributed to this kernel's launches.
    pub findings: u64,
}

impl KernelSweep {
    /// `true` when the kernel launched and produced no findings.
    pub fn clean(&self) -> bool {
        self.skipped.is_none() && self.findings == 0
    }
}

/// Total findings across a sweep.
pub fn total_findings(sweeps: &[KernelSweep]) -> u64 {
    sweeps.iter().map(|s| s.findings).sum()
}

/// Deterministic pseudo-feature vector: bounded, non-constant, seedless.
fn features(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 37 + salt * 101) % 29) as f32 - 14.0) * 0.11)
        .collect()
}

/// Sweeps every registered kernel over `graph` at feature length `f`,
/// using the sanitizer already attached to `gpu` (attaching a fresh one
/// when absent). Returns one [`KernelSweep`] per kernel driven.
pub fn sweep_graph(gpu: &Gpu, graph: &Arc<GraphData>, f: usize) -> Vec<KernelSweep> {
    let san: Arc<Sanitizer> = match gpu.sanitizer() {
        Some(s) => Arc::clone(s),
        None => gpu.enable_sanitizer(SanitizeConfig::on()),
    };
    let nv = graph.num_vertices();
    let inputs = SweepInputs {
        x: features(nv * f, 1),
        z: features(nv * f, 2),
        w: features(graph.nnz(), 3),
        el: features(nv, 4),
        er: features(nv, 5),
    }
    .upload();
    registry::all(graph)
        .into_iter()
        .map(|k| {
            let outputs: Vec<DeviceBuffer<f32>> =
                k.output_lens(f).map(DeviceBuffer::zeros).collect();
            let before = san.finding_count();
            let result = k.launch(
                Device::Sim(gpu),
                &inputs.for_op(k.op()),
                f,
                &outputs.iter().collect::<Vec<_>>(),
            );
            KernelSweep {
                name: k.name().to_string(),
                op: k.op().as_str(),
                format: k.format(),
                skipped: result.err().map(|e| e.to_string()),
                findings: san.finding_count() - before,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Op;
    use gnnone_sim::GpuSpec;
    use gnnone_sparse::formats::Coo;
    use gnnone_sparse::gen;

    #[test]
    fn sweep_covers_every_family_and_is_deterministic() {
        let el = gen::erdos_renyi(64, 256, 7).symmetrize();
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&el)));
        let gpu = Gpu::new(GpuSpec::tiny());
        let a = sweep_graph(&gpu, &g, 8);
        for op in [Op::Sddmm, Op::Spmm, Op::Spmv, Op::EdgeApply, Op::Fused] {
            assert!(
                a.iter().any(|s| s.op == op.as_str()),
                "missing family {op:?}"
            );
        }
        assert_eq!(a.len(), 21, "only {} kernels swept", a.len());
        // A second sweep on a fresh GPU/sanitizer sees identical verdicts.
        let gpu2 = Gpu::new(GpuSpec::tiny());
        let b = sweep_graph(&gpu2, &g, 8);
        assert_eq!(a, b);
    }
}
