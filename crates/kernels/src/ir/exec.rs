//! Plan executor: runs a lowered [`Plan`] on either backend.
//!
//! Launch steps run through the one launch path
//! ([`Kernel::launch_host`] on the [`Backend`]'s device) onto the registry's
//! pipeline kernels (the IR-derived [`IrFusedGat`]/[`IrUAddV`] plus `GnnOneSddmm`
//! and `GnnOneSpmm` under default config); host fallback steps run on
//! the CPU. Every value is a host vector: native launches read and write
//! them in place, and the simulator uploads and downloads them around
//! each launch — the executor is a correctness and timing harness for
//! `gnnone-prof fuse` and the fusion tests, not the training hot path
//! (training tapes embed plans directly, see `gnnone-gnn`).

use std::borrow::Cow;
use std::sync::Arc;

use gnnone_sim::engine::LaunchError;

use super::lower::{Plan, Step};
use super::{IrGraph, OpKind, ValueId};
use crate::backend::{Backend, ExecReport};
use crate::gnnone::config::GnnOneConfig;
use crate::gnnone::{GnnOneSddmm, GnnOneSpmm};
use crate::graph::GraphData;
use crate::ir::kernels::{IrFusedGat, IrUAddV};
use crate::traits::Kernel;

/// The values and launch reports produced by [`execute`].
pub struct ExecResult {
    /// Computed value per IR node (inputs echoed back; `None` only for
    /// values folded into a fused launch).
    pub values: Vec<Option<Vec<f32>>>,
    /// One report per pipeline launch, in step order.
    pub reports: Vec<ExecReport>,
    /// Total wall-clock milliseconds spent in host fallback steps.
    pub host_ms: f64,
}

impl ExecResult {
    /// Total plan cost: launch-timed kernel milliseconds plus host
    /// fallback milliseconds — the same accounting the native bench
    /// cells use (staging copies excluded).
    pub fn plan_ms(&self) -> f64 {
        self.reports.iter().map(|r| r.time_ms).sum::<f64>() + self.host_ms
    }
}

impl ExecResult {
    /// The computed value of `id`; panics if it was folded away.
    pub fn value(&self, id: ValueId) -> &[f32] {
        self.values[id.0]
            .as_deref()
            .unwrap_or_else(|| panic!("value v{} was folded into a fused launch", id.0))
    }
}

/// Host softmax over each CSR row's incident edges — shared by the
/// executor and the training tape (both must match the fused kernel's
/// reference semantics bit-for-bit given the same logits).
pub fn host_edge_softmax(graph: &GraphData, logits: &[f32], alpha: &mut [f32]) {
    let csr = &graph.csr;
    for r in 0..csr.num_rows() {
        let range = csr.row_range(r);
        if range.is_empty() {
            continue;
        }
        let max = range
            .clone()
            .map(|e| logits[e])
            .fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for e in range.clone() {
            let v = (logits[e] - max).exp();
            alpha[e] = v;
            sum += v;
        }
        for e in range {
            alpha[e] /= sum;
        }
    }
}

/// A launch step's kernel, input operands, feature length and output
/// values (the signature's outputs, in order).
type StagedLaunch<'a> = (Kernel, Vec<Cow<'a, [f32]>>, usize, Vec<ValueId>);

/// Stages a launch step over the host values; `None` for host fallback
/// steps.
fn staged_launch<'a>(
    step: &Step,
    graph: &Arc<GraphData>,
    values: &'a [Option<Vec<f32>>],
    f: usize,
    width: impl Fn(ValueId) -> usize,
) -> Option<StagedLaunch<'a>> {
    let host = |id: ValueId| Cow::Borrowed(values[id.0].as_deref().unwrap());
    let g = || Arc::clone(graph);
    let cfg = GnnOneConfig::default();
    Some(match *step {
        Step::FusedGat {
            slope,
            z,
            el,
            er,
            y,
            alpha,
        } => (
            Kernel::Fused(Box::new(IrFusedGat::new(g(), slope))),
            vec![host(z), host(el), host(er)],
            f,
            [Some(y), alpha].into_iter().flatten().collect(),
        ),
        Step::Sddmm { x, y, out } => (
            Kernel::Sddmm(Box::new(GnnOneSddmm::new(g(), cfg))),
            vec![host(x), host(y)],
            width(x),
            vec![out],
        ),
        Step::Spmm { w, x, out } => (
            Kernel::Spmm(Box::new(GnnOneSpmm::new(g(), cfg))),
            vec![host(w), host(x)],
            width(x),
            vec![out],
        ),
        Step::SpmmOnes { x, out } => (
            Kernel::Spmm(Box::new(GnnOneSpmm::new(g(), cfg))),
            vec![Cow::Owned(vec![1.0f32; graph.nnz()]), host(x)],
            width(x),
            vec![out],
        ),
        Step::UAddV { el, er, out } => (
            Kernel::EdgeApply(Box::new(IrUAddV::new(g()))),
            vec![host(el), host(er)],
            1,
            vec![out],
        ),
        _ => return None,
    })
}

/// Executes `plan` (lowered from `ir`) over `graph` on `backend`.
///
/// `inputs` binds every IR input by id; widths follow the node's
/// [`Dim`](super::Dim) at feature length `f`. Binding errors (missing input, wrong
/// length) panic — the caller owns the graph and its operands. Launch
/// failures surface as [`LaunchError`].
pub fn execute(
    backend: &Backend,
    graph: &Arc<GraphData>,
    ir: &IrGraph,
    plan: &Plan,
    f: usize,
    inputs: &[(ValueId, &[f32])],
) -> Result<ExecResult, LaunchError> {
    let n = graph.num_vertices();
    let nnz = graph.nnz();
    let len_of = |id: ValueId| {
        let node = ir.node(id);
        node.space.rows(graph) * node.dim.len(f)
    };
    let width = |id: ValueId| ir.node(id).dim.len(f);

    let mut values: Vec<Option<Vec<f32>>> = vec![None; ir.nodes().len()];
    for &(id, data) in inputs {
        assert_eq!(
            ir.node(id).op,
            OpKind::Input,
            "v{} is not an input node",
            id.0
        );
        assert_eq!(
            data.len(),
            len_of(id),
            "input v{} must have {} elements, got {}",
            id.0,
            len_of(id),
            data.len()
        );
        values[id.0] = Some(data.to_vec());
    }
    for (i, node) in ir.nodes().iter().enumerate() {
        if node.op == OpKind::Input {
            assert!(
                values[i].is_some(),
                "input `{}` (v{i}) is unbound",
                node.label
            );
        }
    }

    let mut reports = Vec::new();
    let mut host_ms = 0.0f64;
    for step in &plan.steps {
        if let Some((kernel, inputs, k, out_ids)) = staged_launch(step, graph, &values, f, width) {
            let mut outputs: Vec<Vec<f32>> = kernel
                .output_lens(k)
                .take(out_ids.len())
                .map(|len| vec![0.0; len])
                .collect();
            reports.push(
                kernel.launch_host(
                    backend.device(),
                    &inputs.iter().map(|c| &**c).collect::<Vec<_>>(),
                    k,
                    &mut outputs
                        .iter_mut()
                        .map(Vec::as_mut_slice)
                        .collect::<Vec<_>>(),
                )?,
            );
            for (id, out) in out_ids.iter().zip(outputs) {
                values[id.0] = Some(out);
            }
            continue;
        }
        let host_t = std::time::Instant::now();
        match *step {
            Step::HostLeakyRelu { slope, x, out } => {
                let xs = values[x.0].as_deref().unwrap();
                let v: Vec<f32> = xs
                    .iter()
                    .map(|&v| if v > 0.0 { v } else { v * slope })
                    .collect();
                values[out.0] = Some(v);
            }
            Step::HostEdgeSoftmax { x, out } => {
                let logits = values[x.0].clone().unwrap();
                let mut alpha = vec![0.0f32; nnz];
                host_edge_softmax(graph, &logits, &mut alpha);
                values[out.0] = Some(alpha);
            }
            Step::HostCopyU { x, out } | Step::HostCopyV { x, out } => {
                let dst_rows = matches!(step, Step::HostCopyV { .. });
                let k = width(x);
                let xs = values[x.0].as_deref().unwrap();
                let idx = if dst_rows {
                    graph.coo.rows()
                } else {
                    graph.coo.cols()
                };
                let mut v = vec![0.0f32; nnz * k];
                for e in 0..nnz {
                    let s = idx[e] as usize * k;
                    v[e * k..(e + 1) * k].copy_from_slice(&xs[s..s + k]);
                }
                values[out.0] = Some(v);
            }
            Step::HostUMulE { x, e, out } => {
                let k = width(x);
                let xs = values[x.0].as_deref().unwrap();
                let ws = values[e.0].as_deref().unwrap();
                let cols = graph.coo.cols();
                let mut v = vec![0.0f32; nnz * k];
                for ei in 0..nnz {
                    let s = cols[ei] as usize * k;
                    for l in 0..k {
                        v[ei * k + l] = xs[s + l] * ws[ei];
                    }
                }
                values[out.0] = Some(v);
            }
            Step::HostAggregate { max, e, out } => {
                let k = width(e);
                let ms = values[e.0].as_deref().unwrap();
                let rows_idx = graph.coo.rows();
                let init = if max { f32::NEG_INFINITY } else { 0.0 };
                let mut v = vec![init; n * k];
                for ei in 0..nnz {
                    let d = rows_idx[ei] as usize * k;
                    for l in 0..k {
                        let cell = &mut v[d + l];
                        if max {
                            *cell = cell.max(ms[ei * k + l]);
                        } else {
                            *cell += ms[ei * k + l];
                        }
                    }
                }
                if max {
                    // Vertices with no incident edges aggregate to zero.
                    for cell in v.iter_mut() {
                        if *cell == f32::NEG_INFINITY {
                            *cell = 0.0;
                        }
                    }
                }
                values[out.0] = Some(v);
            }
            _ => unreachable!("launch steps are staged above"),
        }
        host_ms += host_t.elapsed().as_secs_f64() * 1e3;
    }
    Ok(ExecResult {
        values,
        reports,
        host_ms,
    })
}
