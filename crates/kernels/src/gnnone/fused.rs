//! Fused GAT attention kernel — the paper's future work (§5.3.2: "We
//! believe kernel fusion would provide even better performance to GNNOne,
//! which we left as future work").
//!
//! One launch computes, per destination row `r`:
//!
//! ```text
//! logit(r,c) = LeakyReLU(el[r] + er[c])          (u_add_v SDDMM variant)
//! α(r,·)     = softmax over r's incident edges    (edge softmax)
//! y[r]       = Σ_c α(r,c) · z[c]                  (SpMM)
//! ```
//!
//! without materializing `logit` or `α` in device memory and without two
//! extra kernel launches. The row-wise softmax forces a vertex-centric
//! shape (a warp owns a row and passes over its NZEs three times, caching
//! logits in shared memory when they fit); the unfused GNNOne pipeline
//! keeps its edge-parallel balance but pays global round trips for the
//! edge tensors. The `ext_fused_gat` bench binary quantifies the trade-off.
//!
//! In pipeline terms this is the [`CsrRows`] × [`RowSoftmaxGat`]
//! instantiation of the shared [`TwoStagePipeline`]: the row-per-warp
//! source resolves (and charges) the span load, and the reduction — the
//! one reduction that cannot ride the edge-split scheduler — owns all
//! three passes. [`RowSoftmaxGat`] lives here rather than in
//! [`reduce`](crate::gnnone::reduce) because it is inseparable from this
//! kernel's vertex-centric shape.

use std::sync::Arc;

use gnnone_sim::{
    engine::LaunchError, DeviceBuffer, Gpu, KernelReport, LaneArr, WarpCtx, WARP_SIZE,
};

use crate::analysis::{summaries, AccessSummary, ExecModel};
use crate::backend::native::{Dst, Src};
use crate::geometry::GroupGeometry;
use crate::gnnone::config::GnnOneConfig;
use crate::gnnone::pipeline::{CsrRows, Stage2Ctx, TwoStagePipeline};
use crate::gnnone::reduce::Reduction;
use crate::graph::GraphData;
use crate::traits::FusedAttentionKernel;

/// Maximum logits cached per row in shared memory; longer rows recompute
/// logits in the aggregation pass. Shared with the IR-lowered fused
/// kernel ([`crate::ir`]) so its derived summaries match this launch.
pub(crate) const LOGIT_CACHE: usize = 512;

/// The fused attention kernel.
pub struct FusedGatAttention {
    graph: Arc<GraphData>,
    /// LeakyReLU negative slope.
    pub slope: f32,
}

impl FusedGatAttention {
    /// Creates the kernel for `graph`.
    pub fn new(graph: Arc<GraphData>, slope: f32) -> Self {
        Self { graph, slope }
    }

    /// Runs the fused attention: `z` is `|V| × f` projected features,
    /// `el`/`er` are per-vertex attention terms (`|V|`), `y` receives the
    /// attended aggregation (`|V| × f`, zeroed by the caller). Optionally
    /// writes the attention coefficients to `alpha_out` (`|E|`) for
    /// backward use.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        gpu: &Gpu,
        z: &DeviceBuffer<f32>,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
        alpha_out: Option<&DeviceBuffer<f32>>,
    ) -> Result<KernelReport, LaunchError> {
        let pipeline = TwoStagePipeline::new(
            CsrRows::new(&self.graph.d_csr_offsets, self.graph.num_vertices()),
            RowSoftmaxGat {
                cols: &self.graph.d_csr_cols,
                z,
                el,
                er,
                y,
                alpha_out,
                slope: self.slope,
            },
            f,
            GroupGeometry::feature_parallel(f),
            GnnOneConfig::default(),
            "GnnOne-FusedGAT",
        );
        gpu.try_launch(&pipeline)
    }
}

impl FusedAttentionKernel for FusedGatAttention {
    fn graph(&self) -> &GraphData {
        &self.graph
    }

    fn name(&self) -> &'static str {
        "FusedGAT"
    }

    fn format(&self) -> &'static str {
        "CSR"
    }

    fn run(
        &self,
        gpu: &Gpu,
        z: &DeviceBuffer<f32>,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
        alpha_out: Option<&DeviceBuffer<f32>>,
    ) -> Result<KernelReport, LaunchError> {
        FusedGatAttention::run(self, gpu, z, el, er, f, y, alpha_out)
    }

    fn run_native(
        &self,
        eng: &crate::backend::NativeEngine,
        z: &[f32],
        el: Src<'_>,
        er: Src<'_>,
        f: usize,
        y: Dst<'_>,
        alpha_out: Option<Dst<'_>>,
    ) -> Result<crate::backend::NativeReport, LaunchError> {
        Ok(crate::backend::native::fused_gat_rows(
            eng,
            &self.graph,
            self.slope,
            z,
            el,
            er,
            f,
            y,
            alpha_out,
            self.name(),
        ))
    }

    fn access_summary(&self, f: usize, model: ExecModel) -> Option<AccessSummary> {
        Some(match model {
            ExecModel::Sim => summaries::fused_gat(self.name(), &self.graph, f, LOGIT_CACHE as u64),
            ExecModel::Native => summaries::native_fused_gat(self.name(), &self.graph, f),
        })
    }
}

/// Row-wise softmax-attention aggregation: the fused kernel's three passes
/// (logits + max, exp-sum, attended aggregation) over one warp's row span.
pub struct RowSoftmaxGat<'a> {
    /// CSR column ids (`|E|`).
    pub cols: &'a DeviceBuffer<u32>,
    /// Projected features (`|V| × f`).
    pub z: &'a DeviceBuffer<f32>,
    /// Per-vertex left attention term (`|V|`).
    pub el: &'a DeviceBuffer<f32>,
    /// Per-vertex right attention term (`|V|`).
    pub er: &'a DeviceBuffer<f32>,
    /// Output rows (`|V| × f`, zeroed by the caller).
    pub y: &'a DeviceBuffer<f32>,
    /// Optional attention-coefficient output (`|E|`).
    pub alpha_out: Option<&'a DeviceBuffer<f32>>,
    /// LeakyReLU negative slope.
    pub slope: f32,
}

impl RowSoftmaxGat<'_> {
    /// Logits of a chunk: from the shared cache or recomputed.
    fn logits_for_chunk(
        &self,
        ctx: &mut WarpCtx,
        chunk_start: usize,
        chunk: usize,
        row_start: usize,
        el_r: f32,
        cached: bool,
    ) -> LaneArr<f32> {
        if cached {
            let bits: LaneArr<u32> =
                ctx.shared_load(|l| (l < chunk).then(|| chunk_start - row_start + l));
            LaneArr::from_fn(|l| {
                if l < chunk {
                    f32::from_bits(bits.get(l))
                } else {
                    f32::NEG_INFINITY
                }
            })
        } else {
            let cols_c = ctx.load_u32(self.cols, |l| (l < chunk).then(|| chunk_start + l));
            ctx.use_loads();
            let er_c = ctx.load_f32(self.er, |l| (l < chunk).then(|| cols_c.get(l) as usize));
            ctx.compute(2);
            LaneArr::from_fn(|l| {
                if l < chunk {
                    let raw = el_r + er_c.get(l);
                    if raw > 0.0 {
                        raw
                    } else {
                        raw * self.slope
                    }
                } else {
                    f32::NEG_INFINITY
                }
            })
        }
    }
}

impl<'s> Reduction<CsrRows<'s>> for RowSoftmaxGat<'_> {
    const NEEDS_EDGE_VALUES: bool = false;

    fn regs_per_thread(&self, _cfg: &GnnOneConfig) -> usize {
        48
    }

    fn shared_words_per_warp(&self, _cfg: &GnnOneConfig) -> usize {
        // Per-warp logit cache.
        LOGIT_CACHE
    }

    fn stage2(&self, pipe: &Stage2Ctx<'_, CsrRows<'s>>, ctx: &mut WarpCtx) {
        let f = pipe.f;
        let row = pipe.warp_id;
        let (start, end) = (pipe.span.base, pipe.span.base + pipe.span.count);
        let deg = pipe.span.count;
        let el_v = ctx.load_f32(self.el, |l| (l == 0).then_some(row));
        ctx.use_loads();
        let el_r = el_v.get(0);

        // ---- Pass 1: logits, running max and exp-sum --------------------
        // Lanes stride the row's NZEs; logits cached in shared when small.
        let mut lane_max = LaneArr::<f32>::from_fn(|_| f32::NEG_INFINITY);
        let cache_logits = deg <= LOGIT_CACHE;
        for chunk_start in (start..end).step_by(WARP_SIZE) {
            let chunk = (end - chunk_start).min(WARP_SIZE);
            let cols_c = ctx.load_u32(self.cols, |l| (l < chunk).then(|| chunk_start + l));
            ctx.use_loads();
            let er_c = ctx.load_f32(self.er, |l| (l < chunk).then(|| cols_c.get(l) as usize));
            ctx.compute(2); // add + LeakyReLU
            let logit = LaneArr::from_fn(|l| {
                if l < chunk {
                    let raw = el_r + er_c.get(l);
                    if raw > 0.0 {
                        raw
                    } else {
                        raw * self.slope
                    }
                } else {
                    f32::NEG_INFINITY
                }
            });
            if cache_logits {
                ctx.shared_store(|l| {
                    (l < chunk).then(|| (chunk_start - start + l, logit.get(l).to_bits()))
                });
            }
            for l in 0..WARP_SIZE {
                lane_max.set(l, lane_max.get(l).max(logit.get(l)));
            }
        }
        // Warp max: tree reduction via shuffles.
        let mut m = lane_max;
        let mut delta = WARP_SIZE / 2;
        while delta >= 1 {
            let shifted = ctx.shfl_down_f32(&m, delta, WARP_SIZE);
            m = m.zip_with(&shifted, f32::max);
            delta /= 2;
        }
        let row_max = m.get(0);
        ctx.barrier();

        // ---- Pass 2: exp-sum over cached (or recomputed) logits ---------
        let mut lane_sum = LaneArr::<f32>::default();
        for chunk_start in (start..end).step_by(WARP_SIZE) {
            let chunk = (end - chunk_start).min(WARP_SIZE);
            let logit = self.logits_for_chunk(ctx, chunk_start, chunk, start, el_r, cache_logits);
            ctx.compute(2); // exp
            for l in 0..chunk {
                lane_sum.set(l, lane_sum.get(l) + (logit.get(l) - row_max).exp());
            }
        }
        let summed = ctx.shfl_reduce_sum_f32(&lane_sum, WARP_SIZE);
        let row_sum = summed.get(0).max(f32::MIN_POSITIVE);

        // ---- Pass 3: attended aggregation, feature-parallel -------------
        // Columns and attention weights are produced a 32-chunk at a time
        // (one coalesced col load, one drain per chunk), then the z gathers
        // pipeline freely — the same chunked structure the real fused
        // kernels compile to.
        for fbase in (0..f).step_by(WARP_SIZE) {
            let lanes = (f - fbase).min(WARP_SIZE);
            let mut acc = LaneArr::<f32>::default();
            for chunk_start in (start..end).step_by(WARP_SIZE) {
                let chunk = (end - chunk_start).min(WARP_SIZE);
                let cols_c = ctx.load_u32(self.cols, |l| (l < chunk).then(|| chunk_start + l));
                ctx.use_loads();
                let logit =
                    self.logits_for_chunk(ctx, chunk_start, chunk, start, el_r, cache_logits);
                ctx.compute(2); // exp + divide
                let alpha = LaneArr::from_fn(|l| (logit.get(l) - row_max).exp() / row_sum);
                if fbase == 0 {
                    if let Some(out) = self.alpha_out {
                        ctx.store_f32(out, |l| {
                            (l < chunk).then(|| (chunk_start + l, alpha.get(l)))
                        });
                    }
                }
                for i in 0..chunk {
                    let zc = ctx.load_f32(self.z, |l| {
                        (l < lanes).then(|| cols_c.get(i) as usize * f + fbase + l)
                    });
                    ctx.compute(1);
                    for l in 0..lanes {
                        acc.set(l, acc.get(l) + alpha.get(i) * zc.get(l));
                    }
                }
            }
            ctx.store_f32(self.y, |l| {
                (l < lanes).then(|| (row * f + fbase + l, acc.get(l)))
            });
        }
    }
}

/// CPU reference of the fused attention (for tests and the bench oracle).
pub fn fused_gat_reference(
    graph: &GraphData,
    z: &[f32],
    el: &[f32],
    er: &[f32],
    f: usize,
    slope: f32,
) -> (Vec<f32>, Vec<f32>) {
    let csr = &graph.csr;
    let n = csr.num_rows();
    let mut y = vec![0.0f32; n * f];
    let mut alpha = vec![0.0f32; csr.nnz()];
    for r in 0..n {
        let range = csr.row_range(r);
        if range.is_empty() {
            continue;
        }
        let logits: Vec<f32> = range
            .clone()
            .map(|e| {
                let raw = el[r] + er[csr.cols()[e] as usize];
                if raw > 0.0 {
                    raw
                } else {
                    raw * slope
                }
            })
            .collect();
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sum: f32 = logits.iter().map(|&v| (v - max).exp()).sum();
        for (i, e) in range.clone().enumerate() {
            let a = (logits[i] - max).exp() / sum;
            alpha[e] = a;
            let c = csr.cols()[e] as usize;
            for k in 0..f {
                y[r * f + k] += a * z[c * f + k];
            }
        }
    }
    (y, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnone_sim::GpuSpec;
    use gnnone_sparse::formats::{Coo, EdgeList};
    use gnnone_sparse::gen;
    use gnnone_sparse::reference;

    fn setup(seed: u64) -> (Arc<GraphData>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let elist = gen::rmat(7, 700, gen::GRAPH500_PROBS, seed).symmetrize();
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&elist)));
        let n = g.num_vertices();
        let f = 16;
        let z: Vec<f32> = (0..n * f).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
        let el: Vec<f32> = (0..n).map(|i| ((i % 7) as f32 - 3.0) * 0.2).collect();
        let er: Vec<f32> = (0..n).map(|i| ((i % 5) as f32 - 2.0) * 0.3).collect();
        (g, z, el, er)
    }

    #[test]
    fn fused_matches_reference() {
        let (g, z, el, er) = setup(91);
        let f = 16;
        let gpu = Gpu::new(GpuSpec::a100_40gb());
        let dy = DeviceBuffer::<f32>::zeros(g.num_vertices() * f);
        let dalpha = DeviceBuffer::<f32>::zeros(g.nnz());
        FusedGatAttention::new(Arc::clone(&g), 0.2)
            .run(
                &gpu,
                &DeviceBuffer::from_slice(&z),
                &DeviceBuffer::from_slice(&el),
                &DeviceBuffer::from_slice(&er),
                f,
                &dy,
                Some(&dalpha),
            )
            .unwrap();
        let (y_ref, alpha_ref) = fused_gat_reference(&g, &z, &el, &er, f, 0.2);
        reference::assert_close(&dy.to_vec(), &y_ref, 1e-3);
        reference::assert_close(&dalpha.to_vec(), &alpha_ref, 1e-3);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (g, z, el, er) = setup(92);
        let f = 16;
        let gpu = Gpu::new(GpuSpec::a100_40gb());
        let dy = DeviceBuffer::<f32>::zeros(g.num_vertices() * f);
        let dalpha = DeviceBuffer::<f32>::zeros(g.nnz());
        FusedGatAttention::new(Arc::clone(&g), 0.2)
            .run(
                &gpu,
                &DeviceBuffer::from_slice(&z),
                &DeviceBuffer::from_slice(&el),
                &DeviceBuffer::from_slice(&er),
                f,
                &dy,
                Some(&dalpha),
            )
            .unwrap();
        let alpha = dalpha.to_vec();
        for r in 0..g.csr.num_rows() {
            let range = g.csr.row_range(r);
            if range.is_empty() {
                continue;
            }
            let s: f32 = range.map(|e| alpha[e]).sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r}: α sums to {s}");
        }
    }

    #[test]
    fn long_rows_recompute_without_cache() {
        // A hub row longer than the logit cache still computes correctly.
        let mut edges: Vec<(u32, u32)> = (1..700u32).map(|c| (0, c)).collect();
        edges.push((1, 2));
        let g = Arc::new(GraphData::new(Coo::from_edge_list(&EdgeList::new(
            700, edges,
        ))));
        let n = g.num_vertices();
        let f = 8;
        let z: Vec<f32> = (0..n * f).map(|i| (i % 9) as f32 * 0.1).collect();
        let el: Vec<f32> = (0..n).map(|i| (i % 3) as f32 * 0.1).collect();
        let er: Vec<f32> = (0..n).map(|i| (i % 4) as f32 * 0.1).collect();
        let gpu = Gpu::new(GpuSpec::a100_40gb());
        let dy = DeviceBuffer::<f32>::zeros(n * f);
        FusedGatAttention::new(Arc::clone(&g), 0.2)
            .run(
                &gpu,
                &DeviceBuffer::from_slice(&z),
                &DeviceBuffer::from_slice(&el),
                &DeviceBuffer::from_slice(&er),
                f,
                &dy,
                None,
            )
            .unwrap();
        let (y_ref, _) = fused_gat_reference(&g, &z, &el, &er, f, 0.2);
        reference::assert_close(&dy.to_vec(), &y_ref, 1e-3);
    }

    #[test]
    fn no_global_edge_tensor_traffic_without_alpha_out() {
        // The fusion payoff: skipping alpha_out removes |E| global stores.
        let (g, z, el, er) = setup(93);
        let f = 16;
        let gpu = Gpu::new(GpuSpec::a100_40gb());
        let run = |alpha: Option<&DeviceBuffer<f32>>| {
            let dy = DeviceBuffer::<f32>::zeros(g.num_vertices() * f);
            FusedGatAttention::new(Arc::clone(&g), 0.2)
                .run(
                    &gpu,
                    &DeviceBuffer::from_slice(&z),
                    &DeviceBuffer::from_slice(&el),
                    &DeviceBuffer::from_slice(&er),
                    f,
                    &dy,
                    alpha,
                )
                .unwrap()
        };
        let dalpha = DeviceBuffer::<f32>::zeros(g.nnz());
        let with = run(Some(&dalpha));
        let without = run(None);
        assert!(without.stats.write_bytes < with.stats.write_bytes);
    }
}
