//! Native multithreaded CPU executor — the `native` backend.
//!
//! Runs the same two-stage shape as the simulated kernels (Stage 1:
//! balanced NZE staging, Stage 2: symbiotic feature-chunk compute) as real
//! rayon-parallel work over CTA-sized task blocks with `f32x4`-style
//! chunked inner loops, measured with wall-clock timing. This is the
//! FusedMM observation applied to the repo: the paper's unified
//! SDDMM/SpMM formulation is backend-agnostic, so the schedule that feeds
//! a GPU warp maps directly onto a SIMD-capable CPU core.
//!
//! # Determinism contract
//!
//! Every routine here produces **bit-identical output regardless of the
//! rayon thread count**. The partitioning rules that guarantee it:
//!
//! * edge-output kernels (SDDMM, `u_add_v`) split the NZE range into
//!   disjoint contiguous blocks — each output element is written by
//!   exactly one task, and its value depends only on its own inputs;
//! * row-output kernels (SpMM, SpMV, fused attention) split the *row*
//!   range into nnz-balanced, row-aligned blocks — each output row is
//!   owned by exactly one task and accumulated sequentially in CSR edge
//!   order, so no atomics are needed and the float association order is
//!   fixed by the graph, not the schedule.
//!
//! Block boundaries depend only on the graph and the kernel config, never
//! on the thread count, so the work *assignment* (not just the result) is
//! reproducible too.
//!
//! Unlike the sim backend, launches here cannot fail: there is no grid
//! limit, no device memory budget, and no watchdog. The routines return
//! [`NativeReport`] directly; the trait layer wraps them in `Ok` so both
//! backends share one fallible signature.

use std::time::Instant;

use rayon::prelude::*;

use crate::gnnone::config::{GnnOneConfig, Schedule};
use crate::graph::GraphData;

/// Lane width of the chunked inner loops — the CPU analogue of the
/// paper's `float4` vector loads. The loops below process features in
/// `[f32; 4]` chunks that LLVM auto-vectorizes to SIMD on every target
/// the repo builds for; no unstable `std::simd` is needed.
pub const VEC_WIDTH: usize = 4;

/// Warps hosted per CTA in the simulator's launch geometry; the native
/// backend sizes one rayon task as one CTA's worth of NZEs
/// (`WARPS_PER_CTA × cache_size`) so the two backends decompose work at
/// the same granularity.
pub const WARPS_PER_CTA: usize = 8;

/// Wall-clock execution report from one native launch — the `native`
/// counterpart of the simulator's `KernelReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeReport {
    /// Kernel name, as reported by the kernel object.
    pub name: String,
    /// Wall-clock time of the parallel compute section in milliseconds.
    /// Staging copies between device buffers and host vectors (made by
    /// the launch path, never by these routines) are excluded: the sim
    /// backend does not charge host↔device copies to the kernel either.
    pub time_ms: f64,
    /// Rayon threads available to the launch.
    pub threads: usize,
}

/// A native CPU execution engine: a (possibly dedicated) rayon thread
/// pool plus the launch bookkeeping shared by all native kernel routines.
///
/// `NativeEngine::new()` borrows the global rayon pool;
/// [`NativeEngine::with_threads`] builds a dedicated pool with an exact
/// thread count — the knob the determinism tests and `--threads` expose.
pub struct NativeEngine {
    threads: usize,
    pool: Option<rayon::ThreadPool>,
}

impl Default for NativeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeEngine {
    /// An engine over the global rayon thread pool.
    pub fn new() -> Self {
        Self {
            threads: rayon::current_num_threads(),
            pool: None,
        }
    }

    /// An engine with a dedicated pool of exactly `threads` workers.
    /// Fails (with the builder's message) when the pool cannot be
    /// created; `threads == 0` is rejected up front.
    pub fn with_threads(threads: usize) -> Result<Self, String> {
        if threads == 0 {
            return Err("--threads must be >= 1".to_string());
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| format!("failed to build a {threads}-thread pool: {e}"))?;
        Ok(Self {
            threads,
            pool: Some(pool),
        })
    }

    /// Number of worker threads launches on this engine may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` inside this engine's pool (or the global pool).
    fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }

    /// Times `op` on this engine's pool and builds the report.
    fn timed(&self, name: &str, op: impl FnOnce() + Send) -> NativeReport {
        let start = Instant::now();
        self.run(op);
        NativeReport {
            name: name.to_string(),
            time_ms: start.elapsed().as_secs_f64() * 1e3,
            threads: self.threads,
        }
    }
}

/// Chunked dot product — `VEC_WIDTH` independent accumulator lanes
/// combined pairwise at the end, mirroring a `float4` FMA loop.
#[inline]
fn dot_chunked(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; VEC_WIDTH];
    let chunks = a.len() / VEC_WIDTH * VEC_WIDTH;
    for (ca, cb) in a[..chunks]
        .chunks_exact(VEC_WIDTH)
        .zip(b[..chunks].chunks_exact(VEC_WIDTH))
    {
        for k in 0..VEC_WIDTH {
            lanes[k] += ca[k] * cb[k];
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for k in chunks..a.len() {
        acc += a[k] * b[k];
    }
    acc
}

/// Scalar dot product — the `vectorize: false` ablation path; association
/// order matches the sequential CPU reference exactly.
#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `out[k] += s * x[k]` as one zip loop the compiler vectorizes freely.
/// Unlike [`dot_chunked`], lane shape cannot change the result here —
/// every output element receives exactly one fused add per call, so the
/// per-element association order is fixed no matter how the loop is
/// carved up. The iterator form drops the chunk bookkeeping and bounds
/// checks that dominated the short `f` rows GAT heads use.
#[inline]
fn axpy(out: &mut [f32], s: f32, x: &[f32]) {
    for (o, xv) in out.iter_mut().zip(x) {
        *o += s * xv;
    }
}

/// NZEs one rayon task stages and processes — the CTA analogue. Public
/// so the static verifier (`crate::analysis`) can reproduce the exact
/// task partition a native launch will use.
pub fn cta_edges(cache_size: usize) -> usize {
    (WARPS_PER_CTA * cache_size.max(1)).max(1)
}

/// Splits `[0, num_rows)` into row-aligned blocks of roughly
/// `target_nnz` NZEs each (always ≥ 1 row per block). The boundaries
/// depend only on the CSR offsets and the target, never on the thread
/// count — the native Stage-1 balance rule for row-output kernels.
/// Public for the same reason as [`cta_edges`].
pub fn row_blocks(offsets: &[u32], num_rows: usize, target_nnz: usize) -> Vec<(usize, usize)> {
    let target = target_nnz.max(1) as u32;
    let mut blocks = Vec::new();
    let mut start = 0usize;
    while start < num_rows {
        let limit = offsets[start] + target;
        let mut end = start + 1;
        while end < num_rows && offsets[end + 1] <= limit {
            end += 1;
        }
        blocks.push((start, end));
        start = end;
    }
    blocks
}

/// Edge-parallel SDDMM over COO (`w[e] = x[row(e)] · y[col(e)]`),
/// honouring the GNNOne config: `cache_size` sizes the per-task NZE
/// window, `vectorize` selects the chunked vs scalar dot, and
/// Consecutive × `data_reuse` enables the row-feature reuse the sim's
/// Stage 2 models (consecutive NZEs sharing a row skip the re-gather).
#[allow(clippy::too_many_arguments)]
pub fn sddmm_edges(
    eng: &NativeEngine,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    x: &[f32],
    y: &[f32],
    f: usize,
    w: &mut [f32],
    name: &str,
) -> NativeReport {
    let rows = graph.coo.rows();
    let cols = graph.coo.cols();
    assert_eq!(w.len(), graph.nnz(), "{name}: output length");
    let block = cta_edges(cfg.cache_size);
    let reuse = cfg.data_reuse && cfg.schedule == Schedule::Consecutive;
    let vectorize = cfg.vectorize;
    eng.timed(name, || {
        w.par_chunks_mut(block).enumerate().for_each(|(b, out)| {
            let base = b * block;
            let mut prev_row = u32::MAX;
            let mut xr: &[f32] = &[];
            for (i, slot) in out.iter_mut().enumerate() {
                let r = rows[base + i];
                let c = cols[base + i] as usize;
                if !(reuse && r == prev_row) {
                    let r = r as usize;
                    xr = &x[r * f..(r + 1) * f];
                    prev_row = rows[base + i];
                }
                let yc = &y[c * f..(c + 1) * f];
                *slot = if vectorize {
                    dot_chunked(xr, yc)
                } else {
                    dot_scalar(xr, yc)
                };
            }
        });
    })
}

/// Vertex-parallel SDDMM over CSR — the native path for the
/// thread-per-row / warp-per-row baseline family, whose launch geometry
/// is row-major rather than edge-major. Output spans per row block are
/// disjoint CSR ranges, so the same determinism contract holds.
pub fn sddmm_rows(
    eng: &NativeEngine,
    graph: &GraphData,
    x: &[f32],
    y: &[f32],
    f: usize,
    w: &mut [f32],
    name: &str,
) -> NativeReport {
    let offsets = graph.csr.offsets();
    let cols = graph.csr.cols();
    let n = graph.num_vertices();
    assert_eq!(w.len(), graph.nnz(), "{name}: output length");
    let blocks = row_blocks(offsets, n, cta_edges(GnnOneConfig::default().cache_size));
    let mut parts: Vec<(&mut [f32], usize, usize)> = Vec::with_capacity(blocks.len());
    let mut rest: &mut [f32] = w;
    for &(r0, r1) in &blocks {
        let span = (offsets[r1] - offsets[r0]) as usize;
        let (head, tail) = rest.split_at_mut(span);
        parts.push((head, r0, r1));
        rest = tail;
    }
    eng.timed(name, || {
        parts.into_par_iter().for_each(|(out, r0, r1)| {
            let base = offsets[r0] as usize;
            for r in r0..r1 {
                let xr = &x[r * f..(r + 1) * f];
                for e in offsets[r] as usize..offsets[r + 1] as usize {
                    let c = cols[e] as usize;
                    out[e - base] = dot_chunked(xr, &y[c * f..(c + 1) * f]);
                }
            }
        });
    })
}

/// Row-split SpMM (`y[r] += Σ_e w[e] · x[col(e)]` over CSR rows) on
/// nnz-balanced row blocks. Accumulates into the caller's `y` (matching
/// the trait contract); each row is reduced sequentially in CSR order, so
/// the result is bit-identical to the sequential CPU reference.
#[allow(clippy::too_many_arguments)]
pub fn spmm_rows(
    eng: &NativeEngine,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    vals: &[f32],
    x: &[f32],
    f: usize,
    y: &mut [f32],
    name: &str,
) -> NativeReport {
    let offsets = graph.csr.offsets();
    let cols = graph.csr.cols();
    let n = graph.num_vertices();
    assert_eq!(y.len(), n * f, "{name}: output length");
    let blocks = row_blocks(offsets, n, cta_edges(cfg.cache_size));
    let vectorize = cfg.vectorize;
    let mut parts: Vec<(&mut [f32], usize, usize)> = Vec::with_capacity(blocks.len());
    let mut rest: &mut [f32] = y;
    for &(r0, r1) in &blocks {
        let (head, tail) = rest.split_at_mut((r1 - r0) * f);
        parts.push((head, r0, r1));
        rest = tail;
    }
    eng.timed(name, || {
        parts.into_par_iter().for_each(|(out, r0, r1)| {
            for r in r0..r1 {
                let row = &mut out[(r - r0) * f..(r - r0 + 1) * f];
                for e in offsets[r] as usize..offsets[r + 1] as usize {
                    let c = cols[e] as usize;
                    let xc = &x[c * f..(c + 1) * f];
                    if vectorize {
                        axpy(row, vals[e], xc);
                    } else {
                        for k in 0..f {
                            row[k] += vals[e] * xc[k];
                        }
                    }
                }
            }
        });
    })
}

/// Row-split SpMV — [`spmm_rows`] specialized to scalar features.
pub fn spmv_rows(
    eng: &NativeEngine,
    graph: &GraphData,
    vals: &[f32],
    x: &[f32],
    y: &mut [f32],
    name: &str,
) -> NativeReport {
    spmm_rows(eng, graph, &GnnOneConfig::default(), vals, x, 1, y, name)
}

/// Edge-parallel `u_add_v` (`w[e] = el[row(e)] + er[col(e)]`) on
/// contiguous NZE blocks.
pub fn u_add_v_edges(
    eng: &NativeEngine,
    graph: &GraphData,
    el: &[f32],
    er: &[f32],
    w: &mut [f32],
    name: &str,
) -> NativeReport {
    let rows = graph.coo.rows();
    let cols = graph.coo.cols();
    assert_eq!(w.len(), graph.nnz(), "{name}: output length");
    let block = cta_edges(GnnOneConfig::default().cache_size);
    eng.timed(name, || {
        w.par_chunks_mut(block).enumerate().for_each(|(b, out)| {
            let base = b * block;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = el[rows[base + i] as usize] + er[cols[base + i] as usize];
            }
        });
    })
}

/// Fused GAT attention on row blocks: per row, three sequential passes
/// (max logit, exp-sum, attended aggregation) exactly mirroring
/// `fused_gat_reference`, with the row's `y` span and CSR-aligned `alpha`
/// span owned by one task.
#[allow(clippy::too_many_arguments)]
pub fn fused_gat_rows(
    eng: &NativeEngine,
    graph: &GraphData,
    slope: f32,
    z: &[f32],
    el: &[f32],
    er: &[f32],
    f: usize,
    y: &mut [f32],
    alpha: Option<&mut [f32]>,
    name: &str,
) -> NativeReport {
    let offsets = graph.csr.offsets();
    let cols = graph.csr.cols();
    let n = graph.num_vertices();
    assert_eq!(y.len(), n * f, "{name}: output length");
    // α is only written when the caller asked for it (training); the
    // inference shape keeps it in the per-row stage buffer.
    if let Some(a) = &alpha {
        assert_eq!(a.len(), graph.nnz(), "{name}: α length");
    }
    let blocks = row_blocks(offsets, n, cta_edges(GnnOneConfig::default().cache_size));
    // One task's slice of the outputs: (y rows, α span, row range).
    type FusedPart<'a> = (&'a mut [f32], Option<&'a mut [f32]>, usize, usize);
    let mut parts: Vec<FusedPart> = Vec::with_capacity(blocks.len());
    let mut y_rest: &mut [f32] = y;
    let mut a_rest: Option<&mut [f32]> = alpha;
    for &(r0, r1) in &blocks {
        let (y_head, y_tail) = y_rest.split_at_mut((r1 - r0) * f);
        let span = (offsets[r1] - offsets[r0]) as usize;
        let a_head = match a_rest.take() {
            Some(a) => {
                let (head, tail) = a.split_at_mut(span);
                a_rest = Some(tail);
                Some(head)
            }
            None => None,
        };
        parts.push((y_head, a_head, r0, r1));
        y_rest = y_tail;
    }
    let leaky = |raw: f32| if raw > 0.0 { raw } else { raw * slope };
    eng.timed(name, || {
        parts
            .into_par_iter()
            .for_each(|(y_out, mut a_out, r0, r1)| {
                let base = offsets[r0] as usize;
                // Per-task logit stage: each edge's logit is gathered and its
                // exp taken exactly once instead of re-derived per pass. The
                // float ops and their order match `fused_gat_reference`, so
                // results stay bitwise identical.
                let max_span = (r0..r1)
                    .map(|r| (offsets[r + 1] - offsets[r]) as usize)
                    .max()
                    .unwrap_or(0);
                let mut stage = vec![0.0f32; max_span];
                for r in r0..r1 {
                    let range = offsets[r] as usize..offsets[r + 1] as usize;
                    if range.is_empty() {
                        continue;
                    }
                    let elr = el[r];
                    let rcols = &cols[range.clone()];
                    let buf = &mut stage[..rcols.len()];
                    let mut max = f32::NEG_INFINITY;
                    for (slot, &c) in buf.iter_mut().zip(rcols) {
                        let v = leaky(elr + er[c as usize]);
                        *slot = v;
                        max = max.max(v);
                    }
                    let mut denom = 0.0f32;
                    for v in buf.iter_mut() {
                        *v = (*v - max).exp();
                        denom += *v;
                    }
                    let row = &mut y_out[(r - r0) * f..(r - r0 + 1) * f];
                    match a_out {
                        Some(ref mut a_out) => {
                            let arow = &mut a_out[range.start - base..range.end - base];
                            for ((&v, &c), slot) in buf.iter().zip(rcols).zip(arow) {
                                let a = v / denom;
                                *slot = a;
                                let c = c as usize;
                                axpy(row, a, &z[c * f..(c + 1) * f]);
                            }
                        }
                        None => {
                            for (&v, &c) in buf.iter().zip(rcols) {
                                let c = c as usize;
                                axpy(row, v / denom, &z[c * f..(c + 1) * f]);
                            }
                        }
                    }
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnone_sparse::formats::Coo;
    use gnnone_sparse::gen;
    use gnnone_sparse::reference;

    fn graph() -> GraphData {
        let el = gen::rmat(8, 1500, gen::GRAPH500_PROBS, 77).symmetrize();
        GraphData::new(Coo::from_edge_list(&el))
    }

    fn feats(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 31 + salt * 97) % 23) as f32 - 11.0) * 0.13)
            .collect()
    }

    #[test]
    fn row_blocks_cover_and_balance() {
        let g = graph();
        let blocks = row_blocks(g.csr.offsets(), g.num_vertices(), 256);
        assert_eq!(blocks.first().unwrap().0, 0);
        assert_eq!(blocks.last().unwrap().1, g.num_vertices());
        for w in blocks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "blocks must tile the row range");
        }
    }

    #[test]
    fn dot_variants_agree() {
        let a = feats(37, 1);
        let b = feats(37, 2);
        let (c, s) = (dot_chunked(&a, &b), dot_scalar(&a, &b));
        assert!((c - s).abs() <= 1e-4 * s.abs().max(1.0), "{c} vs {s}");
    }

    #[test]
    fn spmm_matches_reference_bitwise() {
        let g = graph();
        let f = 9;
        let n = g.num_vertices();
        let x = feats(n * f, 3);
        let vals = feats(g.nnz(), 4);
        let mut y = vec![0.0f32; n * f];
        let eng = NativeEngine::with_threads(3).unwrap();
        spmm_rows(
            &eng,
            &g,
            &GnnOneConfig::default(),
            &vals,
            &x,
            f,
            &mut y,
            "t",
        );
        // Row-split accumulation preserves the reference association
        // order per element, so equality is exact, not just close.
        assert_eq!(y, reference::spmm_csr(&g.csr, &vals, &x, f));
    }

    #[test]
    fn sddmm_close_to_reference_under_all_configs() {
        let g = graph();
        let f = 12;
        let n = g.num_vertices();
        let x = feats(n * f, 5);
        let y = feats(n * f, 6);
        let expect = reference::sddmm_coo(&g.coo, &x, &y, f);
        let eng = NativeEngine::new();
        for vectorize in [false, true] {
            for schedule in [Schedule::Consecutive, Schedule::RoundRobin] {
                let cfg = GnnOneConfig {
                    cache_size: 64,
                    schedule,
                    vectorize,
                    data_reuse: true,
                };
                let mut w = vec![0.0f32; g.nnz()];
                sddmm_edges(&eng, &g, &cfg, &x, &y, f, &mut w, "t");
                reference::assert_close(&w, &expect, 1e-5);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let g = graph();
        let f = 8;
        let n = g.num_vertices();
        let x = feats(n * f, 7);
        let y = feats(n * f, 8);
        let run = |threads: usize| {
            let eng = NativeEngine::with_threads(threads).unwrap();
            let mut w = vec![0.0f32; g.nnz()];
            sddmm_edges(&eng, &g, &GnnOneConfig::default(), &x, &y, f, &mut w, "t");
            w
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }
}
