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
//! # Where operands live
//!
//! Each routine reads its streamed inputs ([`Src`]) and writes its
//! outputs ([`Dst`]) either as host slices or in place on device buffers
//! through a [`DeviceView`], and is generic over the two ([`Load`],
//! [`Store`]). Only the `F`-wide operand a routine gathers by column with
//! vector loads (SDDMM `y`, SpMM `x`, fused `z`) is always a host slice.
//! Both instantiations run the same float operations in the same order,
//! so they are bitwise-identical.
//!
//! Unlike the sim backend, launches here cannot fail: there is no grid
//! limit, no device memory budget, and no watchdog. The routines return
//! [`NativeReport`] directly; the trait layer wraps them in `Ok` so both
//! backends share one fallible signature.

use std::time::Instant;

use gnnone_sim::DeviceView;
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
    /// Loads and stores a routine makes in place on a device buffer are
    /// compute and count here. Staging copies (the gathered operand a
    /// device launch copies to the host, and any input staged because it
    /// aliases an output) are made by the launch path before the timer
    /// starts and are excluded: the sim backend does not charge
    /// host↔device copies to the kernel either.
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

/// Where one streamed operand or output of a native launch lives: host
/// memory, or a device buffer read and written in place through its
/// [`DeviceView`].
#[derive(Debug, Clone, Copy)]
pub enum Mem<H, D> {
    /// A host slice.
    Host(H),
    /// A device buffer, accessed in place.
    Device(D),
}

/// A streamed input: an operand each task reads element by element
/// (edge values, `el`/`er`) or one row at a time (SDDMM `x`). The
/// operand a routine gathers by column with vector loads is a plain
/// `&[f32]` instead: a device launch stages that one to the host.
pub type Src<'a> = Mem<&'a [f32], DeviceView<'a, f32>>;

/// An output. Edge outputs are overwritten element by element. Vertex
/// outputs are row reductions: a few rows at a time are loaded with
/// their current contents, accumulated into, and stored once.
pub type Dst<'a> = Mem<&'a mut [f32], DeviceView<'a, f32>>;

/// Elements a [`RowScratch`] holds on the stack.
const STACK_SPAN: usize = 256;

/// Per-task room for a few rows of a device operand, so that a task
/// copies rows in and out of a [`DeviceView`] without allocating: spans
/// of up to 256 elements sit on the stack, only longer ones on the heap.
/// The workers of a launch are fresh threads, so a heap allocation there
/// goes through whichever allocator arena the thread is handed; keeping
/// them off the heap keeps a launch's cost independent of what ran
/// before it. Host slices never use it.
pub struct RowScratch {
    stack: [f32; STACK_SPAN],
    heap: Vec<f32>,
}

impl RowScratch {
    fn new() -> Self {
        Self {
            stack: [0.0; STACK_SPAN],
            heap: Vec::new(),
        }
    }

    #[inline]
    fn span(&mut self, len: usize) -> &mut [f32] {
        if len <= STACK_SPAN {
            &mut self.stack[..len]
        } else {
            self.heap.resize(len, 0.0);
            &mut self.heap
        }
    }
}

/// Consecutive groups of the rows `[r0, r1)`, each as many `f`-wide rows
/// as fill the stack part of a [`RowScratch`] (at least one), so a
/// device output is loaded and stored a few rows at a time.
fn row_groups(r0: usize, r1: usize, f: usize) -> impl Iterator<Item = (usize, usize)> {
    let step = (STACK_SPAN / f.max(1)).max(1);
    (r0..r1).step_by(step).map(move |a| (a, (a + step).min(r1)))
}

/// Read access to a streamed input, in either place it can live. Host
/// slices lend their rows in place; device views copy a row into the
/// task's [`RowScratch`].
pub trait Load: Copy + Sync {
    /// Element `i`.
    fn at(self, i: usize) -> f32;

    /// Elements `start .. start + len`.
    fn span<'s>(self, start: usize, len: usize, scratch: &'s mut RowScratch) -> &'s [f32]
    where
        Self: 's;
}

impl Load for &[f32] {
    #[inline]
    fn at(self, i: usize) -> f32 {
        self[i]
    }

    #[inline]
    fn span<'s>(self, start: usize, len: usize, _: &'s mut RowScratch) -> &'s [f32]
    where
        Self: 's,
    {
        &self[start..start + len]
    }
}

impl Load for DeviceView<'_, f32> {
    #[inline]
    fn at(self, i: usize) -> f32 {
        self.load(i)
    }

    #[inline]
    fn span<'s>(self, start: usize, len: usize, scratch: &'s mut RowScratch) -> &'s [f32]
    where
        Self: 's,
    {
        let row = scratch.span(len);
        self.load_into(start, row);
        row
    }
}

impl Load for Src<'_> {
    fn at(self, i: usize) -> f32 {
        match self {
            Mem::Host(h) => h.at(i),
            Mem::Device(d) => d.at(i),
        }
    }

    fn span<'s>(self, start: usize, len: usize, scratch: &'s mut RowScratch) -> &'s [f32]
    where
        Self: 's,
    {
        match self {
            Mem::Host(h) => h.span(start, len, scratch),
            Mem::Device(d) => d.span(start, len, scratch),
        }
    }
}

/// Write access to an output, in either place it can live.
pub trait Store: Send + Sized {
    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether there are no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into elements `[0, mid)` and `[mid, len)`, for two tasks.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Element `i`.
    fn get(&self, i: usize) -> f32;

    /// Overwrites element `i`.
    fn set(&mut self, i: usize, value: f32);

    /// Runs `op` over elements `start .. start + len`, holding their
    /// current contents. A host slice is updated in place; a device view
    /// is copied into `scratch` and stored back once.
    fn update(
        &mut self,
        start: usize,
        len: usize,
        scratch: &mut RowScratch,
        op: impl FnOnce(&mut [f32]),
    );
}

impl Store for &mut [f32] {
    fn len(&self) -> usize {
        <[f32]>::len(self)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }

    #[inline]
    fn get(&self, i: usize) -> f32 {
        self[i]
    }

    #[inline]
    fn set(&mut self, i: usize, value: f32) {
        self[i] = value;
    }

    #[inline]
    fn update(
        &mut self,
        start: usize,
        len: usize,
        _: &mut RowScratch,
        op: impl FnOnce(&mut [f32]),
    ) {
        op(&mut self[start..start + len]);
    }
}

impl Store for DeviceView<'_, f32> {
    fn len(&self) -> usize {
        DeviceView::len(self)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        DeviceView::split_at(self, mid)
    }

    #[inline]
    fn get(&self, i: usize) -> f32 {
        self.load(i)
    }

    #[inline]
    fn set(&mut self, i: usize, value: f32) {
        self.store(i, value);
    }

    #[inline]
    fn update(
        &mut self,
        start: usize,
        len: usize,
        scratch: &mut RowScratch,
        op: impl FnOnce(&mut [f32]),
    ) {
        let row = scratch.span(len);
        self.load_into(start, row);
        op(row);
        self.store_from(start, row);
    }
}

impl Store for Dst<'_> {
    fn len(&self) -> usize {
        match self {
            Mem::Host(h) => h.len(),
            Mem::Device(d) => d.len(),
        }
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        match self {
            Mem::Host(h) => {
                let (a, b) = h.split_at_mut(mid);
                (Mem::Host(a), Mem::Host(b))
            }
            Mem::Device(d) => {
                let (a, b) = d.split_at(mid);
                (Mem::Device(a), Mem::Device(b))
            }
        }
    }

    fn get(&self, i: usize) -> f32 {
        match self {
            Mem::Host(h) => h.get(i),
            Mem::Device(d) => d.get(i),
        }
    }

    fn set(&mut self, i: usize, value: f32) {
        match self {
            Mem::Host(h) => h.set(i, value),
            Mem::Device(d) => d.set(i, value),
        }
    }

    fn update(
        &mut self,
        start: usize,
        len: usize,
        scratch: &mut RowScratch,
        op: impl FnOnce(&mut [f32]),
    ) {
        match self {
            Mem::Host(h) => h.update(start, len, scratch, op),
            Mem::Device(d) => d.update(start, len, scratch, op),
        }
    }
}

/// Evaluates `$call` with every `$op` unwrapped to its host slice when
/// all of them are on the host, to its device view when all are on the
/// device, and left as a [`Mem`] when they are mixed (a device launch
/// whose input aliases an output stages that input). So each routine
/// compiles to a host and a device instantiation that branch on nothing
/// per element, plus a mixed one that only aliasing launches take.
macro_rules! on_mem {
    ($($op:ident),+ => $call:expr) => {
        match ($($op,)+) {
            ($(Mem::Host($op),)+) => $call,
            ($(Mem::Device($op),)+) => $call,
            ($($op,)+) => $call,
        }
    };
}

/// Splits `out` into consecutive spans, one per task: each item is a
/// span's tag and its length.
fn split_spans<T, D: Store>(
    mut out: D,
    items: impl IntoIterator<Item = (T, usize)>,
) -> Vec<(T, D)> {
    let mut parts = Vec::new();
    for (tag, len) in items {
        let (head, tail) = out.split_at(len);
        parts.push((tag, head));
        out = tail;
    }
    parts
}

/// Contiguous NZE blocks of `block` edges over `[0, nnz)`, tagged with
/// their first edge.
fn edge_blocks(nnz: usize, block: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..nnz)
        .step_by(block)
        .map(move |s| (s, block.min(nnz - s)))
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
    x: Src<'_>,
    y: &[f32],
    f: usize,
    w: Dst<'_>,
    name: &str,
) -> NativeReport {
    on_mem!(x, w => sddmm_edges_on(eng, graph, cfg, x, y, f, w, name))
}

#[allow(clippy::too_many_arguments)]
fn sddmm_edges_on<S: Load, D: Store>(
    eng: &NativeEngine,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    x: S,
    y: &[f32],
    f: usize,
    w: D,
    name: &str,
) -> NativeReport {
    let rows = graph.coo.rows();
    let cols = graph.coo.cols();
    assert_eq!(w.len(), graph.nnz(), "{name}: output length");
    let block = cta_edges(cfg.cache_size);
    let reuse = cfg.data_reuse && cfg.schedule == Schedule::Consecutive;
    let vectorize = cfg.vectorize;
    let parts = split_spans(w, edge_blocks(graph.nnz(), block));
    eng.timed(name, || {
        parts.into_par_iter().for_each(|(base, mut out)| {
            let mut scratch = RowScratch::new();
            let mut prev_row = u32::MAX;
            let mut xr: &[f32] = &[];
            for i in 0..out.len() {
                let r = rows[base + i];
                let c = cols[base + i] as usize;
                if !(reuse && r == prev_row) {
                    let r = r as usize;
                    xr = x.span(r * f, f, &mut scratch);
                    prev_row = rows[base + i];
                }
                let yc = &y[c * f..(c + 1) * f];
                out.set(
                    i,
                    if vectorize {
                        dot_chunked(xr, yc)
                    } else {
                        dot_scalar(xr, yc)
                    },
                );
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
    x: Src<'_>,
    y: &[f32],
    f: usize,
    w: Dst<'_>,
    name: &str,
) -> NativeReport {
    on_mem!(x, w => sddmm_rows_on(eng, graph, x, y, f, w, name))
}

fn sddmm_rows_on<S: Load, D: Store>(
    eng: &NativeEngine,
    graph: &GraphData,
    x: S,
    y: &[f32],
    f: usize,
    w: D,
    name: &str,
) -> NativeReport {
    let offsets = graph.csr.offsets();
    let cols = graph.csr.cols();
    let n = graph.num_vertices();
    assert_eq!(w.len(), graph.nnz(), "{name}: output length");
    let blocks = row_blocks(offsets, n, cta_edges(GnnOneConfig::default().cache_size));
    let spans = blocks
        .into_iter()
        .map(|(r0, r1)| ((r0, r1), (offsets[r1] - offsets[r0]) as usize));
    let parts = split_spans(w, spans);
    eng.timed(name, || {
        parts.into_par_iter().for_each(|((r0, r1), mut out)| {
            let base = offsets[r0] as usize;
            let mut scratch = RowScratch::new();
            for r in r0..r1 {
                let xr = x.span(r * f, f, &mut scratch);
                for e in offsets[r] as usize..offsets[r + 1] as usize {
                    let c = cols[e] as usize;
                    out.set(e - base, dot_chunked(xr, &y[c * f..(c + 1) * f]));
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
    vals: Src<'_>,
    x: &[f32],
    f: usize,
    y: Dst<'_>,
    name: &str,
) -> NativeReport {
    on_mem!(vals, y => spmm_rows_on(eng, graph, cfg, vals, x, f, y, name))
}

#[allow(clippy::too_many_arguments)]
fn spmm_rows_on<S: Load, D: Store>(
    eng: &NativeEngine,
    graph: &GraphData,
    cfg: &GnnOneConfig,
    vals: S,
    x: &[f32],
    f: usize,
    y: D,
    name: &str,
) -> NativeReport {
    let offsets = graph.csr.offsets();
    let cols = graph.csr.cols();
    let n = graph.num_vertices();
    assert_eq!(y.len(), n * f, "{name}: output length");
    let blocks = row_blocks(offsets, n, cta_edges(cfg.cache_size));
    let vectorize = cfg.vectorize;
    let parts = split_spans(
        y,
        blocks.into_iter().map(|(r0, r1)| ((r0, r1), (r1 - r0) * f)),
    );
    eng.timed(name, || {
        parts.into_par_iter().for_each(|((r0, r1), mut out)| {
            let mut scratch = RowScratch::new();
            for (ra, rb) in row_groups(r0, r1, f) {
                out.update((ra - r0) * f, (rb - ra) * f, &mut scratch, |rows| {
                    for r in ra..rb {
                        let row = &mut rows[(r - ra) * f..(r - ra + 1) * f];
                        for e in offsets[r] as usize..offsets[r + 1] as usize {
                            let c = cols[e] as usize;
                            let xc = &x[c * f..(c + 1) * f];
                            let v = vals.at(e);
                            if vectorize {
                                axpy(row, v, xc);
                            } else {
                                for k in 0..f {
                                    row[k] += v * xc[k];
                                }
                            }
                        }
                    }
                });
            }
        });
    })
}

/// Row-split SpMV — [`spmm_rows`] specialized to scalar features: the
/// same adds in the same order, on a register. With width-1 rows there
/// is no vector gather, so `x` is streamed too.
pub fn spmv_rows(
    eng: &NativeEngine,
    graph: &GraphData,
    vals: Src<'_>,
    x: Src<'_>,
    y: Dst<'_>,
    name: &str,
) -> NativeReport {
    on_mem!(vals, x, y => spmv_rows_on(eng, graph, vals, x, y, name))
}

fn spmv_rows_on<S: Load, D: Store>(
    eng: &NativeEngine,
    graph: &GraphData,
    vals: S,
    x: S,
    y: D,
    name: &str,
) -> NativeReport {
    let offsets = graph.csr.offsets();
    let cols = graph.csr.cols();
    let n = graph.num_vertices();
    assert_eq!(y.len(), n, "{name}: output length");
    let blocks = row_blocks(offsets, n, cta_edges(GnnOneConfig::default().cache_size));
    let parts = split_spans(y, blocks.into_iter().map(|(r0, r1)| ((r0, r1), r1 - r0)));
    eng.timed(name, || {
        parts.into_par_iter().for_each(|((r0, r1), mut out)| {
            for r in r0..r1 {
                let mut acc = out.get(r - r0);
                for e in offsets[r] as usize..offsets[r + 1] as usize {
                    acc += vals.at(e) * x.at(cols[e] as usize);
                }
                out.set(r - r0, acc);
            }
        });
    })
}

/// Edge-parallel `u_add_v` (`w[e] = el[row(e)] + er[col(e)]`) on
/// contiguous NZE blocks.
pub fn u_add_v_edges(
    eng: &NativeEngine,
    graph: &GraphData,
    el: Src<'_>,
    er: Src<'_>,
    w: Dst<'_>,
    name: &str,
) -> NativeReport {
    on_mem!(el, er, w => u_add_v_edges_on(eng, graph, el, er, w, name))
}

fn u_add_v_edges_on<S: Load, D: Store>(
    eng: &NativeEngine,
    graph: &GraphData,
    el: S,
    er: S,
    w: D,
    name: &str,
) -> NativeReport {
    let rows = graph.coo.rows();
    let cols = graph.coo.cols();
    assert_eq!(w.len(), graph.nnz(), "{name}: output length");
    let block = cta_edges(GnnOneConfig::default().cache_size);
    let parts = split_spans(w, edge_blocks(graph.nnz(), block));
    eng.timed(name, || {
        parts.into_par_iter().for_each(|(base, mut out)| {
            for i in 0..out.len() {
                let v = el.at(rows[base + i] as usize) + er.at(cols[base + i] as usize);
                out.set(i, v);
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
    el: Src<'_>,
    er: Src<'_>,
    f: usize,
    y: Dst<'_>,
    alpha: Option<Dst<'_>>,
    name: &str,
) -> NativeReport {
    match alpha {
        Some(a) => on_mem!(el, er, y, a =>
            fused_gat_rows_on(eng, graph, slope, z, el, er, f, y, Some(a), name)),
        None => on_mem!(el, er, y =>
            fused_gat_rows_on(eng, graph, slope, z, el, er, f, y, None, name)),
    }
}

#[allow(clippy::too_many_arguments)]
fn fused_gat_rows_on<S: Load, D: Store>(
    eng: &NativeEngine,
    graph: &GraphData,
    slope: f32,
    z: &[f32],
    el: S,
    er: S,
    f: usize,
    y: D,
    alpha: Option<D>,
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
    let edge_spans = blocks
        .iter()
        .map(|&(r0, r1)| ((), (offsets[r1] - offsets[r0]) as usize));
    let mut a_parts = alpha.map(|a| split_spans(a, edge_spans).into_iter().map(|(_, a)| a));
    // One task's slice of the outputs: (row range, y rows, α span).
    let parts: Vec<_> = split_spans(y, blocks.iter().map(|&(r0, r1)| ((r0, r1), (r1 - r0) * f)))
        .into_iter()
        .map(|(rows, y_out)| (rows, y_out, a_parts.as_mut().and_then(Iterator::next)))
        .collect();
    let leaky = |raw: f32| if raw > 0.0 { raw } else { raw * slope };
    eng.timed(name, || {
        parts
            .into_par_iter()
            .for_each(|((r0, r1), mut y_out, mut a_out)| {
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
                let mut scratch = RowScratch::new();
                for (ra, rb) in row_groups(r0, r1, f) {
                    y_out.update((ra - r0) * f, (rb - ra) * f, &mut scratch, |y_rows| {
                        for r in ra..rb {
                            let range = offsets[r] as usize..offsets[r + 1] as usize;
                            if range.is_empty() {
                                continue;
                            }
                            let elr = el.at(r);
                            let rcols = &cols[range.clone()];
                            let buf = &mut stage[..rcols.len()];
                            let mut max = f32::NEG_INFINITY;
                            for (slot, &c) in buf.iter_mut().zip(rcols) {
                                let v = leaky(elr + er.at(c as usize));
                                *slot = v;
                                max = max.max(v);
                            }
                            let mut denom = 0.0f32;
                            for v in buf.iter_mut() {
                                *v = (*v - max).exp();
                                denom += *v;
                            }
                            let row = &mut y_rows[(r - ra) * f..(r - ra + 1) * f];
                            match a_out {
                                Some(ref mut a_out) => {
                                    let a_start = range.start - base;
                                    for (j, (&v, &c)) in buf.iter().zip(rcols).enumerate() {
                                        let a = v / denom;
                                        a_out.set(a_start + j, a);
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
            Mem::Host(&vals),
            &x,
            f,
            Mem::Host(&mut y),
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
                sddmm_edges(&eng, &g, &cfg, Mem::Host(&x), &y, f, Mem::Host(&mut w), "t");
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
            let cfg = GnnOneConfig::default();
            sddmm_edges(&eng, &g, &cfg, Mem::Host(&x), &y, f, Mem::Host(&mut w), "t");
            w
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }

    #[test]
    fn host_device_and_mixed_placements_agree_bitwise() {
        use gnnone_sim::DeviceBuffer;
        let g = graph();
        let f = 6;
        let n = g.num_vertices();
        let (x, vals) = (feats(n * f, 9), feats(g.nnz(), 10));
        // Non-zero starting contents pin "accumulate into the row".
        let y0 = feats(n * f, 11);
        let eng = NativeEngine::with_threads(2).unwrap();
        let cfg = GnnOneConfig::default();
        let mut host = y0.clone();
        spmm_rows(
            &eng,
            &g,
            &cfg,
            Mem::Host(&vals),
            &x,
            f,
            Mem::Host(&mut host),
            "t",
        );
        let (d_vals, d_y) = (
            DeviceBuffer::from_slice(&vals),
            DeviceBuffer::from_slice(&y0),
        );
        let vals_dev = Mem::Device(d_vals.view());
        spmm_rows(
            &eng,
            &g,
            &cfg,
            vals_dev,
            &x,
            f,
            Mem::Device(d_y.view()),
            "t",
        );
        assert_eq!(d_y.to_vec(), host, "device");
        let d_y = DeviceBuffer::from_slice(&y0);
        spmm_rows(
            &eng,
            &g,
            &cfg,
            Mem::Host(&vals),
            &x,
            f,
            Mem::Device(d_y.view()),
            "t",
        );
        assert_eq!(d_y.to_vec(), host, "mixed");

        let mut host = vec![0.0f32; g.nnz()];
        sddmm_edges(
            &eng,
            &g,
            &cfg,
            Mem::Host(&x),
            &x,
            f,
            Mem::Host(&mut host),
            "t",
        );
        let (d_x, d_w) = (
            DeviceBuffer::from_slice(&x),
            DeviceBuffer::from_slice(&vals),
        );
        sddmm_edges(
            &eng,
            &g,
            &cfg,
            Mem::Device(d_x.view()),
            &x,
            f,
            Mem::Device(d_w.view()),
            "t",
        );
        assert_eq!(d_w.to_vec(), host, "an edge output is overwritten whole");
    }

    #[test]
    fn rows_wider_than_the_stack_buffer_agree_bitwise() {
        use gnnone_sim::DeviceBuffer;
        let g = graph();
        let f = STACK_SPAN + 3;
        let n = g.num_vertices();
        let (x, vals, y0) = (feats(n * f, 12), feats(g.nnz(), 13), feats(n * f, 14));
        let eng = NativeEngine::with_threads(2).unwrap();
        let cfg = GnnOneConfig::default();
        let mut host = y0.clone();
        spmm_rows(
            &eng,
            &g,
            &cfg,
            Mem::Host(&vals),
            &x,
            f,
            Mem::Host(&mut host),
            "t",
        );
        let d_y = DeviceBuffer::from_slice(&y0);
        let d_vals = DeviceBuffer::from_slice(&vals);
        spmm_rows(
            &eng,
            &g,
            &cfg,
            Mem::Device(d_vals.view()),
            &x,
            f,
            Mem::Device(d_y.view()),
            "t",
        );
        assert_eq!(d_y.to_vec(), host, "spmm");

        let mut host = vec![0.0f32; g.nnz()];
        sddmm_edges(
            &eng,
            &g,
            &cfg,
            Mem::Host(&x),
            &x,
            f,
            Mem::Host(&mut host),
            "t",
        );
        let (d_x, d_w) = (
            DeviceBuffer::from_slice(&x),
            DeviceBuffer::<f32>::zeros(g.nnz()),
        );
        sddmm_edges(
            &eng,
            &g,
            &cfg,
            Mem::Device(d_x.view()),
            &x,
            f,
            Mem::Device(d_w.view()),
            "t",
        );
        assert_eq!(d_w.to_vec(), host, "sddmm");
    }
}
