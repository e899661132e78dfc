//! The access-summary language: what a kernel promises about its memory
//! behaviour.
//!
//! A summary is a *superset* contract: every address the kernel actually
//! touches at a given lattice point must lie inside the summary's
//! intervals evaluated at that point. Over-approximation is always sound
//! (claimed-disjoint supersets imply disjoint actual writes; in-bounds
//! supersets imply in-bounds accesses); under-approximation is a summary
//! bug — the differential suite cross-checks summaries against the
//! dynamic sanitizer to catch exactly that.

use crate::analysis::sym::{Env, Sym};

/// Which execution model a summary describes.
///
/// The sim model is warp-granular (one [`gnnone_sim::WarpCtx`] per warp);
/// the native model is task-granular (one rayon task per CTA-sized NZE
/// block or row block — see `backend::native`). Both expose the same
/// summary shape: "warp" below means "task" under [`ExecModel::Native`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// The cycle-accurate SIMT simulator.
    Sim,
    /// The multithreaded native CPU engine.
    Native,
}

impl ExecModel {
    /// Stable lowercase name (`"sim"` / `"native"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecModel::Sim => "sim",
            ExecModel::Native => "native",
        }
    }
}

impl std::fmt::Display for ExecModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a buffer is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Read-only: participates in bounds checking only.
    Read,
    /// Plain (non-atomic) writes that must be cross-warp disjoint — the
    /// race-freedom obligation.
    Exclusive,
    /// Atomic read-modify-writes: overlap between warps is legal, bounds
    /// are still checked.
    Atomic,
}

impl Mode {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Read => "read",
            Mode::Exclusive => "exclusive",
            Mode::Atomic => "atomic",
        }
    }
}

/// The shape of one warp's index set into a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Warp `w` touches the contiguous interval
    /// `[start(w), start(w) + len(w))` — `start`/`len` may reference
    /// [`crate::analysis::sym::Param::WarpId`].
    Affine {
        /// Interval start for warp `w`.
        start: Sym,
        /// Interval length for warp `w` (zero = no access).
        len: Sym,
    },
    /// Explicit per-warp intervals `(warp, lo, hi)` computed from the same
    /// preprocessing metadata the kernel schedules with (row chunks, bins,
    /// merge-path spans, swizzle orders) — still static: derived without
    /// executing the kernel. Half-open `[lo, hi)`; a warp may own any
    /// number of intervals.
    Table(Vec<(usize, u64, u64)>),
    /// Bounds-only envelope: every access (any warp) lies in `[lo, hi)`.
    /// Carries no per-warp structure, so it cannot witness disjointness —
    /// use it for reads and atomics, never for exclusive writes.
    Bounded {
        /// Inclusive lower bound of all accessed indices.
        lo: Sym,
        /// Exclusive upper bound of all accessed indices.
        hi: Sym,
    },
}

/// One buffer's declared access set.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferAccess {
    /// Operand name as the kernel traits spell it (`"w"`, `"y"`, `"x"`…).
    pub buffer: &'static str,
    /// Declared element extent of the buffer.
    pub extent: Sym,
    /// Per-warp index set.
    pub pattern: Pattern,
    /// Access mode.
    pub mode: Mode,
}

/// One step of a warp's shared-memory phase script, in program order.
///
/// Ranges are word indices into the warp's shared window and must be
/// warp-uniform (the shared window is private to each warp in both
/// models, so `WarpId` never appears here).
#[derive(Debug, Clone, PartialEq)]
pub enum SharedStep {
    /// Stores words `[lo, hi)` (they become *pending* until a barrier).
    Store {
        /// First stored word.
        lo: Sym,
        /// One past the last stored word.
        hi: Sym,
    },
    /// `__syncwarp` analogue: commits all pending words.
    Barrier,
    /// Loads words `[lo, hi)` — every loaded word must be committed
    /// (stored *and* barrier-flushed) and inside the declared window.
    Load {
        /// First loaded word.
        lo: Sym,
        /// One past the last loaded word.
        hi: Sym,
    },
}

/// The summary of one launch: grid geometry, global accesses, the
/// shared-memory phase script, and a static per-warp instruction bound.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSummary {
    /// Distinguishes multi-launch kernels (e.g. row-binning's bins).
    pub label: &'static str,
    /// Number of warps (sim) / tasks (native) in the grid.
    pub grid_warps: Sym,
    /// Global-memory access sets.
    pub accesses: Vec<BufferAccess>,
    /// Declared shared-memory window, in 32-bit words per warp.
    pub shared_words: Sym,
    /// Shared-memory phase script (empty when the launch uses none).
    pub shared_steps: Vec<SharedStep>,
    /// Upper bound on any single warp's watchdog instruction count.
    /// Checked against the [`gnnone_sim::LaunchSpec`] budget on the sim
    /// model; the native engine has no watchdog, so native summaries may
    /// use zero.
    pub ops_per_warp: Sym,
}

impl LaunchSummary {
    /// A summary with no accesses — the starting point for builders.
    pub fn new(label: &'static str) -> Self {
        Self {
            label,
            grid_warps: Sym::lit(0),
            accesses: Vec::new(),
            shared_words: Sym::lit(0),
            shared_steps: Vec::new(),
            ops_per_warp: Sym::lit(0),
        }
    }
}

/// A kernel's full symbolic access summary for one execution model.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSummary {
    /// Kernel display name (matches the registry).
    pub kernel: String,
    /// Operation family, as [`crate::traits::Op::as_str`] spells it
    /// (`"sddmm"`, `"spmm"`, `"spmv"`, `"edge_apply"`, `"fused"`).
    pub op: &'static str,
    /// Which execution model the summary describes.
    pub model: ExecModel,
    /// One entry per sequential launch the kernel issues (most kernels
    /// issue exactly one; launches are serialized, so cross-launch
    /// overlap is not a race).
    pub launches: Vec<LaunchSummary>,
    /// Base environment the summary was built against: graph shape,
    /// feature length, cache size, max degree. The checker fills
    /// `grid_warps`/`warp_id` per launch.
    pub base_env: Env,
}

impl AccessSummary {
    /// A single-launch summary.
    pub fn single(
        kernel: impl Into<String>,
        op: &'static str,
        model: ExecModel,
        base_env: Env,
        launch: LaunchSummary,
    ) -> Self {
        Self {
            kernel: kernel.into(),
            op,
            model,
            launches: vec![launch],
            base_env,
        }
    }
}

/// Builds the base [`Env`] for a graph × config × feature length.
pub fn base_env(nnz: usize, rows: usize, f: usize, cache: usize, max_degree: usize) -> Env {
    Env {
        nnz: nnz as u64,
        rows: rows as u64,
        f: f as u64,
        cache: cache as u64,
        grid_warps: 0,
        warp_id: 0,
        max_degree: max_degree as u64,
    }
}
