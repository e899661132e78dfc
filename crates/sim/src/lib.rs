//! # gnnone-sim — a SIMT GPU execution-model simulator
//!
//! This crate is the hardware substrate for the GNNOne reproduction. The
//! paper's optimizations (two-stage data load, symbiotic thread scheduling,
//! `float4` vector loads, shared-memory NZE caching) all act on properties of
//! the GPU *execution model* rather than on any particular silicon:
//!
//! * **memory coalescing** — the 32 lanes of a warp issue one memory
//!   instruction; the addresses are grouped into 32-byte sectors and 128-byte
//!   transactions ([`coalesce`]);
//! * **memory barriers limit load ILP** — loads issued between two
//!   synchronization points overlap; a barrier (shared-memory fence or
//!   warp-shuffle exchange) drains the load pipeline ([`warp`]);
//! * **register pressure and shared-memory usage limit occupancy** — fewer
//!   resident warps per SM means less latency hiding ([`occupancy`]);
//! * **atomics serialize on intra-warp address conflicts**.
//!
//! Kernels implement [`WarpKernel`] and execute *functionally*: every load
//! and store moves real `f32`/`u32` values through [`DeviceBuffer`]s, so the
//! same code path that is timed also produces numerically correct results
//! (which the GNN training stack consumes). Alongside the functional
//! execution, each warp accrues a cycle count through a small scoreboard
//! model, and [`Gpu::launch`] aggregates warps into CTAs, CTAs onto SMs, and
//! reports kernel time under an A100-like parameterization
//! ([`GpuSpec::a100_40gb`]).
//!
//! The model is deliberately *not* cycle-accurate; it is designed so that the
//! relative effects the paper measures (who wins, by roughly what factor,
//! where the crossovers fall) are reproduced. See `DESIGN.md` at the
//! workspace root for the fidelity contract.
//!
//! ## Quick example
//!
//! ```
//! use gnnone_sim::{DeviceBuffer, Gpu, GpuSpec, KernelResources, WarpCtx, WarpKernel};
//!
//! /// Doubles every element of a buffer.
//! struct Double<'a> {
//!     input: &'a DeviceBuffer<f32>,
//!     output: &'a DeviceBuffer<f32>,
//! }
//!
//! impl WarpKernel for Double<'_> {
//!     fn resources(&self) -> KernelResources {
//!         KernelResources { threads_per_cta: 128, regs_per_thread: 16, shared_bytes_per_cta: 0 }
//!     }
//!     fn grid_warps(&self) -> usize {
//!         self.input.len().div_ceil(32)
//!     }
//!     fn run_warp(&self, warp_id: usize, ctx: &mut WarpCtx) {
//!         let base = warp_id * 32;
//!         let n = self.input.len();
//!         let x = ctx.load_f32(self.input, |lane| {
//!             let i = base + lane;
//!             (i < n).then_some(i)
//!         });
//!         ctx.compute(1);
//!         ctx.store_f32(self.output, |lane| {
//!             let i = base + lane;
//!             (i < n).then_some((i, 2.0 * x.get(lane)))
//!         });
//!     }
//! }
//!
//! let gpu = Gpu::new(GpuSpec::a100_40gb());
//! let input = DeviceBuffer::from_slice(&[1.0, 2.0, 3.0]);
//! let output = DeviceBuffer::zeros(3);
//! let report = gpu.launch(&Double { input: &input, output: &output });
//! assert_eq!(output.to_vec(), vec![2.0, 4.0, 6.0]);
//! assert!(report.cycles > 0);
//! ```

//! ## Observability
//!
//! Launches can be recorded without touching kernel code: attach a
//! [`trace::TraceSession`] (Chrome-trace timeline of kernel launches, CTA
//! placements, and optional warp spans) and/or a
//! [`metrics::MetricsRegistry`] (per-kernel counter rollups with derived
//! metrics) to a [`Gpu`] via [`Gpu::enable_trace`] /
//! [`Gpu::enable_metrics`]. Both are zero-cost when not attached. See
//! `docs/PROFILING.md` at the workspace root for every counter's
//! definition and its Nsight Compute analogue.
//!
//! ## Sanitizer
//!
//! The same attachment pattern carries the correctness oracle: a
//! [`sanitize::Sanitizer`] installed via [`Gpu::enable_sanitizer`] shadows
//! every global and shared access of every launch, checking for cross-warp
//! races, reads of shared words not separated from their writes by a
//! barrier, uninitialized shared reads, out-of-bounds indices, and
//! misaligned vector accesses — the simulator's `compute-sanitizer`
//! analogue. The shadow never touches the timing model; reports are
//! identical with and without it. See `docs/SANITIZER.md`.
//!
//! ## Chaos
//!
//! The fourth attachment is the adversary that proves the other layers
//! work: a [`chaos::ChaosEngine`] installed via [`Gpu::enable_chaos`]
//! injects one seeded fault per launch (memory bit flips, dropped atomics,
//! elided barriers, killed/stalled warps, transient launch failures) and/or
//! executes the launch under a seeded permutation of CTA and warp order —
//! making the engine's determinism contract testable. Everything is
//! reproducible from the seed alone, and zero-cost when detached. See
//! `docs/ROBUSTNESS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // SIMT lane loops index parallel per-lane arrays

pub mod buffer;
pub mod chaos;
pub mod coalesce;
pub mod engine;
pub mod error;
pub mod jsonio;
pub mod kernel;
pub mod lanes;
pub mod metrics;
pub mod occupancy;
pub mod sanitize;
pub mod spec;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod warp;

pub use buffer::{DeviceBuffer, DeviceView, Pod32};
pub use chaos::{splitmix64, ChaosConfig, ChaosEngine, FaultKind, ShardFaultKind, Verdict};
pub use engine::{Gpu, KernelReport, LaunchSpec};
pub use error::{AbortReason, GnnOneError, KernelAbort, ShardAbort, ValidationError};
pub use kernel::{KernelResources, WarpKernel};
pub use lanes::{LaneArr, WARP_SIZE};
pub use metrics::{KernelMetrics, MetricsRegistry, MetricsSnapshot};
pub use occupancy::Occupancy;
pub use sanitize::{CheckKind, Finding, LaunchAudit, SanitizeConfig, Sanitizer};
pub use spec::{GpuSpec, TimingParams};
pub use stats::{KernelStats, WarpStats};
pub use topology::{InterconnectSpec, MultiGpu, TransferRecord};
pub use trace::{TraceConfig, TraceEvent, TraceSession};
pub use warp::WarpCtx;
