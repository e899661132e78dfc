//! # gnnone-bench — the figure/table reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (§5); each prints
//! the same rows/series the paper reports and writes a JSON record under
//! `results/`. Shared plumbing lives here:
//!
//! * [`cli`] — tiny flag parser (`--scale`, `--dims`, `--datasets`,
//!   `--epochs`, `--out`);
//! * [`runner`] — dataset loading, deterministic feature generation,
//!   kernel sweeps, speedup aggregation;
//! * [`report`] — fixed-width table printing and JSON output;
//! * [`profiling`] — `--trace` / `--metrics` wiring (see
//!   `docs/PROFILING.md`); results are inspected with the `gnnone-prof`
//!   binary;
//! * [`verify`] — `--verify` static pre-launch verification wiring (see
//!   `docs/STATIC_ANALYSIS.md`);
//! * [`shard`] — the shard-fault sweep behind `gnnone-prof shard`:
//!   every registry kernel × shard count × shard fault × seed, with
//!   bitwise recovery acceptance against the fault-free unsharded run
//!   (see `docs/ROBUSTNESS.md` §7).
//!
//! ## Device scaling
//!
//! Figures run on [`gnnone_sim::GpuSpec::a100_scaled`]`(4)` — an A100 with
//! a quarter of the SMs and bandwidth but identical per-SM behaviour —
//! because the synthetic datasets are themselves scaled down ~64–1000×
//! from the paper's. This keeps the device in the saturated regime the
//! paper's 100M-edge graphs put the real A100 in. See DESIGN.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod fuse;
pub mod fuzz;
pub mod native;
pub mod profiling;
pub mod report;
pub mod runner;
pub mod serve_bench;
pub mod shard;
pub mod verify;

use gnnone_sim::{GnnOneError, GpuSpec};

/// Device spec used by all figure binaries.
pub fn figure_gpu_spec() -> GpuSpec {
    GpuSpec::a100_scaled(4)
}

/// Wraps a figure binary's fallible body into a process exit code.
///
/// On failure — a structured [`GnnOneError`] *or* an uncaught panic — the
/// binary prints one machine-parseable line
/// (`<name>: error: {"kind": ...}`) to stderr and exits non-zero instead
/// of dying mid-table with a backtrace as its only output.
pub fn figure_main(
    name: &str,
    run: impl FnOnce() -> Result<(), GnnOneError>,
) -> std::process::ExitCode {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
    let error = match outcome {
        Ok(Ok(())) => return std::process::ExitCode::SUCCESS,
        Ok(Err(e)) => e,
        Err(payload) => GnnOneError::Panic {
            context: name.to_string(),
            detail: panic_message(payload),
        },
    };
    eprintln!("{name}: error: {}", error.to_json().to_string_compact());
    std::process::ExitCode::FAILURE
}

/// The message a caught panic carried: its `&str` or `String` payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps an I/O failure to a [`GnnOneError::Io`] with the path attached.
pub fn io_error(path: &str, e: std::io::Error) -> GnnOneError {
    GnnOneError::Io {
        path: path.to_string(),
        detail: e.to_string(),
    }
}

/// Paper-scale vertex threshold past which Sputnik and cuSPARSE SDDMM
/// error out (§5.1: "encountered errors when |V| exceeds … around 2
/// Million").
pub const SDDMM_VERTEX_ERROR_THRESHOLD: u64 = 2_000_000;
