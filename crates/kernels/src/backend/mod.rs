//! Pluggable execution backends for the kernel layer.
//!
//! Every kernel object in this crate describes *what* to compute (a
//! two-stage pipeline instantiation over a captured graph); a [`Backend`]
//! decides *where* it executes:
//!
//! * [`Backend::Sim`] — the cycle-accurate SIMT simulator
//!   ([`gnnone_sim::Gpu`]). Reports simulated cycles and derived
//!   milliseconds; the tracer, metrics registry, sanitizer, and chaos
//!   layers attach here and only here.
//! * [`Backend::Native`] — the multithreaded CPU engine
//!   ([`NativeEngine`]): the same Stage-1/Stage-2 logic as real
//!   rayon-parallel work over CTA-sized blocks with `f32x4`-style chunked
//!   inner loops, timed by wall clock.
//!
//! The two backends share the kernel objects, the operand buffers, and
//! the CPU references as the correctness oracle; `docs/BACKENDS.md` spells
//! out the full contract, including the determinism guarantees and which
//! observability layers attach where.

pub mod native;

use std::str::FromStr;

use gnnone_sim::engine::LaunchError;
use gnnone_sim::{DeviceBuffer, Gpu, KernelReport};

pub use native::{Dst, Mem, NativeEngine, NativeReport, Src};

use crate::traits::{
    EdgeApplyKernel, FusedAttentionKernel, KernelRef, SddmmKernel, SpmmKernel, SpmvKernel,
};

/// Which backend a run targets — the value behind the `--backend` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Cycle-accurate SIMT simulator (the default).
    #[default]
    Sim,
    /// Multithreaded CPU engine with wall-clock timing.
    Native,
}

impl BackendKind {
    /// Canonical lower-case flag value (`"sim"` / `"native"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Ok(BackendKind::Sim),
            "native" => Ok(BackendKind::Native),
            other => Err(format!("unknown backend `{other}` (sim|native)")),
        }
    }
}

/// Backend-agnostic execution report: the fields every backend can
/// produce, plus the backend-specific ones as options.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Kernel name.
    pub name: String,
    /// Backend that produced the report.
    pub backend: BackendKind,
    /// Milliseconds — simulated on `sim`, wall-clock on `native`.
    pub time_ms: f64,
    /// Simulated cycle count (`sim` only).
    pub cycles: Option<u64>,
    /// Worker thread count (`native` only).
    pub threads: Option<usize>,
}

impl ExecReport {
    pub(crate) fn from_sim(r: KernelReport) -> Self {
        Self {
            name: r.name,
            backend: BackendKind::Sim,
            time_ms: r.time_ms,
            cycles: Some(r.cycles),
            threads: None,
        }
    }

    pub(crate) fn from_native(r: NativeReport) -> Self {
        Self {
            name: r.name,
            backend: BackendKind::Native,
            time_ms: r.time_ms,
            cycles: None,
            threads: Some(r.threads),
        }
    }
}

/// A concrete execution backend: the simulator or the native CPU engine.
///
/// Launches go through [`Kernel::launch`] on [`Backend::device`]; the
/// `run_*` methods forward borrowed family trait objects into that one
/// path. Both arms return the unified [`ExecReport`]; sim-only launch
/// failures (grid/memory limits, watchdog aborts) surface unchanged, and
/// native launches never fail.
///
/// [`Kernel::launch`]: crate::traits::Kernel::launch
// One Backend exists per process (never stored in collections), so the
// Gpu/NativeEngine size gap costs nothing; boxing would only add a deref
// to every launch.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// Cycle-accurate simulator backend.
    Sim(Gpu),
    /// Native multithreaded CPU backend.
    Native(NativeEngine),
}

/// Where one launch executes: a simulated GPU or a native engine,
/// borrowed from a [`Backend`] or a shard topology.
/// [`Kernel::launch`](crate::traits::Kernel::launch) is the only place
/// that matches a kernel family against it.
#[derive(Clone, Copy)]
pub enum Device<'a> {
    /// A simulated GPU.
    Sim(&'a Gpu),
    /// A native CPU engine.
    Native(&'a NativeEngine),
}

impl Backend {
    /// This backend's kind tag.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Sim(_) => BackendKind::Sim,
            Backend::Native(_) => BackendKind::Native,
        }
    }

    /// The simulator handle, when this is the sim backend — what the
    /// observability layers (tracer, metrics, sanitizer, chaos) attach to.
    pub fn as_gpu(&self) -> Option<&Gpu> {
        match self {
            Backend::Sim(gpu) => Some(gpu),
            Backend::Native(_) => None,
        }
    }

    /// The device launches on this backend run on.
    pub fn device(&self) -> Device<'_> {
        match self {
            Backend::Sim(gpu) => Device::Sim(gpu),
            Backend::Native(eng) => Device::Native(eng),
        }
    }

    /// Runs one SDDMM launch on this backend.
    pub fn run_sddmm(
        &self,
        kernel: &dyn SddmmKernel,
        x: &DeviceBuffer<f32>,
        y: &DeviceBuffer<f32>,
        f: usize,
        w: &DeviceBuffer<f32>,
    ) -> Result<ExecReport, LaunchError> {
        KernelRef::Sddmm(kernel).launch(self.device(), &[x, y], f, &[w])
    }

    /// Runs one SpMM launch on this backend.
    pub fn run_spmm(
        &self,
        kernel: &dyn SpmmKernel,
        edge_vals: &DeviceBuffer<f32>,
        x: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
    ) -> Result<ExecReport, LaunchError> {
        KernelRef::Spmm(kernel).launch(self.device(), &[edge_vals, x], f, &[y])
    }

    /// Runs one SpMV launch on this backend.
    pub fn run_spmv(
        &self,
        kernel: &dyn SpmvKernel,
        edge_vals: &DeviceBuffer<f32>,
        x: &DeviceBuffer<f32>,
        y: &DeviceBuffer<f32>,
    ) -> Result<ExecReport, LaunchError> {
        KernelRef::Spmv(kernel).launch(self.device(), &[edge_vals, x], 1, &[y])
    }

    /// Runs one edge-apply (`u_add_v`) launch on this backend.
    pub fn run_edge_apply(
        &self,
        kernel: &dyn EdgeApplyKernel,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        w: &DeviceBuffer<f32>,
    ) -> Result<ExecReport, LaunchError> {
        KernelRef::EdgeApply(kernel).launch(self.device(), &[el, er], 1, &[w])
    }

    /// Runs one fused-attention launch on this backend.
    #[allow(clippy::too_many_arguments)]
    pub fn run_fused(
        &self,
        kernel: &dyn FusedAttentionKernel,
        z: &DeviceBuffer<f32>,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
        alpha_out: Option<&DeviceBuffer<f32>>,
    ) -> Result<ExecReport, LaunchError> {
        let launch = |outputs: &[&DeviceBuffer<f32>]| {
            KernelRef::Fused(kernel).launch(self.device(), &[z, el, er], f, outputs)
        };
        match alpha_out {
            Some(alpha) => launch(&[y, alpha]),
            None => launch(&[y]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_round_trips() {
        for kind in [BackendKind::Sim, BackendKind::Native] {
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("cuda".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Sim);
        assert_eq!(
            "NATIVE".parse::<BackendKind>().unwrap(),
            BackendKind::Native
        );
    }
}
