//! Static kernel verifier: symbolic access-summary analysis over the
//! registry.
//!
//! Every registry kernel exposes a [`AccessSummary`] — its Stage-1 /
//! Stage-2 read and write sets as interval expressions over the launch
//! parameters (`nnz`, `rows`, `f`, `CACHE_SIZE`, grid geometry) — via
//! the `access_summary` method on the kernel traits. The
//! abstract-interpretation pass in [`check`] instantiates a summary at a
//! concrete lattice point and decides four obligations:
//!
//! 1. cross-warp/cross-CTA write-set disjointness (race freedom),
//! 2. bounds safety for every declared buffer,
//! 3. barrier/epoch consistency of the shared-memory phase script,
//! 4. watchdog-budget feasibility against the derived
//!    [`gnnone_sim::LaunchSpec`] budget.
//!
//! Verdicts are three-valued ([`Verdict::Proved`] / [`Verdict::Refuted`]
//! with a concrete [`Witness`] / [`Verdict::Unknown`]) and
//! jsonio-serializable. The [`seeded`] corpus differentially validates
//! the pass: every deliberately broken kernel must be statically refuted
//! *and* dynamically caught by the sanitizer or watchdog.
//!
//! Because the schedule policy ([`crate::gnnone::Schedule`]) only
//! permutes NZEs *within* a warp's own cached window (Listing 2's
//! `e_local` is local to the span), the per-warp write windows are
//! schedule-invariant: one summary covers every point of the config
//! lattice.

pub mod check;
pub mod seeded;
pub mod summaries;
pub mod summary;
pub mod sym;

pub use check::{check_summary, Verdict, Witness};
pub use summary::{
    base_env, AccessSummary, BufferAccess, ExecModel, LaunchSummary, Mode, Pattern, SharedStep,
};
pub use sym::{Env, Param, Sym};

use std::sync::Arc;

use gnnone_sim::jsonio::Json;

use crate::gnnone::{GnnOneConfig, GnnOneSddmm, GnnOneSpmm, Schedule};
use crate::graph::GraphData;
use crate::registry;
use crate::traits::{SddmmKernel, SpmmKernel};

/// One kernel × model verdict, as produced by [`verify_graph`].
#[derive(Debug, Clone)]
pub struct KernelVerdict {
    /// Kernel display name (registry spelling).
    pub kernel: String,
    /// Operation family.
    pub op: &'static str,
    /// Execution model checked.
    pub model: ExecModel,
    /// The checker's decision.
    pub verdict: Verdict,
}

impl KernelVerdict {
    /// The verdict recorded for a kernel with no registered summary — a
    /// coverage gap, reported as [`Verdict::Unknown`] so the registry-wide
    /// gate (all-`Proved`) fails on it.
    pub fn missing(kernel: impl Into<String>, op: &'static str, model: ExecModel) -> Self {
        Self {
            kernel: kernel.into(),
            op,
            model,
            verdict: Verdict::Unknown {
                reason: "no access summary registered (coverage gap)".to_string(),
            },
        }
    }

    /// JSON form (jsonio).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("op", Json::Str(self.op.to_string())),
            ("model", Json::Str(self.model.as_str().to_string())),
            ("result", self.verdict.to_json()),
        ])
    }
}

/// The 24-point configuration lattice the verifier (and the sanitize
/// sweep) iterate: cache size × schedule × vectorize × data-reuse.
pub fn config_lattice() -> Vec<GnnOneConfig> {
    let mut points = Vec::with_capacity(24);
    for cache_size in [32, 64, 128] {
        for schedule in [Schedule::Consecutive, Schedule::RoundRobin] {
            for vectorize in [false, true] {
                for data_reuse in [false, true] {
                    points.push(GnnOneConfig {
                        cache_size,
                        schedule,
                        vectorize,
                        data_reuse,
                    });
                }
            }
        }
    }
    points
}

fn checked(
    kernel: &str,
    op: &'static str,
    model: ExecModel,
    summary: Option<AccessSummary>,
) -> KernelVerdict {
    match summary {
        Some(s) => KernelVerdict {
            kernel: kernel.to_string(),
            op,
            model,
            verdict: check_summary(&s),
        },
        None => KernelVerdict::missing(kernel, op, model),
    }
}

/// Verifies every registry kernel (all 21 of [`registry::all`]: 6 SDDMM +
/// 6 SpMM + 3 discussion SpMM + 1 format study + 3 SpMV classes +
/// 1 edge-apply + 1 fused) against `graph` under one execution model. The edge-apply
/// and fused entries are the IR-lowered instances ([`crate::ir`]), so
/// this sweep also gates every IR-lowered launch. A kernel without a
/// summary yields an `Unknown` coverage-gap verdict, so "all proved"
/// doubles as the coverage gate.
pub fn verify_graph(graph: &Arc<GraphData>, f: usize, model: ExecModel) -> Vec<KernelVerdict> {
    registry::all(graph)
        .iter()
        .map(|k| checked(k.name(), k.op().as_str(), model, k.access_summary(f, model)))
        .collect()
}

/// Verifies the configurable GNNOne kernels at every point of the
/// 24-point lattice (both execution models), returning one verdict per
/// kernel × config × model. The fixed-config kernels are covered by
/// [`verify_graph`]; this sweep proves the tuning knobs can never buy a
/// race, an OOB access, or a watchdog abort.
pub fn verify_lattice(graph: &Arc<GraphData>, f: usize) -> Vec<(GnnOneConfig, KernelVerdict)> {
    let mut out = Vec::new();
    for cfg in config_lattice() {
        for model in [ExecModel::Sim, ExecModel::Native] {
            let sddmm = GnnOneSddmm::new(Arc::clone(graph), cfg);
            out.push((
                cfg,
                checked(sddmm.name(), "sddmm", model, sddmm.access_summary(f, model)),
            ));
            let spmm = GnnOneSpmm::new(Arc::clone(graph), cfg);
            out.push((
                cfg,
                checked(spmm.name(), "spmm", model, spmm.access_summary(f, model)),
            ));
        }
    }
    out
}

/// Renders a verdict list as a jsonio array (one object per kernel).
pub fn verdicts_to_json(verdicts: &[KernelVerdict]) -> Json {
    Json::Arr(verdicts.iter().map(KernelVerdict::to_json).collect())
}
