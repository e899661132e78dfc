//! IR-derived access summaries for the static verifier.
//!
//! The static verifier (`analysis::verify_kernel`) consumes symbolic
//! [`AccessSummary`] descriptions of every launch. For IR-lowered plans
//! those summaries are *derived from the lowered steps* rather than
//! hand-written per model variant: each launch [`Step`] maps to the
//! summary of the pipeline it lowers to, under the same config the
//! executor launches with. Host fallback steps touch no device memory
//! and contribute no summary.

use std::sync::Arc;

use super::lower::{Plan, Step};
use crate::analysis::{summaries, AccessSummary, ExecModel};
use crate::gnnone::config::{GnnOneConfig, Schedule};
use crate::gnnone::fused::LOGIT_CACHE;
use crate::gnnone::{GnnOneSddmm, GnnOneSpmm};
use crate::graph::GraphData;
use crate::traits::{Op, SddmmKernel, SpmmKernel};

/// The summary of one lowered step under `model` at feature length `f`,
/// or `None` for host fallback steps (no device launch to verify).
pub fn step_summary(
    step: &Step,
    graph: &Arc<GraphData>,
    f: usize,
    model: ExecModel,
) -> Option<AccessSummary> {
    match step {
        Step::FusedGat { .. } => Some(match model {
            ExecModel::Sim => summaries::fused_gat("FusedGAT", graph, f, LOGIT_CACHE as u64),
            ExecModel::Native => summaries::native_fused_gat("FusedGAT", graph, f),
        }),
        Step::UAddV { .. } => {
            let cfg = GnnOneConfig {
                cache_size: 128,
                schedule: Schedule::RoundRobin,
                vectorize: false,
                data_reuse: true,
            };
            Some(match model {
                ExecModel::Sim => summaries::gnnone_uaddv("GnnOne-UAddV", graph, &cfg),
                ExecModel::Native => summaries::native_edge_out(
                    "GnnOne-UAddV",
                    Op::EdgeApply.as_str(),
                    graph,
                    &GnnOneConfig::default(),
                    1,
                    summaries::uaddv_reads(),
                ),
            })
        }
        Step::Sddmm { .. } => {
            GnnOneSddmm::new(Arc::clone(graph), GnnOneConfig::default()).access_summary(f, model)
        }
        Step::Spmm { .. } | Step::SpmmOnes { .. } => {
            GnnOneSpmm::new(Arc::clone(graph), GnnOneConfig::default()).access_summary(f, model)
        }
        _ => None,
    }
}

/// Summaries for every launch step of `plan`, in step order.
pub fn plan_summaries(
    plan: &Plan,
    graph: &Arc<GraphData>,
    f: usize,
    model: ExecModel,
) -> Vec<AccessSummary> {
    plan.steps
        .iter()
        .filter_map(|s| step_summary(s, graph, f, model))
        .collect()
}
