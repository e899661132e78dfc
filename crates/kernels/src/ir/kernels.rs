//! IR-derived registry kernels.
//!
//! [`IrFusedGat`] and [`IrUAddV`] are constructed *from* lowered IR plans:
//! `new` builds the prebuilt chain, runs [`lower`](super::lower()), and
//! asserts the pattern matcher produced exactly the expected single-launch
//! plan — the launch parameters (slope, operand roles) are read back out
//! of the lowered [`Step`], not hard-coded. The registry instantiates
//! these in place of the hand-built kernels, so every sanitizer, chaos,
//! verify and bench sweep exercises IR-lowered launches. Byte-for-byte
//! parity with the hand-built `FusedGatAttention`/`GnnOneUAddV` is pinned
//! by `tests/fusion_ir.rs` and the `fusion-parity` CI job.

use std::sync::Arc;

use gnnone_sim::{engine::LaunchError, DeviceBuffer, Gpu, KernelReport};

use super::lower::{lower, LowerOptions, Step};
use super::{gat_attention_graph, u_add_v_graph};
use crate::analysis::{summaries, AccessSummary, ExecModel};
use crate::backend::native::{Dst, Src};
use crate::geometry::GroupGeometry;
use crate::gnnone::config::{GnnOneConfig, Schedule};
use crate::gnnone::fused::{RowSoftmaxGat, LOGIT_CACHE};
use crate::gnnone::pipeline::{CooNzes, CsrRows, TwoStagePipeline};
use crate::gnnone::reduce::ScalarGather;
use crate::graph::GraphData;
use crate::traits::{EdgeApplyKernel, FusedAttentionKernel, Op};

/// The GAT attention chain, lowered from IR into the single
/// `CsrRows × RowSoftmaxGat` launch.
pub struct IrFusedGat {
    graph: Arc<GraphData>,
    /// LeakyReLU negative slope, recovered from the lowered plan.
    pub slope: f32,
}

impl IrFusedGat {
    /// Builds `u_add_v → leaky_relu → edge_softmax → u_mul_e →
    /// aggregate_sum`, lowers it, and keeps the fused launch's
    /// parameters.
    ///
    /// Panics if the lowering pass fails to produce exactly one fused
    /// step — that would mean the pattern matcher regressed, which the
    /// registry must not survive silently.
    pub fn new(graph: Arc<GraphData>, slope: f32) -> Self {
        let ir = gat_attention_graph(slope);
        let plan = lower(&ir, LowerOptions::default())
            .unwrap_or_else(|e| panic!("gat_attention IR failed to verify: {e}"));
        assert_eq!(
            plan.steps.len(),
            1,
            "gat_attention chain must lower to a single step, got {:?}",
            plan.steps
        );
        let Step::FusedGat {
            slope: lowered_slope,
            alpha,
            ..
        } = plan.steps[0]
        else {
            panic!(
                "gat_attention chain must lower to FusedGat, got {:?}",
                plan.steps
            );
        };
        assert!(alpha.is_some(), "α output must survive lowering");
        Self {
            graph,
            slope: lowered_slope,
        }
    }

    /// Runs the lowered fused launch; same contract as
    /// [`FusedGatAttention::run`](crate::gnnone::FusedGatAttention::run).
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
        // The lowering target: identical pipeline instantiation to the
        // hand-built kernel (pinned byte-for-byte by tests/fusion_ir.rs).
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

impl FusedAttentionKernel for IrFusedGat {
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
        IrFusedGat::run(self, gpu, z, el, er, f, y, alpha_out)
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

/// The bare `u_add_v` chain, lowered from IR into the single
/// `CooNzes × ScalarGather` launch.
pub struct IrUAddV {
    graph: Arc<GraphData>,
}

impl IrUAddV {
    /// Builds the `u_add_v` graph, lowers it, and asserts the plan is the
    /// expected single `ScalarGather` launch.
    pub fn new(graph: Arc<GraphData>) -> Self {
        let ir = u_add_v_graph();
        let plan = lower(&ir, LowerOptions::default())
            .unwrap_or_else(|e| panic!("u_add_v IR failed to verify: {e}"));
        assert!(
            matches!(plan.steps.as_slice(), [Step::UAddV { .. }]),
            "u_add_v chain must lower to a single ScalarGather launch, got {:?}",
            plan.steps
        );
        Self { graph }
    }

    /// Runs the lowered launch: `w[e] = el[row(e)] + er[col(e)]`.
    pub fn run(
        &self,
        gpu: &Gpu,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        w: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError> {
        // Identical instantiation to the hand-built GnnOneUAddV (pinned
        // by tests/fusion_ir.rs): round-robin over 32 single-lane groups.
        let cfg = GnnOneConfig {
            cache_size: 128,
            schedule: Schedule::RoundRobin,
            vectorize: false,
            data_reuse: true,
        };
        let pipeline = TwoStagePipeline::new(
            CooNzes::new(
                &self.graph.d_coo_rows,
                &self.graph.d_coo_cols,
                self.graph.nnz(),
            ),
            ScalarGather { el, er, w },
            1,
            GroupGeometry::scalar(),
            cfg,
            "GnnOne-u_add_v",
        );
        gpu.try_launch(&pipeline)
    }
}

impl EdgeApplyKernel for IrUAddV {
    fn graph(&self) -> &GraphData {
        &self.graph
    }

    fn name(&self) -> &'static str {
        "GnnOne-UAddV"
    }

    fn format(&self) -> &'static str {
        "COO"
    }

    fn run(
        &self,
        gpu: &Gpu,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        w: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError> {
        IrUAddV::run(self, gpu, el, er, w)
    }

    fn access_summary(&self, model: ExecModel) -> Option<AccessSummary> {
        let cfg = GnnOneConfig {
            cache_size: 128,
            schedule: Schedule::RoundRobin,
            vectorize: false,
            data_reuse: true,
        };
        Some(match model {
            ExecModel::Sim => summaries::gnnone_uaddv(self.name(), &self.graph, &cfg),
            ExecModel::Native => summaries::native_edge_out(
                self.name(),
                Op::EdgeApply.as_str(),
                &self.graph,
                &GnnOneConfig::default(),
                1,
                summaries::uaddv_reads(),
            ),
        })
    }
}
