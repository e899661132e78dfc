//! Kernel object interfaces driven by the benchmark harness and the GNN
//! training stack.
//!
//! Implementations capture their graph (and any custom-format metadata
//! built by pre-processing) at construction; `run` then executes one kernel
//! launch for a given feature length. Pre-processing cost is therefore a
//! one-time cost outside the timed launch, matching how the paper treats
//! custom formats (§5.4.5).
//!
//! Every trait is **backend-portable**: `run` executes on the simulator
//! over device buffers, `run_native` executes the same operands on the
//! native CPU engine ([`NativeEngine`]) as host slices or in place on
//! device buffers ([`Src`]/[`Dst`]), and `graph`
//! exposes the captured graph tensors so a backend can schedule the
//! launch itself. `run_native` has a provided implementation that routes
//! to the shared native routines in [`crate::backend::native`] (picking
//! the edge- or row-parallel path from the kernel's declared format);
//! kernels with their own schedule knobs (the GNNOne family) override it
//! to honour their config.
//!
//! The five family traits differ only in their operands. [`Kernel`] tags
//! a boxed kernel with its family ([`Op`]), describes those operands as
//! IR `(Space, Dim)` pairs ([`Signature`]), and owns the one launch path
//! in two operand forms: [`Kernel::launch`] over device buffers and
//! [`Kernel::launch_host`] over host slices. They are the only place that
//! matches a kernel family against a backend, and the only place a native
//! launch copies a device buffer to a host vector.

use gnnone_sim::{engine::LaunchError, DeviceBuffer, Gpu, KernelReport};

use crate::analysis::{summaries, AccessSummary, ExecModel};
use crate::backend::native::{self, Dst, Mem, NativeEngine, NativeReport, Src};
use crate::backend::{Device, ExecReport};
use crate::graph::GraphData;
use crate::ir::{Dim, Space};

/// A kernel family: which of the five operand signatures it launches with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// [`SddmmKernel`]: `w ← A ⊙ (X·Yᵀ)`.
    Sddmm,
    /// [`SpmmKernel`]: `y ← A·x` with per-NZE edge values.
    Spmm,
    /// [`SpmvKernel`]: `y ← A·x` with scalar features.
    Spmv,
    /// [`EdgeApplyKernel`]: `w[e] ← el[row] + er[col]`.
    EdgeApply,
    /// [`FusedAttentionKernel`]: logits, edge softmax and aggregation.
    Fused,
}

/// One operand: the index space it is laid out over and its row width.
pub type Operand = (Space, Dim);

const V_F: Operand = (Space::Vertex, Dim::F);
const V_1: Operand = (Space::Vertex, Dim::One);
const E_1: Operand = (Space::Edge, Dim::One);

/// A family's operands in launch order. Every family has one required
/// output; the fused kernel's second output (the attention coefficients
/// α) is optional.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Operands the kernel reads.
    pub inputs: &'static [Operand],
    /// Operands the kernel writes. Vertex outputs are row reductions that
    /// accumulate into what the caller passes (zeros, for a plain launch);
    /// edge outputs are overwritten whole.
    pub outputs: &'static [Operand],
}

impl Op {
    /// Stable lowercase label used in reports and `BENCH_NATIVE.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Sddmm => "sddmm",
            Op::Spmm => "spmm",
            Op::Spmv => "spmv",
            Op::EdgeApply => "edge_apply",
            Op::Fused => "fused",
        }
    }

    /// The input a native routine gathers by column with vector loads
    /// (SDDMM `y`, SpMM `x`, fused `z`), if the family has one. It is the
    /// one operand a native launch over device buffers copies to the
    /// host; the others are streamed in place.
    pub fn gathered(self) -> Option<usize> {
        match self {
            Op::Sddmm | Op::Spmm => Some(1),
            Op::Fused => Some(0),
            Op::Spmv | Op::EdgeApply => None,
        }
    }

    /// The family's operands: SDDMM reads `[V×F, V×F]` and writes
    /// `[E×1]`; SpMM reads `[E×1, V×F]` and writes `[V×F]`; SpMV reads
    /// `[E×1, V×1]` and writes `[V×1]`; edge-apply reads `[V×1, V×1]` and
    /// writes `[E×1]`; fused reads `[V×F, V×1, V×1]` and writes
    /// `[V×F, E×1]`.
    pub fn signature(self) -> Signature {
        let (inputs, outputs): (&'static [Operand], &'static [Operand]) = match self {
            Op::Sddmm => (&[V_F, V_F], &[E_1]),
            Op::Spmm => (&[E_1, V_F], &[V_F]),
            Op::Spmv => (&[E_1, V_1], &[V_1]),
            Op::EdgeApply => (&[V_1, V_1], &[E_1]),
            Op::Fused => (&[V_F, V_1, V_1], &[V_F, E_1]),
        };
        Signature { inputs, outputs }
    }
}

/// Any registry kernel, tagged by family.
pub enum Kernel {
    /// An SDDMM kernel.
    Sddmm(Box<dyn SddmmKernel>),
    /// An SpMM kernel.
    Spmm(Box<dyn SpmmKernel>),
    /// An SpMV kernel.
    Spmv(Box<dyn SpmvKernel>),
    /// An edge-apply kernel.
    EdgeApply(Box<dyn EdgeApplyKernel>),
    /// A fused-attention kernel.
    Fused(Box<dyn FusedAttentionKernel>),
}

/// A borrowed [`Kernel`]: what the launch path dispatches on, so the
/// borrowed trait objects `Backend::run_*` receive launch through it too.
#[derive(Clone, Copy)]
pub(crate) enum KernelRef<'a> {
    Sddmm(&'a dyn SddmmKernel),
    Spmm(&'a dyn SpmmKernel),
    Spmv(&'a dyn SpmvKernel),
    EdgeApply(&'a dyn EdgeApplyKernel),
    Fused(&'a dyn FusedAttentionKernel),
}

/// Evaluates `$body` with `$k` bound to whichever family trait object
/// `$kernel` holds.
macro_rules! each_family {
    ($kernel:expr, $k:ident => $body:expr) => {
        match $kernel {
            Kernel::Sddmm($k) => $body,
            Kernel::Spmm($k) => $body,
            Kernel::Spmv($k) => $body,
            Kernel::EdgeApply($k) => $body,
            Kernel::Fused($k) => $body,
        }
    };
}

impl Kernel {
    /// System name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        each_family!(self, k => k.name())
    }

    /// Storage format consumed ("COO", "CSR", "custom").
    pub fn format(&self) -> &'static str {
        each_family!(self, k => k.format())
    }

    /// Graph tensors the kernel was constructed over.
    fn graph(&self) -> &GraphData {
        each_family!(self, k => k.graph())
    }

    /// Whether `name` is this kernel's name, ignoring ASCII case — the
    /// match every registry lookup and `--kernels` filter uses.
    pub fn is_named(&self, name: &str) -> bool {
        self.name().eq_ignore_ascii_case(name)
    }

    /// The kernel's family.
    pub fn op(&self) -> Op {
        self.borrowed().op()
    }

    /// Input and output operands, in launch order.
    pub fn signature(&self) -> Signature {
        self.op().signature()
    }

    /// Element counts of the signature's outputs, in order, over the
    /// graph the kernel was built on (a shard graph holds only the
    /// shard's edges, over its local vertex space).
    pub fn output_lens(&self, f: usize) -> impl Iterator<Item = usize> + '_ {
        let graph = self.graph();
        self.signature()
            .outputs
            .iter()
            .map(move |&(space, dim)| space.rows(graph) * dim.len(f))
    }

    /// Symbolic access summary under one execution model at feature
    /// length `f` (ignored by the scalar families), or `None` when the
    /// kernel has none registered.
    pub fn access_summary(&self, f: usize, model: ExecModel) -> Option<AccessSummary> {
        match self {
            Kernel::Sddmm(k) => k.access_summary(f, model),
            Kernel::Spmm(k) => k.access_summary(f, model),
            Kernel::Spmv(k) => k.access_summary(model),
            Kernel::EdgeApply(k) => k.access_summary(model),
            Kernel::Fused(k) => k.access_summary(f, model),
        }
    }

    /// Launches the kernel on `device`: `inputs` and `outputs` follow
    /// [`Self::signature`] (outputs zeroed by the caller; the fused α may
    /// be left out). `f` is the feature length of the `F`-wide operands.
    pub fn launch(
        &self,
        device: Device<'_>,
        inputs: &[&DeviceBuffer<f32>],
        f: usize,
        outputs: &[&DeviceBuffer<f32>],
    ) -> Result<ExecReport, LaunchError> {
        self.borrowed().launch(device, inputs, f, outputs)
    }

    /// [`Self::launch`] over host operands: runs in place on a native
    /// engine, and uploads the operands to (and downloads the outputs
    /// from) device buffers on the simulator. Outputs follow the same
    /// contract as device-buffer outputs.
    pub fn launch_host(
        &self,
        device: Device<'_>,
        inputs: &[&[f32]],
        f: usize,
        outputs: &mut [&mut [f32]],
    ) -> Result<ExecReport, LaunchError> {
        self.borrowed().launch_host(device, inputs, f, outputs)
    }

    fn borrowed(&self) -> KernelRef<'_> {
        match self {
            Kernel::Sddmm(k) => KernelRef::Sddmm(k.as_ref()),
            Kernel::Spmm(k) => KernelRef::Spmm(k.as_ref()),
            Kernel::Spmv(k) => KernelRef::Spmv(k.as_ref()),
            Kernel::EdgeApply(k) => KernelRef::EdgeApply(k.as_ref()),
            Kernel::Fused(k) => KernelRef::Fused(k.as_ref()),
        }
    }
}

impl KernelRef<'_> {
    fn op(self) -> Op {
        match self {
            KernelRef::Sddmm(_) => Op::Sddmm,
            KernelRef::Spmm(_) => Op::Spmm,
            KernelRef::Spmv(_) => Op::Spmv,
            KernelRef::EdgeApply(_) => Op::EdgeApply,
            KernelRef::Fused(_) => Op::Fused,
        }
    }

    /// Panics unless the operand counts fit the family's signature (the
    /// fused α output is optional).
    fn check_arity(self, inputs: usize, outputs: usize) {
        let sig = self.op().signature();
        assert!(
            inputs == sig.inputs.len() && outputs > 0 && outputs <= sig.outputs.len(),
            "{} launch takes {} inputs and up to {} outputs, got {inputs} and {outputs}",
            self.op().as_str(),
            sig.inputs.len(),
            sig.outputs.len(),
        );
    }

    /// The family's simulator launch.
    fn run_sim(
        self,
        gpu: &Gpu,
        i: &[&DeviceBuffer<f32>],
        f: usize,
        o: &[&DeviceBuffer<f32>],
    ) -> Result<KernelReport, LaunchError> {
        let alpha = o.get(1).copied();
        match self {
            KernelRef::Sddmm(k) => k.run(gpu, i[0], i[1], f, o[0]),
            KernelRef::Spmm(k) => k.run(gpu, i[0], i[1], f, o[0]),
            KernelRef::Spmv(k) => k.run(gpu, i[0], i[1], o[0]),
            KernelRef::EdgeApply(k) => k.run(gpu, i[0], i[1], o[0]),
            KernelRef::Fused(k) => k.run(gpu, i[0], i[1], i[2], f, o[0], alpha),
        }
    }

    /// The family's native launch. The [`Op::gathered`] input must be on
    /// the host.
    fn run_native(
        self,
        eng: &NativeEngine,
        i: &[Src<'_>],
        f: usize,
        o: Vec<Dst<'_>>,
    ) -> Result<NativeReport, LaunchError> {
        fn host(src: Src<'_>) -> &[f32] {
            match src {
                Mem::Host(h) => h,
                Mem::Device(_) => unreachable!("the gathered operand is staged before launch"),
            }
        }
        let mut o = o.into_iter();
        let out = o.next().expect("arity checked");
        let alpha = o.next();
        match self {
            KernelRef::Sddmm(k) => k.run_native(eng, i[0], host(i[1]), f, out),
            KernelRef::Spmm(k) => k.run_native(eng, i[0], host(i[1]), f, out),
            KernelRef::Spmv(k) => k.run_native(eng, i[0], i[1], out),
            KernelRef::EdgeApply(k) => k.run_native(eng, i[0], i[1], out),
            KernelRef::Fused(k) => k.run_native(eng, host(i[0]), i[1], i[2], f, out, alpha),
        }
    }

    /// The one launch path over device buffers; see [`Kernel::launch`].
    pub(crate) fn launch(
        self,
        device: Device<'_>,
        i: &[&DeviceBuffer<f32>],
        f: usize,
        o: &[&DeviceBuffer<f32>],
    ) -> Result<ExecReport, LaunchError> {
        self.check_arity(i.len(), o.len());
        match device {
            Device::Sim(gpu) => self.run_sim(gpu, i, f, o).map(ExecReport::from_sim),
            Device::Native(eng) => {
                // The only place a native launch stages a device buffer:
                // the gathered input, which the routine reads with vector
                // loads that a device view cannot give, and any input that
                // is also an output, so the kernel reads it as it was
                // before the launch. Every other operand is read and
                // written in place.
                let gathered = self.op().gathered();
                let staged: Vec<Option<Vec<f32>>> = i
                    .iter()
                    .enumerate()
                    .map(|(k, b)| {
                        let aliased = o.iter().any(|out| out.addr_base() == b.addr_base());
                        (gathered == Some(k) || aliased).then(|| b.to_vec())
                    })
                    .collect();
                let inputs: Vec<Src<'_>> = i
                    .iter()
                    .zip(&staged)
                    .map(|(b, host)| match host {
                        Some(h) => Mem::Host(h.as_slice()),
                        None => Mem::Device(b.view()),
                    })
                    .collect();
                let outputs = o.iter().map(|b| Mem::Device(b.view())).collect();
                self.run_native(eng, &inputs, f, outputs)
                    .map(ExecReport::from_native)
            }
        }
    }

    /// The one launch path over host operands; see [`Kernel::launch_host`].
    pub(crate) fn launch_host(
        self,
        device: Device<'_>,
        i: &[&[f32]],
        f: usize,
        o: &mut [&mut [f32]],
    ) -> Result<ExecReport, LaunchError> {
        self.check_arity(i.len(), o.len());
        match device {
            Device::Native(eng) => {
                let inputs: Vec<Src<'_>> = i.iter().map(|&h| Mem::Host(h)).collect();
                let outputs = o.iter_mut().map(|h| Mem::Host(&mut **h)).collect();
                self.run_native(eng, &inputs, f, outputs)
                    .map(ExecReport::from_native)
            }
            Device::Sim(gpu) => {
                let inputs: Vec<DeviceBuffer<f32>> =
                    i.iter().map(|h| DeviceBuffer::from_slice(h)).collect();
                let outputs: Vec<DeviceBuffer<f32>> =
                    o.iter().map(|h| DeviceBuffer::from_slice(h)).collect();
                let report = self.run_sim(
                    gpu,
                    &inputs.iter().collect::<Vec<_>>(),
                    f,
                    &outputs.iter().collect::<Vec<_>>(),
                )?;
                for (host, b) in o.iter_mut().zip(&outputs) {
                    host.copy_from_slice(&b.to_vec());
                }
                Ok(ExecReport::from_sim(report))
            }
        }
    }
}

/// SpMM: `y ← A·x` with per-NZE edge values.
pub trait SpmmKernel: Send + Sync {
    /// System name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Storage format consumed ("COO", "CSR", "custom").
    fn format(&self) -> &'static str;

    /// Graph tensors the kernel was constructed over — what a backend
    /// schedules the launch against.
    fn graph(&self) -> &GraphData;

    /// Launches the kernel: reads `edge_vals` (`|E|`), `x`
    /// (`|V| × f` row-major), accumulates into `y` (`|V| × f`, must be
    /// zeroed by the caller).
    fn run(
        &self,
        gpu: &Gpu,
        edge_vals: &DeviceBuffer<f32>,
        x: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError>;

    /// Executes the same launch on the native CPU backend: row-split
    /// over nnz-balanced row blocks, bit-identical across thread counts.
    /// `x` is gathered by column, so it is always a host slice.
    fn run_native(
        &self,
        eng: &NativeEngine,
        edge_vals: Src<'_>,
        x: &[f32],
        f: usize,
        y: Dst<'_>,
    ) -> Result<NativeReport, LaunchError> {
        Ok(native::spmm_rows(
            eng,
            self.graph(),
            &crate::gnnone::GnnOneConfig::default(),
            edge_vals,
            x,
            f,
            y,
            self.name(),
        ))
    }

    /// Symbolic access summary under one execution model, or `None` when
    /// the kernel has none registered (the registry-wide verify gate turns
    /// that into a coverage failure). The provided implementation mirrors
    /// the provided `run_native` — the native row-split path under the
    /// default config — so kernels overriding `run_native` must override
    /// this too; the sim-model summary is always kernel-specific.
    fn access_summary(&self, f: usize, model: ExecModel) -> Option<AccessSummary> {
        match model {
            ExecModel::Sim => self.sim_access_summary(f),
            ExecModel::Native => Some(summaries::native_row_out(
                self.name(),
                "spmm",
                self.graph(),
                &crate::gnnone::GnnOneConfig::default(),
                f,
                summaries::spmm_reads(),
            )),
        }
    }

    /// Simulator-model hook for [`Self::access_summary`]: kernels whose
    /// simulator launch differs from the shared native partition override
    /// only this method and keep the provided native summary.
    fn sim_access_summary(&self, f: usize) -> Option<AccessSummary> {
        let _ = f;
        None
    }
}

/// SDDMM: `w ← A ⊙ (X·Yᵀ)`.
pub trait SddmmKernel: Send + Sync {
    /// System name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Storage format consumed.
    fn format(&self) -> &'static str;

    /// Graph tensors the kernel was constructed over.
    fn graph(&self) -> &GraphData;

    /// Launches the kernel: reads `x` and `y` (`|V| × f` row-major),
    /// writes `w` (`|E|`).
    fn run(
        &self,
        gpu: &Gpu,
        x: &DeviceBuffer<f32>,
        y: &DeviceBuffer<f32>,
        f: usize,
        w: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError>;

    /// Executes the same launch on the native CPU backend. COO kernels
    /// take the edge-parallel path; CSR/custom (vertex-parallel) kernels
    /// take the row-parallel path, matching their launch geometry. `y` is
    /// gathered by column, so it is always a host slice.
    fn run_native(
        &self,
        eng: &NativeEngine,
        x: Src<'_>,
        y: &[f32],
        f: usize,
        w: Dst<'_>,
    ) -> Result<NativeReport, LaunchError> {
        Ok(if self.format() == "COO" {
            native::sddmm_edges(
                eng,
                self.graph(),
                &crate::gnnone::GnnOneConfig::default(),
                x,
                y,
                f,
                w,
                self.name(),
            )
        } else {
            native::sddmm_rows(eng, self.graph(), x, y, f, w, self.name())
        })
    }

    /// Symbolic access summary under one execution model, or `None` when
    /// the kernel has none registered. The provided implementation mirrors
    /// the provided `run_native` format branch under the default config.
    fn access_summary(&self, f: usize, model: ExecModel) -> Option<AccessSummary> {
        match model {
            ExecModel::Sim => self.sim_access_summary(f),
            ExecModel::Native => Some(if self.format() == "COO" {
                summaries::native_edge_out(
                    self.name(),
                    "sddmm",
                    self.graph(),
                    &crate::gnnone::GnnOneConfig::default(),
                    f,
                    summaries::sddmm_edge_reads(),
                )
            } else {
                summaries::native_sddmm_rows(
                    self.name(),
                    self.graph(),
                    &crate::gnnone::GnnOneConfig::default(),
                    f,
                )
            }),
        }
    }

    /// Simulator-model hook for [`Self::access_summary`]: kernels whose
    /// simulator launch differs from the shared native partition override
    /// only this method and keep the provided native summary.
    fn sim_access_summary(&self, f: usize) -> Option<AccessSummary> {
        let _ = f;
        None
    }
}

/// Edge-apply SDDMM variants (§4.3): per-NZE outputs computed from scalar
/// per-vertex operands, e.g. GAT's `u_add_v` attention logits.
pub trait EdgeApplyKernel: Send + Sync {
    /// System name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Storage format consumed.
    fn format(&self) -> &'static str;

    /// Graph tensors the kernel was constructed over.
    fn graph(&self) -> &GraphData;

    /// Launches the kernel: reads `el` and `er` (`|V|`), writes `w`
    /// (`|E|`).
    fn run(
        &self,
        gpu: &Gpu,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        w: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError>;

    /// Executes the same launch on the native CPU backend
    /// (edge-parallel over contiguous NZE blocks).
    fn run_native(
        &self,
        eng: &NativeEngine,
        el: Src<'_>,
        er: Src<'_>,
        w: Dst<'_>,
    ) -> Result<NativeReport, LaunchError> {
        Ok(native::u_add_v_edges(
            eng,
            self.graph(),
            el,
            er,
            w,
            self.name(),
        ))
    }

    /// Symbolic access summary under one execution model (scalar operands,
    /// so no feature-length argument), or `None` when the kernel has none
    /// registered. The provided implementation mirrors the provided
    /// `run_native` edge-parallel path.
    fn access_summary(&self, model: ExecModel) -> Option<AccessSummary> {
        match model {
            ExecModel::Sim => self.sim_access_summary(),
            ExecModel::Native => Some(summaries::native_edge_out(
                self.name(),
                Op::EdgeApply.as_str(),
                self.graph(),
                &crate::gnnone::GnnOneConfig::default(),
                1,
                summaries::uaddv_reads(),
            )),
        }
    }

    /// Simulator-model hook for [`Self::access_summary`].
    fn sim_access_summary(&self) -> Option<AccessSummary> {
        None
    }
}

/// Fused attention: logits + edge softmax + attended aggregation in one
/// launch (§5.3.2's future-work direction).
pub trait FusedAttentionKernel: Send + Sync {
    /// System name.
    fn name(&self) -> &'static str;

    /// Storage format consumed.
    fn format(&self) -> &'static str;

    /// Graph tensors the kernel was constructed over.
    fn graph(&self) -> &GraphData;

    /// Launches the kernel: reads `z` (`|V| × f`), `el`/`er` (`|V|`),
    /// writes `y` (`|V| × f`, zeroed by the caller) and optionally the
    /// attention coefficients `alpha_out` (`|E|`).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        gpu: &Gpu,
        z: &DeviceBuffer<f32>,
        el: &DeviceBuffer<f32>,
        er: &DeviceBuffer<f32>,
        f: usize,
        y: &DeviceBuffer<f32>,
        alpha_out: Option<&DeviceBuffer<f32>>,
    ) -> Result<KernelReport, LaunchError>;

    /// Executes the same launch on the native CPU backend; `z` is
    /// gathered by column, so it is always a host slice. No provided
    /// implementation: fused attention carries kernel-specific state
    /// (e.g. the LeakyReLU slope), so each implementation routes to the
    /// native routine itself.
    #[allow(clippy::too_many_arguments)]
    fn run_native(
        &self,
        eng: &NativeEngine,
        z: &[f32],
        el: Src<'_>,
        er: Src<'_>,
        f: usize,
        y: Dst<'_>,
        alpha_out: Option<Dst<'_>>,
    ) -> Result<NativeReport, LaunchError>;

    /// Symbolic access summary under one execution model, or `None` when
    /// the kernel has none registered. No provided implementation is
    /// possible: like `run_native`, fused kernels carry kernel-specific
    /// scheduling state.
    fn access_summary(&self, f: usize, model: ExecModel) -> Option<AccessSummary> {
        let _ = (f, model);
        None
    }
}

/// SpMV: `y ← A·x` with scalar features.
pub trait SpmvKernel: Send + Sync {
    /// System name.
    fn name(&self) -> &'static str;

    /// Storage format consumed.
    fn format(&self) -> &'static str;

    /// Graph tensors the kernel was constructed over.
    fn graph(&self) -> &GraphData;

    /// Launches the kernel: reads `edge_vals` (`|E|`) and `x` (`|V|`),
    /// accumulates into `y` (`|V|`, zeroed by the caller).
    fn run(
        &self,
        gpu: &Gpu,
        edge_vals: &DeviceBuffer<f32>,
        x: &DeviceBuffer<f32>,
        y: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError>;

    /// Executes the same launch on the native CPU backend (row-split,
    /// scalar features).
    fn run_native(
        &self,
        eng: &NativeEngine,
        edge_vals: Src<'_>,
        x: Src<'_>,
        y: Dst<'_>,
    ) -> Result<NativeReport, LaunchError> {
        Ok(native::spmv_rows(
            eng,
            self.graph(),
            edge_vals,
            x,
            y,
            self.name(),
        ))
    }

    /// Symbolic access summary under one execution model (`f = 1`), or
    /// `None` when the kernel has none registered. The provided
    /// implementation mirrors the provided `run_native` row-split path.
    fn access_summary(&self, model: ExecModel) -> Option<AccessSummary> {
        match model {
            ExecModel::Sim => self.sim_access_summary(),
            ExecModel::Native => Some(summaries::native_row_out(
                self.name(),
                "spmv",
                self.graph(),
                &crate::gnnone::GnnOneConfig::default(),
                1,
                summaries::spmm_reads(),
            )),
        }
    }

    /// Simulator-model hook for [`Self::access_summary`].
    fn sim_access_summary(&self) -> Option<AccessSummary> {
        None
    }
}
