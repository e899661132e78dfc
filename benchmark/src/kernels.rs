//! The kernel stack of one workload, driven closed loop from one caller
//! thread: the five registry GNNOne kernels through `Backend::run_*`, the
//! fused GAT plan through `ir::execute`, a K=4 sharded SDDMM + SpMM pair
//! through `ShardedExecutor`, and one empty launch on a `rayon` pool.
//!
//! Operands and output buffers are allocated before any timer starts, so
//! each timed region is exactly one public call, and every output is
//! checked after its timer stops.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gnnone_kernels::backend::{Backend, ExecReport, NativeEngine};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneCsrSpmm, GnnOneSddmm, GnnOneSpmm, GnnOneSpmv};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::ir::{self, IrGraph, IrUAddV, LowerOptions, Plan, ValueId};
use gnnone_kernels::shard::{ShardTopology, ShardedExecutor};
use gnnone_kernels::traits::{EdgeApplyKernel, SddmmKernel, SpmmKernel, SpmvKernel};
use gnnone_serve::model::vertex_features;
use gnnone_sim::engine::LaunchError;
use gnnone_sim::DeviceBuffer;
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::reference;
use rayon::prelude::*;

use crate::check::Checker;
use crate::report::{metric, Metric};
use crate::stats::pct;
use crate::trace::Tracer;

/// Feature length of the SDDMM/SpMM/GAT operands.
pub const F: usize = 32;
/// Shard count of the sharded runs.
pub const SHARDS: usize = 4;
/// LeakyReLU slope of the GAT chain.
const SLOPE: f32 = 0.2;

/// The five native kernel calls of a pass, in pass order.
#[derive(Debug, Clone, Copy)]
enum Op {
    Sddmm,
    Spmm,
    SpmmCsr,
    Spmv,
    UAddV,
}

const OPS: [Op; 5] = [Op::Sddmm, Op::Spmm, Op::SpmmCsr, Op::Spmv, Op::UAddV];

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Sddmm => "sddmm",
            Op::Spmm => "spmm",
            Op::SpmmCsr => "spmm_csr",
            Op::Spmv => "spmv",
            Op::UAddV => "u_add_v",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Op::Sddmm => "native.sddmm",
            Op::Spmm => "native.spmm",
            Op::SpmmCsr => "native.spmm_csr",
            Op::Spmv => "native.spmv",
            Op::UAddV => "native.u_add_v",
        }
    }
}

/// Everything the timed set-up builds: the graph, the kernel objects, the
/// lowered plans, the sharded executor, and the thread pools.
pub struct Stack {
    graph: Arc<GraphData>,
    backend: Backend,
    threads: usize,
    sddmm: GnnOneSddmm,
    spmm: GnnOneSpmm,
    spmm_csr: GnnOneCsrSpmm,
    spmv: GnnOneSpmv,
    u_add_v: IrUAddV,
    gat: IrGraph,
    gat_fused: Plan,
    gat_unfused: Plan,
    sharded: ShardedExecutor,
    floor_pool: rayon::ThreadPool,
}

impl Stack {
    /// Builds the stack for one Table 1 graph with `threads` workers.
    pub fn build(dataset: &str, scale: Scale, threads: usize) -> Result<Self, String> {
        let data = Dataset::try_by_id(dataset, scale).map_err(|e| e.to_string())?;
        let graph = Arc::new(GraphData::new(data.coo));
        let engine = NativeEngine::with_threads(threads)?;
        let gat = ir::gat_attention_inference_graph(SLOPE);
        let gat_fused = ir::lower(&gat, LowerOptions::default()).map_err(|e| e.to_string())?;
        let gat_unfused =
            ir::lower(&gat, LowerOptions { fuse: false }).map_err(|e| e.to_string())?;
        let topology = ShardTopology::native(threads, SHARDS).map_err(|e| e.to_string())?;
        let sharded = ShardedExecutor::new(Arc::clone(&graph), SHARDS, topology)
            .map_err(|e| e.to_string())?;
        let floor_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| e.to_string())?;
        let cfg = GnnOneConfig::default();
        Ok(Self {
            sddmm: GnnOneSddmm::new(Arc::clone(&graph), cfg),
            spmm: GnnOneSpmm::new(Arc::clone(&graph), cfg),
            spmm_csr: GnnOneCsrSpmm::new(Arc::clone(&graph)),
            spmv: GnnOneSpmv::new(Arc::clone(&graph)),
            u_add_v: IrUAddV::new(Arc::clone(&graph)),
            backend: Backend::Native(engine),
            threads,
            gat,
            gat_fused,
            gat_unfused,
            sharded,
            floor_pool,
            graph,
        })
    }

    /// `(vertices, nnz)` of the graph.
    pub fn shape(&self) -> (usize, usize) {
        (self.graph.num_vertices(), self.graph.nnz())
    }

    /// Seeded operands, output buffers, and the oracle outputs.
    pub fn operands(&self, seed: u64) -> Result<Operands, String> {
        let (n, nnz) = self.shape();
        let feats = |len: usize, width: usize, salt: u64| vertex_features(len, width, seed ^ salt);
        let x = feats(n, F, 0x11);
        let y = feats(n, F, 0x13);
        let vals = feats(nnz, 1, 0x17);
        let x1 = feats(n, 1, 0x19);
        let el = feats(n, 1, 0x23);
        let er = feats(n, 1, 0x29);
        let z = feats(n, F, 0x31);
        let coo = &self.graph.coo;
        let csr = &self.graph.csr;
        let refs = [
            reference::sddmm_coo(coo, &x, &y, F),
            reference::spmm_csr(csr, &vals, &x, F),
            reference::spmm_csr(csr, &vals, &x, F),
            reference::spmv_csr(csr, &vals, &x1),
            reference::u_add_v_coo(coo, &el, &er),
        ];
        let outs = refs.each_ref().map(|r| DeviceBuffer::<f32>::zeros(r.len()));
        let mut ops = Operands {
            dx: DeviceBuffer::from_slice(&x),
            dy: DeviceBuffer::from_slice(&y),
            dvals: DeviceBuffer::from_slice(&vals),
            dx1: DeviceBuffer::from_slice(&x1),
            del: DeviceBuffer::from_slice(&el),
            der: DeviceBuffer::from_slice(&er),
            x,
            y,
            vals,
            el,
            er,
            z,
            outs,
            refs,
            gat_ref: Vec::new(),
        };
        // The fused plan's oracle is the unfused plan of the same graph.
        let unfused = ir::execute(
            &self.backend,
            &self.graph,
            &self.gat,
            &self.gat_unfused,
            F,
            &self.gat_binds(&ops),
        )
        .map_err(|e| format!("unfused GAT plan: {e}"))?;
        ops.gat_ref = unfused.value(self.gat.outputs()[0]).to_vec();
        Ok(ops)
    }

    fn gat_binds<'a>(&self, o: &'a Operands) -> Vec<(ValueId, &'a [f32])> {
        let input = |label| self.gat.find_input(label).expect("GAT graph input");
        vec![
            (input("att_src"), o.er.as_slice()),
            (input("att_dst"), o.el.as_slice()),
            (input("z"), o.z.as_slice()),
        ]
    }

    fn launch(&self, op: Op, o: &Operands) -> Result<ExecReport, LaunchError> {
        let b = &self.backend;
        let out = &o.outs[op as usize];
        match op {
            Op::Sddmm => b.run_sddmm(&self.sddmm, &o.dx, &o.dy, F, out),
            Op::Spmm => b.run_spmm(&self.spmm, &o.dvals, &o.dx, F, out),
            Op::SpmmCsr => b.run_spmm(&self.spmm_csr, &o.dvals, &o.dx, F, out),
            Op::Spmv => b.run_spmv(&self.spmv, &o.dvals, &o.dx1, out),
            Op::UAddV => b.run_edge_apply(&self.u_add_v, &o.del, &o.der, out),
        }
    }

    /// Compulsory bytes of one call, computed from array sizes (4-byte
    /// values and indices, each array read or written once), not measured.
    fn bytes_computed(&self, op: Op) -> f64 {
        let (n, nnz) = self.shape();
        let (format, vertex_width) = match op {
            Op::Sddmm => (self.sddmm.format(), 2 * n * F),
            Op::Spmm => (self.spmm.format(), 2 * n * F),
            Op::SpmmCsr => (self.spmm_csr.format(), 2 * n * F),
            Op::Spmv => (self.spmv.format(), 2 * n),
            Op::UAddV => (self.u_add_v.format(), 2 * n),
        };
        let index = if format == "CSR" {
            n + 1 + nnz
        } else {
            2 * nnz
        };
        // Every op also reads or writes one value per edge.
        (4 * (index + nnz + vertex_width)) as f64
    }

    /// One pass: every public call once, each timed alone and checked.
    pub fn pass(
        &self,
        o: &Operands,
        round: u32,
        tracer: &mut Tracer,
        check: &mut Checker,
    ) -> PassSample {
        let pass_id = tracer.reserve();
        let pass_start = Instant::now();
        let mut s = PassSample {
            traced: tracer.on,
            round,
            ..PassSample::default()
        };

        for op in OPS {
            let i = op as usize;
            o.outs[i].fill_default();
            let t0 = Instant::now();
            let res = self.launch(op, o);
            let t1 = Instant::now();
            match res {
                Ok(report) => {
                    s.call_ms[i] = ms(t0, t1);
                    s.kernel_ms[i] = report.time_ms;
                    tracer.leaf(pass_id, op.span(), t0, t1, &[("kernel_ms", report.time_ms)]);
                    check.close(op.name(), values(&o.outs[i]), &o.refs[i]);
                }
                Err(e) => check.fail(format!("{}: {e}", op.name())),
            }
        }

        let binds = self.gat_binds(o);
        let t0 = Instant::now();
        let res = ir::execute(
            &self.backend,
            &self.graph,
            &self.gat,
            &self.gat_fused,
            F,
            &binds,
        );
        let t1 = Instant::now();
        match res {
            Ok(r) => {
                s.gat_call_ms = ms(t0, t1);
                s.gat_launch_ms = r.reports.iter().map(|r| r.time_ms).sum();
                s.gat_host_ms = r.host_ms;
                tracer.leaf(
                    pass_id,
                    "ir.gat",
                    t0,
                    t1,
                    &[
                        ("launch_ms", s.gat_launch_ms),
                        ("host_ms", r.host_ms),
                        ("launches", r.reports.len() as f64),
                    ],
                );
                check.close(
                    "ir.gat",
                    r.value(self.gat.outputs()[0]).iter().copied(),
                    &o.gat_ref,
                );
            }
            Err(e) => check.fail(format!("ir.gat: {e}")),
        }

        // The sharded pair's oracle is the unsharded native output of the
        // same pass, bit for bit.
        let cfg = GnnOneConfig::default();
        for (k, unsharded, span) in [(0, Op::Sddmm, "shard.sddmm"), (1, Op::Spmm, "shard.spmm")] {
            let t0 = Instant::now();
            let res = if k == 0 {
                self.sharded.run_sddmm(
                    &|g: &Arc<GraphData>| -> Box<dyn SddmmKernel> {
                        Box::new(GnnOneSddmm::new(Arc::clone(g), cfg))
                    },
                    &o.x,
                    &o.y,
                    F,
                )
            } else {
                self.sharded.run_spmm(
                    &|g: &Arc<GraphData>| -> Box<dyn SpmmKernel> {
                        Box::new(GnnOneSpmm::new(Arc::clone(g), cfg))
                    },
                    &o.vals,
                    &o.x,
                    F,
                )
            };
            let t1 = Instant::now();
            match res {
                Ok((out, report)) => {
                    s.shard_call_ms[k] = ms(t0, t1);
                    s.shard_compute_ms[k] = report.compute_ms;
                    s.shard_launches += report.launches.iter().sum::<u32>();
                    s.shard_retries += report.retries;
                    let args = [
                        ("compute_ms", report.compute_ms),
                        ("retries", f64::from(report.retries)),
                    ];
                    tracer.leaf(pass_id, span, t0, t1, &args);
                    check.bitwise(span, values(&o.outs[unsharded as usize]), &out);
                }
                Err(e) => check.fail(format!("{span}: {e}")),
            }
        }

        let t0 = Instant::now();
        self.floor_pool.install(|| {
            (0..self.threads).into_par_iter().for_each(|i| {
                black_box(i);
            })
        });
        let t1 = Instant::now();
        s.floor_ms = ms(t0, t1);
        tracer.leaf(pass_id, "rayon.floor", t0, t1, &[]);

        tracer.record(
            pass_id,
            0,
            "pass",
            pass_start,
            Instant::now(),
            &[("layer_ms", s.layer_ms())],
        );
        s
    }

    /// End-to-end metrics over the untraced rounds.
    pub fn e2e_metrics(passes: &[PassSample]) -> Vec<Metric> {
        let r = Rounds::new(passes, false);
        let n = r.passes;
        vec![
            metric("layer_ms_p50", r.best(50.0, PassSample::layer_ms), "ms", n),
            metric("gat_plan_ms_p50", r.best(50.0, |s| s.gat_call_ms), "ms", n),
            metric(
                "sharded_ms_p50",
                r.best(50.0, PassSample::sharded_ms),
                "ms",
                n,
            ),
        ]
    }

    /// Per-layer metrics over the traced rounds.
    pub fn layer_metrics(&self, passes: &[PassSample]) -> Vec<Metric> {
        let r = Rounds::new(passes, true);
        let n = r.passes;
        let mut m = Vec::new();
        for op in OPS {
            let i = op as usize;
            let kernel = r.best(50.0, |s| s.kernel_ms[i]);
            let bytes = self.bytes_computed(op);
            let name = |field: &str| format!("native.{}.{field}", op.name());
            m.push(metric(
                name("call_ms_p50"),
                r.best(50.0, |s| s.call_ms[i]),
                "ms",
                n,
            ));
            m.push(metric(
                name("call_ms_p90"),
                r.best(90.0, |s| s.call_ms[i]),
                "ms",
                n,
            ));
            m.push(metric(name("kernel_ms_p50"), kernel, "ms", n));
            let staging = r.best(50.0, |s| s.call_ms[i] - s.kernel_ms[i]);
            m.push(metric(name("staging_ms_p50"), staging, "ms", n));
            m.push(metric(name("bytes_computed"), bytes, "bytes", 1));
            m.push(metric(name("kernel_gbps"), bytes / kernel / 1e6, "GB/s", n));
        }
        m.push(metric(
            "native.floor_ms_p50",
            r.best(50.0, |s| s.floor_ms),
            "ms",
            n,
        ));
        m.push(metric(
            "native.floor_ms_p90",
            r.best(90.0, |s| s.floor_ms),
            "ms",
            n,
        ));
        m.push(metric("native.threads", self.threads as f64, "count", 1));

        m.push(metric(
            "ir.gat.call_ms_p90",
            r.best(90.0, |s| s.gat_call_ms),
            "ms",
            n,
        ));
        m.push(metric(
            "ir.gat.launch_ms_p50",
            r.best(50.0, |s| s.gat_launch_ms),
            "ms",
            n,
        ));
        m.push(metric(
            "ir.gat.host_ms_p50",
            r.best(50.0, |s| s.gat_host_ms),
            "ms",
            n,
        ));
        let gat_staging = r.best(50.0, |s| s.gat_call_ms - s.gat_launch_ms - s.gat_host_ms);
        m.push(metric("ir.gat.staging_ms_p50", gat_staging, "ms", n));
        m.push(metric(
            "ir.gat.launches",
            self.gat_fused.launches() as f64,
            "count",
            1,
        ));

        for (k, op) in [(1, "spmm"), (0, "sddmm")] {
            let call = r.best(50.0, |s| s.shard_call_ms[k]);
            let compute = r.best(50.0, |s| s.shard_compute_ms[k]);
            let outside = r.best(50.0, |s| s.shard_call_ms[k] - s.shard_compute_ms[k]);
            m.push(metric(format!("shard.{op}.call_ms_p50"), call, "ms", n));
            m.push(metric(
                format!("shard.{op}.compute_ms_p50"),
                compute,
                "ms",
                n,
            ));
            m.push(metric(
                format!("shard.{op}.outside_ms_p50"),
                outside,
                "ms",
                n,
            ));
        }
        let unsharded = r.best(50.0, |s| {
            s.call_ms[Op::Sddmm as usize] + s.call_ms[Op::Spmm as usize]
        });
        let overhead = r.best(50.0, PassSample::sharded_ms) / unsharded;
        m.push(metric("shard.overhead_x", overhead, "x", n));
        let halo: usize = self.sharded.halo_sizes().iter().sum();
        m.push(metric("shard.halo_rows", halo as f64, "count", 1));
        let launches = r.first().map_or(0, |s| s.shard_launches);
        m.push(metric("shard.launches", f64::from(launches), "count", 1));
        let retries: u32 = r.all().map(|s| s.shard_retries).sum();
        m.push(metric("shard.retries", f64::from(retries), "count", n));
        m
    }
}

/// The passes of a run grouped by round, traced or untraced ones only.
///
/// The machine a benchmark shares slows every call for seconds at a time
/// (a plain CPU loop was measured varying up to 2x within a minute), and
/// contention only ever adds time. So each timing is taken as a
/// percentile within one round, and the round where it is lowest is
/// reported: the least-disturbed stretch of the run repeats best.
pub struct Rounds<'a> {
    rounds: BTreeMap<u32, Vec<&'a PassSample>>,
    /// Passes in the selected rounds.
    pub passes: usize,
}

impl<'a> Rounds<'a> {
    /// The rounds whose passes ran with tracing `traced`.
    pub fn new(passes: &'a [PassSample], traced: bool) -> Self {
        let mut rounds: BTreeMap<u32, Vec<&PassSample>> = BTreeMap::new();
        for s in passes.iter().filter(|s| s.traced == traced) {
            rounds.entry(s.round).or_default().push(s);
        }
        let passes = rounds.values().map(Vec::len).sum();
        Self { rounds, passes }
    }

    /// The lowest, over rounds, of the round's `p`-th percentile of `f`.
    pub fn best(&self, p: f64, f: impl Fn(&PassSample) -> f64) -> f64 {
        self.rounds
            .values()
            .map(|round| pct(&round.iter().map(|s| f(s)).collect::<Vec<_>>(), p))
            .fold(f64::INFINITY, f64::min)
    }

    fn all(&self) -> impl Iterator<Item = &&'a PassSample> {
        self.rounds.values().flatten()
    }

    fn first(&self) -> Option<&&'a PassSample> {
        self.all().next()
    }
}

/// Seeded host operands, their device copies, the preallocated outputs,
/// and the oracle outputs.
pub struct Operands {
    x: Vec<f32>,
    y: Vec<f32>,
    vals: Vec<f32>,
    el: Vec<f32>,
    er: Vec<f32>,
    z: Vec<f32>,
    dx: DeviceBuffer<f32>,
    dy: DeviceBuffer<f32>,
    dvals: DeviceBuffer<f32>,
    dx1: DeviceBuffer<f32>,
    del: DeviceBuffer<f32>,
    der: DeviceBuffer<f32>,
    outs: [DeviceBuffer<f32>; 5],
    refs: [Vec<f32>; 5],
    gat_ref: Vec<f32>,
}

/// The timings of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassSample {
    /// Whether the pass ran with the recorder attached.
    pub traced: bool,
    /// The kernel-loop round it ran in.
    pub round: u32,
    call_ms: [f64; 5],
    kernel_ms: [f64; 5],
    gat_call_ms: f64,
    gat_launch_ms: f64,
    gat_host_ms: f64,
    /// Sharded SDDMM, SpMM.
    shard_call_ms: [f64; 2],
    shard_compute_ms: [f64; 2],
    shard_launches: u32,
    shard_retries: u32,
    floor_ms: f64,
}

impl PassSample {
    /// Summed call time of the five native calls.
    pub fn layer_ms(&self) -> f64 {
        self.call_ms.iter().sum()
    }

    fn sharded_ms(&self) -> f64 {
        self.shard_call_ms.iter().sum()
    }
}

/// A device buffer's values, read in place.
fn values(buf: &DeviceBuffer<f32>) -> impl Iterator<Item = f32> + '_ {
    (0..buf.len()).map(|i| buf.read(i))
}

fn ms(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_secs_f64() * 1e3
}
