//! The supervised sharded executor: shard-by-shard launch with halo
//! exchange, per-shard watchdog deadlines, bounded deterministic retry,
//! output checkpoints, and typed degraded-mode declines.
//!
//! # Execution model
//!
//! One run walks the partition in shard order. For each nonempty shard the
//! supervision loop:
//!
//! 1. consults the armed shard fault (if any) — a
//!    [`ShardFaultKind::TransientShardLaunch`] fires here as a one-shot
//!    structured preflight decline;
//! 2. gathers the shard's halo (remote vertex rows its edges read) from
//!    the owning shards, moving it over the topology's modeled
//!    interconnect and verifying a content checksum on arrival — a fired
//!    [`ShardFaultKind::HaloDrop`] corrupts the received payload, the
//!    checksum mismatches, and the gather is retried from the owners;
//! 3. builds every vertex-indexed operand in the shard's local vertex
//!    space ([`super::shard_graphs`]): `halo-below ++ owned ++ halo-above`,
//!    the owned rows copied locally and the halo rows taken from the
//!    received payload, so staging is O(owned + halo) rows, never O(|V|);
//! 4. launches the registry kernel for this shard on its device (simulated
//!    GPU or per-shard rayon pool) through [`Kernel::launch_host`]: the
//!    native engine reads the host operands in place, the simulator
//!    uploads and downloads them. A fired [`ShardFaultKind::ShardKill`]
//!    discards the result as a [`gnnone_sim::AbortReason::ChaosKill`]; a
//!    fired [`ShardFaultKind::ShardStall`] inflates the reported time past
//!    the per-shard deadline so the watchdog check trips;
//! 5. checks the per-shard watchdog deadline on every launch;
//! 6. on success, merges the owned span of the shard's output into its
//!    disjoint global interval (proved sound at construction by
//!    [`super::verify`]) — the merged prefix is the checkpoint: a later
//!    shard's failure never re-executes earlier shards.
//!
//! On failure the loop backs off deterministically
//! ([`RetryPolicy::backoff_ms`], the same policy `SweepGuard` runs whole
//! sweep cells under, plus an optional seeded splitmix64 jitter that is
//! itself reproducible) and retries **only the failed shard**, up to
//! [`RetryPolicy::max_attempts`]. Exhausted retries surface as
//! [`GnnOneError::ShardAbort`] carrying the shard, attempt count,
//! checkpointed-shard count, and armed fault — a typed partial-result
//! decline; the executor never returns a silently zero-filled output.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use gnnone_sim::chaos::ShardFaultKind;
use gnnone_sim::engine::LaunchError;
use gnnone_sim::jsonio::Json;
use gnnone_sim::topology::MultiGpu;
use gnnone_sim::{AbortReason, GnnOneError, GpuSpec, KernelAbort, ShardAbort, ValidationError};
use gnnone_sparse::RowPartition;

use crate::backend::{BackendKind, Device, NativeEngine};
use crate::graph::GraphData;
use crate::ir::Space;
use crate::shard::verify::{verify_merge, MergeTarget};
use crate::shard::{halo_below, halo_vertices, partition_graph, shard_graphs};
use crate::traits::{Kernel, SddmmKernel, Signature, SpmmKernel};

/// Where shards execute: K simulated devices joined by a modeled
/// interconnect, or per-shard rayon pools on the native CPU backend.
#[allow(clippy::large_enum_variant)]
pub enum ShardTopology {
    /// Simulated multi-GPU topology; shard `s` runs on device
    /// `s % num_devices` and halo exchange is charged to the interconnect.
    Sim(MultiGpu),
    /// Native CPU backend; shard `s` runs on pool `s % pools`. Halo
    /// exchange stays in host memory (zero modeled cost) but follows the
    /// same checksummed gather path.
    Native(Vec<NativeEngine>),
}

impl ShardTopology {
    /// A simulated topology of `devices` identical GPUs built from `spec`.
    pub fn sim(spec: GpuSpec, devices: usize) -> Self {
        ShardTopology::Sim(MultiGpu::new(spec, devices.max(1)))
    }

    /// A native topology of `pools` rayon pools splitting `total_threads`
    /// between them (each pool gets at least one thread).
    pub fn native(total_threads: usize, pools: usize) -> Result<Self, GnnOneError> {
        let pools = pools.max(1);
        let per = (total_threads / pools).max(1);
        let engines = (0..pools)
            .map(|_| {
                NativeEngine::with_threads(per).map_err(|detail| GnnOneError::Config { detail })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardTopology::Native(engines))
    }

    /// Which backend family this topology drives.
    pub fn kind(&self) -> BackendKind {
        match self {
            ShardTopology::Sim(_) => BackendKind::Sim,
            ShardTopology::Native(_) => BackendKind::Native,
        }
    }

    /// Number of devices / pools available.
    pub fn num_workers(&self) -> usize {
        match self {
            ShardTopology::Sim(m) => m.num_devices(),
            ShardTopology::Native(e) => e.len(),
        }
    }

    /// The device shard `s` launches on.
    pub fn device(&self, s: usize) -> Device<'_> {
        match self {
            ShardTopology::Sim(m) => Device::Sim(m.device(s % m.num_devices())),
            ShardTopology::Native(e) => Device::Native(&e[s % e.len()]),
        }
    }

    /// The simulated topology, when this is one (for transfer accounting).
    pub fn as_multi_gpu(&self) -> Option<&MultiGpu> {
        match self {
            ShardTopology::Sim(m) => Some(m),
            ShardTopology::Native(_) => None,
        }
    }
}

/// Bounded deterministic retry: up to `max_attempts` tries per shard with
/// backoff `backoff_base_ms << min(attempt - 1, 16)` between them (the
/// shift stops growing after 16 doublings) — the one retry
/// ladder of the system, applied to individual shards here and to whole
/// sweep cells by `SweepGuard`. An optional seeded jitter term
/// (splitmix64, the same expander the chaos engine uses for targeting)
/// decorrelates concurrent retries while keeping the full schedule
/// reproducible: identical `(seed, attempt)` pairs always yield the same
/// wait, so quarantine records and tests can assert exact ladders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per shard, including the first (minimum 1).
    pub max_attempts: u32,
    /// Base backoff in milliseconds; 0 disables sleeping (tests, sweeps).
    pub backoff_base_ms: u64,
    /// Upper bound on the additive jitter in milliseconds; 0 disables
    /// jitter and reproduces the plain exponential ladder.
    pub jitter_ms: u64,
    /// Seed for the deterministic jitter draw.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_ms: 0,
            jitter_ms: 0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff applied after failed attempt `attempt` (1-based): the
    /// exponential ladder `backoff_base_ms << min(attempt - 1, 16)` plus a
    /// deterministic jitter in `0..=jitter_ms` drawn from
    /// `splitmix64(seed ^ attempt)`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let base = if self.backoff_base_ms == 0 {
            0
        } else {
            self.backoff_base_ms << (attempt - 1).min(16)
        };
        base + self.jitter(attempt)
    }

    /// The jitter component alone for failed attempt `attempt` (1-based).
    fn jitter(&self, attempt: u32) -> u64 {
        if self.jitter_ms == 0 {
            0
        } else {
            gnnone_sim::splitmix64(self.seed ^ u64::from(attempt)) % (self.jitter_ms + 1)
        }
    }
}

/// What one supervised sharded run did: timing split into compute and
/// interconnect, per-shard launch/attempt counters (the recovery tests
/// assert a retried shard re-launches alone), applied backoff schedule,
/// and descriptions of every detected-and-recovered fault.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Kernel name.
    pub kernel: String,
    /// Shard count K.
    pub shards: usize,
    /// End-to-end modeled time: compute plus interconnect.
    pub time_ms: f64,
    /// Sum of per-shard kernel times (successful attempts only).
    pub compute_ms: f64,
    /// Modeled interconnect time for halo exchange.
    pub transfer_ms: f64,
    /// Bytes moved over the interconnect for halo exchange.
    pub transfer_bytes: u64,
    /// Actual kernel launches per shard (empty shards launch zero times).
    pub launches: Vec<u32>,
    /// Supervision attempts per shard (launch declines count, skips do not).
    pub attempts: Vec<u32>,
    /// Total retries across all shards.
    pub retries: u32,
    /// Backoff waits applied, in order.
    pub backoff_ms: Vec<u64>,
    /// Human-readable description of each detected-and-recovered failure.
    pub recovered: Vec<String>,
}

impl ShardedReport {
    fn new(kernel: &str, shards: usize) -> Self {
        Self {
            kernel: kernel.to_string(),
            shards,
            time_ms: 0.0,
            compute_ms: 0.0,
            transfer_ms: 0.0,
            transfer_bytes: 0,
            launches: vec![0; shards],
            attempts: vec![0; shards],
            retries: 0,
            backoff_ms: Vec::new(),
            recovered: Vec::new(),
        }
    }

    /// Serializes through the dependency-free jsonio path.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("shards", Json::U64(self.shards as u64)),
            ("time_ms", Json::F64(self.time_ms)),
            ("compute_ms", Json::F64(self.compute_ms)),
            ("transfer_ms", Json::F64(self.transfer_ms)),
            ("transfer_bytes", Json::U64(self.transfer_bytes)),
            (
                "launches",
                Json::Arr(
                    self.launches
                        .iter()
                        .map(|&l| Json::U64(u64::from(l)))
                        .collect(),
                ),
            ),
            (
                "attempts",
                Json::Arr(
                    self.attempts
                        .iter()
                        .map(|&a| Json::U64(u64::from(a)))
                        .collect(),
                ),
            ),
            ("retries", Json::U64(u64::from(self.retries))),
            (
                "backoff_ms",
                Json::Arr(self.backoff_ms.iter().map(|&b| Json::U64(b)).collect()),
            ),
            (
                "recovered",
                Json::Arr(self.recovered.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// The armed shard fault, resolved to its seeded firing point for one run.
struct FirePlan {
    kind: ShardFaultKind,
    target: usize,
    fired: bool,
}

/// Runs any registry kernel shard-by-shard over a validated row-aligned
/// partition with supervised fault recovery. See the module docs for the
/// execution model and `docs/ROBUSTNESS.md` §7 for the fault contract.
pub struct ShardedExecutor {
    graph: Arc<GraphData>,
    partition: RowPartition,
    shard_graphs: Vec<Arc<GraphData>>,
    halos: Vec<Vec<u32>>,
    topology: ShardTopology,
    policy: RetryPolicy,
    fault: Option<(ShardFaultKind, u64)>,
    deadline_ms: f64,
}

impl ShardedExecutor {
    /// Partitions `graph` into `shards` nnz-balanced row-aligned shards
    /// and prepares the executor. Fails with a structured error when the
    /// partition is invalid or its merge plan cannot be proved disjoint
    /// and covering.
    pub fn new(
        graph: Arc<GraphData>,
        shards: usize,
        topology: ShardTopology,
    ) -> Result<Self, GnnOneError> {
        let partition = partition_graph(&graph, shards)?;
        Self::with_partition(graph, partition, topology)
    }

    /// Builds the executor over an explicit partition (already validated
    /// by [`RowPartition`]'s constructors; re-checked against the graph
    /// and the static merge proof here).
    pub fn with_partition(
        graph: Arc<GraphData>,
        partition: RowPartition,
        topology: ShardTopology,
    ) -> Result<Self, GnnOneError> {
        if graph.coo.num_rows() != graph.coo.num_cols() {
            return Err(ValidationError::new(
                "RowPartition",
                "num_cols",
                None,
                format!(
                    "sharded execution needs a square adjacency: {} rows vs {} cols",
                    graph.coo.num_rows(),
                    graph.coo.num_cols()
                ),
            )
            .into());
        }
        if partition.num_rows() != graph.num_vertices() || partition.nnz() != graph.nnz() {
            return Err(ValidationError::new(
                "RowPartition",
                "row_ranges",
                None,
                format!(
                    "partition shape ({} rows, {} nnz) does not match the graph \
                     ({} rows, {} nnz)",
                    partition.num_rows(),
                    partition.nnz(),
                    graph.num_vertices(),
                    graph.nnz()
                ),
            )
            .into());
        }
        // Static merge preflight: both obligation families must be proved
        // before anything launches.
        for target in [MergeTarget::Rows, MergeTarget::Edges] {
            let verdict = verify_merge(&partition, 1, target);
            if !verdict.is_proved() {
                return Err(ValidationError::new(
                    "RowPartition",
                    "merge",
                    None,
                    format!(
                        "shard-merge {} plan not proved sound: {verdict:?}",
                        target.as_str()
                    ),
                )
                .into());
            }
        }
        let halos: Vec<Vec<u32>> = partition
            .shards()
            .iter()
            .map(|s| halo_vertices(&graph, s))
            .collect();
        let shard_graphs = shard_graphs(&graph, &partition, &halos)?;
        Ok(Self {
            graph,
            partition,
            shard_graphs,
            halos,
            topology,
            policy: RetryPolicy::default(),
            fault: None,
            deadline_ms: 30_000.0,
        })
    }

    /// The validated partition this executor runs over.
    pub fn partition(&self) -> &RowPartition {
        &self.partition
    }

    /// The topology shards execute on.
    pub fn topology(&self) -> &ShardTopology {
        &self.topology
    }

    /// Per-shard halo sizes (vertices shipped before each shard launches).
    pub fn halo_sizes(&self) -> Vec<usize> {
        self.halos.iter().map(Vec::len).collect()
    }

    /// Replaces the retry policy (defaults to 3 attempts, no backoff).
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Arms one shard fault: it fires once per run at the shard seeded by
    /// [`ShardFaultKind::target`] over the eligible shards.
    pub fn arm_fault(&mut self, kind: ShardFaultKind, seed: u64) {
        self.fault = Some((kind, seed));
    }

    /// Disarms any armed fault.
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Sets the per-shard watchdog deadline in milliseconds (default
    /// 30 000 — generous for every healthy tiny-scale launch, and checked
    /// on *every* shard launch, not just injected stalls).
    pub fn set_deadline_ms(&mut self, ms: f64) {
        self.deadline_ms = ms;
    }

    /// Resolves the armed fault to its firing point for one run. Kill,
    /// stall, and transient faults target nonempty shards (empty shards
    /// never launch); halo drops target shards with halo traffic. `None`
    /// when nothing is armed or no shard is eligible (recorded by sweeps
    /// as a not-injected cell).
    fn fire_plan(&self) -> Option<FirePlan> {
        let (kind, seed) = self.fault?;
        let eligible: Vec<usize> = match kind {
            ShardFaultKind::HaloDrop => (0..self.halos.len())
                .filter(|&s| !self.halos[s].is_empty() && self.partition.shards()[s].nnz() > 0)
                .collect(),
            _ => (0..self.partition.num_shards())
                .filter(|&s| self.partition.shards()[s].nnz() > 0)
                .collect(),
        };
        let idx = kind.target(seed, eligible.len())?;
        Some(FirePlan {
            kind,
            target: eligible[idx],
            fired: false,
        })
    }

    /// Gathers shard `s`'s halo rows of one vertex operand (`width`
    /// elements per row) from their owners, moving each owner's batch over
    /// the interconnect and verifying a content checksum on arrival.
    /// Returns the received halo (concatenated in halo order) or a
    /// structured decline when a transfer arrives corrupted.
    #[allow(clippy::too_many_arguments)]
    fn gather_halo(
        &self,
        s: usize,
        data: &[f32],
        width: usize,
        plan: &mut Option<FirePlan>,
        transfer_ms: &mut f64,
        transfer_bytes: &mut u64,
    ) -> Result<Vec<f32>, GnnOneError> {
        let halo = &self.halos[s];
        let mut received = Vec::with_capacity(halo.len() * width);
        if halo.is_empty() {
            return Ok(received);
        }
        // Group contiguous runs of halo vertices by owning shard: one
        // interconnect message per (owner → s) run.
        let mut i = 0usize;
        while i < halo.len() {
            let owner = self.partition.owner_of_row(halo[i] as usize);
            let mut j = i + 1;
            while j < halo.len() && self.partition.owner_of_row(halo[j] as usize) == owner {
                j += 1;
            }
            let mut sent = Vec::with_capacity((j - i) * width);
            for &v in &halo[i..j] {
                let base = v as usize * width;
                sent.extend_from_slice(&data[base..base + width]);
            }
            let expect = checksum(&sent);
            let bytes = (sent.len() * 4) as u64;
            if let ShardTopology::Sim(multi) = &self.topology {
                let workers = multi.num_devices();
                let ms = multi.transfer(owner % workers, s % workers, bytes);
                *transfer_ms += ms;
                if owner % workers != s % workers {
                    *transfer_bytes += bytes;
                }
            }
            let mut payload = sent;
            if let Some(p) = plan.as_mut() {
                if p.kind == ShardFaultKind::HaloDrop && p.target == s && !p.fired {
                    p.fired = true;
                    // The message is dropped on the wire: the receiver sees
                    // a corrupted payload, not the sender's bytes.
                    for v in payload.iter_mut() {
                        *v = f32::from_bits(v.to_bits() ^ 0x0040_0000);
                    }
                }
            }
            if checksum(&payload) != expect {
                return Err(GnnOneError::Launch(LaunchError::Unlaunchable {
                    reason: format!(
                        "halo checksum mismatch on transfer shard {owner} -> shard {s}: \
                         dropped or corrupted interconnect message"
                    ),
                }));
            }
            received.extend_from_slice(&payload);
            i = j;
        }
        Ok(received)
    }

    /// Builds one vertex-indexed operand in shard `s`'s local vertex space,
    /// `halo-below ++ owned ++ halo-above`: the owned row span copied
    /// locally (borrowed in place when the shard has no halo), the halo
    /// rows from the *received* transfer payload — the real data path a
    /// dropped halo would corrupt.
    fn local_operand<'a>(
        &self,
        s: usize,
        data: &'a [f32],
        width: usize,
        halo_data: &[f32],
    ) -> Cow<'a, [f32]> {
        let spec = &self.partition.shards()[s];
        let owned = &data[spec.row_start * width..spec.row_end * width];
        if halo_data.is_empty() {
            return Cow::Borrowed(owned);
        }
        let (below, above) = halo_data.split_at(halo_below(&self.halos[s], spec) * width);
        Cow::Owned([below, owned, above].concat())
    }

    /// Runs any registry kernel sharded. `make` builds the kernel over a
    /// shard graph; `inputs` follow its [`Signature`] in the global vertex
    /// space: vertex operands are halo-exchanged at their width into each
    /// shard's local space, edge operands sliced to each shard's edge
    /// range. Returns every signature output merged — vertex outputs by
    /// owned row, edge outputs by edge range (the fused kernel's α is
    /// always produced) — and the run report.
    pub fn run(
        &self,
        make: &dyn Fn(&Arc<GraphData>) -> Kernel,
        inputs: &[&[f32]],
        f: usize,
    ) -> Result<(Vec<Vec<f32>>, ShardedReport), GnnOneError> {
        let kernel = make(&self.shard_graphs[0]);
        let (name, sig) = (kernel.name(), kernel.signature());
        self.check_len("inputs", inputs.len(), sig.inputs.len())?;
        for (i, (data, &(space, dim))) in inputs.iter().zip(sig.inputs).enumerate() {
            let want = space.rows(&self.graph) * dim.len(f);
            self.check_len(&format!("input #{i}"), data.len(), want)?;
        }
        let k = self.partition.num_shards();
        let mut report = ShardedReport::new(name, k);
        let mut merged: Vec<Vec<f32>> = sig
            .outputs
            .iter()
            .map(|&(space, dim)| vec![0.0f32; space.rows(&self.graph) * dim.len(f)])
            .collect();
        let mut plan = self.fire_plan();
        let mut completed = 0u64;
        for s in 0..k {
            let spec = self.partition.shards()[s];
            if spec.nnz() == 0 {
                // Nothing to launch: the shard's owned rows have no edges,
                // so its output contribution is exactly the zeros already
                // in place.
                completed += 1;
                continue;
            }
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                report.attempts[s] += 1;
                let mut t_ms = 0.0f64;
                let mut t_bytes = 0u64;
                let outcome = self.attempt_shard(
                    make,
                    (name, sig),
                    inputs,
                    f,
                    s,
                    &mut plan,
                    (&mut t_ms, &mut t_bytes),
                    &mut report.launches[s],
                );
                match outcome {
                    Ok((outputs, ms)) => {
                        report.compute_ms += ms;
                        report.transfer_ms += t_ms;
                        report.transfer_bytes += t_bytes;
                        let below = halo_below(&self.halos[s], &spec);
                        for ((dst, src), &(space, dim)) in
                            merged.iter_mut().zip(&outputs).zip(sig.outputs)
                        {
                            let w = dim.len(f);
                            match space {
                                Space::Vertex => dst[spec.row_start * w..spec.row_end * w]
                                    .copy_from_slice(
                                        &src[below * w..(below + spec.num_rows()) * w],
                                    ),
                                Space::Edge => {
                                    dst[spec.edge_start * w..spec.edge_end * w].copy_from_slice(src)
                                }
                            }
                        }
                        completed += 1;
                        break;
                    }
                    Err(err) => {
                        if attempt >= self.policy.max_attempts {
                            return Err(GnnOneError::ShardAbort(ShardAbort {
                                kernel: name.to_string(),
                                shard: s as u64,
                                shards: k as u64,
                                attempts: u64::from(attempt),
                                completed,
                                fault: plan
                                    .as_ref()
                                    .filter(|p| p.fired)
                                    .map(|p| p.kind.as_str().to_string()),
                                detail: err.to_string(),
                            }));
                        }
                        report
                            .recovered
                            .push(format!("shard {s} attempt {attempt}: {err}"));
                        let backoff = self.policy.backoff_ms(attempt);
                        report.backoff_ms.push(backoff);
                        if backoff > 0 {
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        report.retries += 1;
                    }
                }
            }
        }
        report.time_ms = report.compute_ms + report.transfer_ms;
        Ok((merged, report))
    }

    /// One supervised attempt at one shard: fault consult → halo gather →
    /// local operands → launch → kill/stall injection → deadline check.
    /// Returns the shard's raw outputs (vertex outputs over its local
    /// vertex space, edge outputs over its edge range) and its kernel time.
    #[allow(clippy::too_many_arguments)]
    fn attempt_shard(
        &self,
        make: &dyn Fn(&Arc<GraphData>) -> Kernel,
        (name, sig): (&str, Signature),
        inputs: &[&[f32]],
        f: usize,
        s: usize,
        plan: &mut Option<FirePlan>,
        (transfer_ms, transfer_bytes): (&mut f64, &mut u64),
        launches: &mut u32,
    ) -> Result<(Vec<Vec<f32>>, f64), GnnOneError> {
        if let Some(p) = plan.as_mut() {
            if p.kind == ShardFaultKind::TransientShardLaunch && p.target == s && !p.fired {
                p.fired = true;
                return Err(GnnOneError::Launch(LaunchError::Unlaunchable {
                    reason: format!("chaos-injected transient launch decline for shard {s}"),
                }));
            }
        }
        let spec = self.partition.shards()[s];
        let mut local = Vec::with_capacity(inputs.len());
        for (&data, &(space, dim)) in inputs.iter().zip(sig.inputs) {
            let w = dim.len(f);
            local.push(match space {
                Space::Vertex => {
                    let halo_data =
                        self.gather_halo(s, data, w, plan, transfer_ms, transfer_bytes)?;
                    self.local_operand(s, data, w, &halo_data)
                }
                Space::Edge => Cow::Borrowed(&data[spec.edge_start * w..spec.edge_end * w]),
            });
        }
        *launches += 1;
        let kernel = make(&self.shard_graphs[s]);
        let mut outputs: Vec<Vec<f32>> = kernel.output_lens(f).map(|n| vec![0.0; n]).collect();
        let mut ms = kernel
            .launch_host(
                self.topology.device(s),
                &local.iter().map(|c| &**c).collect::<Vec<_>>(),
                f,
                &mut outputs
                    .iter_mut()
                    .map(Vec::as_mut_slice)
                    .collect::<Vec<_>>(),
            )?
            .time_ms;
        if let Some(p) = plan.as_mut() {
            if p.target == s && !p.fired {
                match p.kind {
                    ShardFaultKind::ShardKill => {
                        p.fired = true;
                        // The device died mid-launch: work happened, output
                        // is lost, the supervisor sees a structured abort.
                        return Err(GnnOneError::Abort(KernelAbort {
                            kernel: name.to_string(),
                            warp_id: s as u64,
                            ops: 0,
                            budget: 0,
                            reason: AbortReason::ChaosKill,
                        }));
                    }
                    ShardFaultKind::ShardStall => {
                        p.fired = true;
                        // The device hangs: reported time blows through the
                        // per-shard deadline and the watchdog check below
                        // trips on the normal path.
                        ms += self.deadline_ms * 2.0;
                    }
                    _ => {}
                }
            }
        }
        if ms > self.deadline_ms {
            return Err(GnnOneError::Abort(KernelAbort {
                kernel: name.to_string(),
                warp_id: s as u64,
                ops: ms as u64,
                budget: self.deadline_ms as u64,
                reason: AbortReason::Watchdog,
            }));
        }
        Ok((outputs, ms))
    }

    /// Runs an SDDMM kernel sharded; a forward into [`Self::run`].
    pub fn run_sddmm(
        &self,
        make: &dyn Fn(&Arc<GraphData>) -> Box<dyn SddmmKernel>,
        x: &[f32],
        y: &[f32],
        f: usize,
    ) -> Result<(Vec<f32>, ShardedReport), GnnOneError> {
        let (mut outputs, report) = self.run(&|g| Kernel::Sddmm(make(g)), &[x, y], f)?;
        Ok((outputs.remove(0), report))
    }

    /// Runs an SpMM kernel sharded; a forward into [`Self::run`].
    pub fn run_spmm(
        &self,
        make: &dyn Fn(&Arc<GraphData>) -> Box<dyn SpmmKernel>,
        edge_vals: &[f32],
        x: &[f32],
        f: usize,
    ) -> Result<(Vec<f32>, ShardedReport), GnnOneError> {
        let (mut outputs, report) = self.run(&|g| Kernel::Spmm(make(g)), &[edge_vals, x], f)?;
        Ok((outputs.remove(0), report))
    }

    fn check_len(&self, what: &str, got: usize, want: usize) -> Result<(), GnnOneError> {
        if got != want {
            return Err(ValidationError::new(
                "ShardedExecutor",
                what,
                None,
                format!("operand `{what}` has {got} elements, expected {want}"),
            )
            .into());
        }
        Ok(())
    }
}

/// Order-independent content checksum over the f32 bit patterns: a
/// wrapping sum is enough to detect any dropped or bit-corrupted halo
/// message, and is deterministic across platforms.
fn checksum(data: &[f32]) -> u64 {
    data.iter()
        .fold(0u64, |acc, v| acc.wrapping_add(u64::from(v.to_bits())))
}
