//! Shard-fault sweep — the engine behind `gnnone-prof shard`.
//!
//! Where the chaos sweep ([`crate::chaos`]) attacks single launches with a
//! misbehaving device, this sweep attacks the *distributed* layer: every
//! registry kernel is run shard-by-shard through the supervised
//! [`ShardedExecutor`] over a multi-pool native topology while one
//! [`ShardFaultKind`] per run is armed at a seeded shard. Each recovered
//! run's final merged output is compared **bitwise** against the same
//! kernel's fault-free *unsharded* launch (inputs are integer-valued
//! `f32`s, so every reduction is exact and order-invariant) and classified
//! into a [`ShardVerdict`]:
//!
//! * `recovered-identical` — the fault fired, the supervision loop retried
//!   the failed shard from its checkpoint, and the merged output is
//!   bit-identical to the fault-free unsharded run;
//! * `clean-not-injected` — the fault never found a target (e.g. a halo
//!   fault on a partition with no halos) and the run was bit-identical
//!   anyway;
//! * `degraded-declined` — retries exhausted and the executor returned the
//!   typed [`ShardAbort`] decline instead of a partial result. Honest, but
//!   a sweep failure: the default policy must absorb one-shot faults;
//! * `unexpected-error` — any other structured failure;
//! * `silent-corruption` — the run "succeeded" but the bits diverged.
//!   **The contract of this sweep is that this verdict never appears.**
//!
//! The sweep also checks fault-free sharded/unsharded bit-parity per
//! (kernel, K) and reports nnz-balance stats for every partition it built.
//! Every verdict reproduces from its `(kernel, dataset, K, fault, seed)`
//! tuple alone — the report prints the exact `gnnone-prof shard` command.
//!
//! [`ShardAbort`]: gnnone_sim::error::ShardAbort

use std::sync::Arc;

use gnnone_kernels::backend::Device;
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::registry::{self, SweepInputs};
use gnnone_kernels::shard::{RetryPolicy, ShardTopology, ShardedExecutor, ShardedReport};
use gnnone_kernels::traits::Op;
use gnnone_sim::jsonio::Json;
use gnnone_sim::{DeviceBuffer, GnnOneError, ShardFaultKind};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::PartitionStats;

use crate::chaos::{int_inputs, kernel_selected};

/// Shard-fault sweep configuration.
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Base fault seed; cell `s` of a fault's seed sweep arms `seed + s`.
    pub seed: u64,
    /// Table 1 ids to sweep at tiny scale (default: G0).
    pub dataset_ids: Vec<String>,
    /// Feature width for the dense operands.
    pub f: usize,
    /// Shard counts K to sweep.
    pub shards: Vec<usize>,
    /// Seeds per (kernel, K, fault) cell.
    pub seeds: u32,
    /// Case-insensitive registry kernel names to sweep (`--kernels`);
    /// empty means every registry kernel.
    pub kernels: Vec<String>,
    /// Total native worker threads split across the K pools
    /// (default: one thread per shard).
    pub threads: Option<usize>,
}

impl Default for ShardOpts {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            dataset_ids: vec!["G0".to_string()],
            f: 8,
            shards: vec![2, 4, 8],
            seeds: 8,
            kernels: Vec::new(),
            threads: None,
        }
    }
}

/// Classification of one sharded fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardVerdict {
    /// Fault fired, failed shard retried from its checkpoint, merged
    /// output bit-identical to the fault-free unsharded run.
    RecoveredIdentical,
    /// Fault found no target; output bit-identical anyway.
    CleanNotInjected,
    /// Retries exhausted — the executor declined with a typed
    /// `ShardAbort` instead of returning a partial result.
    DegradedDeclined,
    /// A structured failure outside the shard-abort taxonomy.
    UnexpectedError,
    /// The run reported success but the merged bits diverged — the
    /// verdict this sweep exists to rule out.
    SilentCorruption,
}

impl ShardVerdict {
    /// Every verdict, for report aggregation.
    pub const ALL: [ShardVerdict; 5] = [
        ShardVerdict::RecoveredIdentical,
        ShardVerdict::CleanNotInjected,
        ShardVerdict::DegradedDeclined,
        ShardVerdict::UnexpectedError,
        ShardVerdict::SilentCorruption,
    ];

    /// Stable lowercase slug.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShardVerdict::RecoveredIdentical => "recovered-identical",
            ShardVerdict::CleanNotInjected => "clean-not-injected",
            ShardVerdict::DegradedDeclined => "degraded-declined",
            ShardVerdict::UnexpectedError => "unexpected-error",
            ShardVerdict::SilentCorruption => "silent-corruption",
        }
    }
}

impl std::fmt::Display for ShardVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One classified (kernel, dataset, K, fault, seed) run.
#[derive(Debug, Clone)]
pub struct ShardCell {
    /// Registry kernel name.
    pub kernel: String,
    /// Kernel family (`sddmm`, `spmm`, `spmv`, `edge-apply`, `fused`).
    pub family: &'static str,
    /// Table 1 dataset id.
    pub dataset: String,
    /// Shard count K.
    pub shards: usize,
    /// The armed shard fault.
    pub fault: ShardFaultKind,
    /// The exact seed armed for this cell.
    pub seed: u64,
    /// Classification.
    pub verdict: ShardVerdict,
    /// Supervision retries spent (0 when the fault never fired).
    pub retries: u32,
    /// Total shard launches, proving checkpointed recovery re-executed
    /// only the failed shard (K + retries for kill/stall, K for
    /// preflight/halo faults).
    pub launches: u32,
    /// Human-readable evidence (recovery note, abort, divergence…).
    pub detail: String,
}

impl ShardCell {
    /// The exact command line that reproduces this cell.
    pub fn reproduce(&self) -> String {
        format!(
            "gnnone-prof shard --datasets {} --shards {} --kernels \"{}\" --seed {:#x} --seeds 1",
            self.dataset, self.shards, self.kernel, self.seed
        )
    }

    /// Serializes for the `--out` report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("family", Json::Str(self.family.to_string())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("shards", Json::U64(self.shards as u64)),
            ("fault", Json::Str(self.fault.as_str().to_string())),
            ("seed", Json::U64(self.seed)),
            ("verdict", Json::Str(self.verdict.as_str().to_string())),
            ("retries", Json::U64(self.retries as u64)),
            ("launches", Json::U64(self.launches as u64)),
            ("detail", Json::Str(self.detail.clone())),
            ("reproduce", Json::Str(self.reproduce())),
        ])
    }
}

impl std::fmt::Display for ShardCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}) / {} / K={} / {} (seed {:#x}): {} — {}",
            self.kernel,
            self.family,
            self.dataset,
            self.shards,
            self.fault,
            self.seed,
            self.verdict,
            self.detail
        )
    }
}

/// One fault-free sharded/unsharded bit-parity check.
#[derive(Debug, Clone)]
pub struct ParityCheck {
    /// Registry kernel name.
    pub kernel: String,
    /// Kernel family.
    pub family: &'static str,
    /// Table 1 dataset id.
    pub dataset: String,
    /// Shard count K.
    pub shards: usize,
    /// `true` when the sharded merge reproduced the unsharded bits.
    pub identical: bool,
    /// First divergence, when any.
    pub detail: String,
}

impl ParityCheck {
    /// Serializes for the `--out` report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("family", Json::Str(self.family.to_string())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("shards", Json::U64(self.shards as u64)),
            ("identical", Json::Bool(self.identical)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// Partition balance stats for one (dataset, K).
#[derive(Debug, Clone)]
pub struct PartitionSummary {
    /// Table 1 dataset id.
    pub dataset: String,
    /// Balance stats from [`gnnone_sparse::RowPartition::stats`].
    pub stats: PartitionStats,
}

impl PartitionSummary {
    /// Serializes for the `--out` report.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.stats.to_json() else {
            unreachable!("PartitionStats::to_json is an object")
        };
        fields.insert(0, ("dataset".into(), Json::Str(self.dataset.clone())));
        Json::Obj(fields)
    }
}

/// Outcome of a full shard-fault sweep.
#[derive(Debug)]
pub struct ShardReport {
    /// Base fault seed.
    pub seed: u64,
    /// Feature width used.
    pub f: usize,
    /// Datasets swept.
    pub datasets: Vec<String>,
    /// Shard counts swept.
    pub shards: Vec<usize>,
    /// Every classified (kernel × K × fault × seed) run.
    pub cells: Vec<ShardCell>,
    /// Fault-free sharded/unsharded parity checks, one per (kernel, K).
    pub parity: Vec<ParityCheck>,
    /// Partition balance stats, one per (dataset, K).
    pub partitions: Vec<PartitionSummary>,
}

impl ShardReport {
    /// Number of cells carrying `verdict`.
    pub fn verdict_count(&self, verdict: ShardVerdict) -> usize {
        self.cells.iter().filter(|c| c.verdict == verdict).count()
    }

    /// Cells that violate the sweep contract: silent corruption,
    /// unexpected errors, and degraded declines under the default policy.
    pub fn violations(&self) -> Vec<&ShardCell> {
        self.cells
            .iter()
            .filter(|c| {
                matches!(
                    c.verdict,
                    ShardVerdict::SilentCorruption
                        | ShardVerdict::UnexpectedError
                        | ShardVerdict::DegradedDeclined
                )
            })
            .collect()
    }

    /// `true` when no cell violated the contract and every fault-free
    /// parity check was bit-identical.
    pub fn clean(&self) -> bool {
        self.violations().is_empty() && self.parity.iter().all(|p| p.identical)
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let verdicts = Json::obj(
            ShardVerdict::ALL
                .iter()
                .map(|&v| (v.as_str(), Json::U64(self.verdict_count(v) as u64)))
                .collect(),
        );
        Json::obj(vec![
            ("seed", Json::U64(self.seed)),
            ("f", Json::U64(self.f as u64)),
            (
                "datasets",
                Json::Arr(self.datasets.iter().map(|d| Json::Str(d.clone())).collect()),
            ),
            (
                "shards",
                Json::Arr(self.shards.iter().map(|&k| Json::U64(k as u64)).collect()),
            ),
            ("verdicts", verdicts),
            (
                "partitions",
                Json::Arr(
                    self.partitions
                        .iter()
                        .map(PartitionSummary::to_json)
                        .collect(),
                ),
            ),
            (
                "parity",
                Json::Arr(self.parity.iter().map(ParityCheck::to_json).collect()),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(ShardCell::to_json).collect()),
            ),
            ("clean", Json::Bool(self.clean())),
        ])
    }

    /// Renders the recovery matrix: one row per (kernel, K), one column
    /// per shard fault, one letter per worst verdict over the seed sweep
    /// (`R`ecovered, `·` not injected, `D`eclined, `E`rror, `!` silent
    /// corruption).
    pub fn recovery_matrix(&self) -> String {
        fn letter(v: ShardVerdict) -> char {
            match v {
                ShardVerdict::RecoveredIdentical => 'R',
                ShardVerdict::CleanNotInjected => '·',
                ShardVerdict::DegradedDeclined => 'D',
                ShardVerdict::UnexpectedError => 'E',
                ShardVerdict::SilentCorruption => '!',
            }
        }
        // Worst-first severity order for folding a seed sweep to a letter.
        fn severity(v: ShardVerdict) -> u8 {
            match v {
                ShardVerdict::SilentCorruption => 4,
                ShardVerdict::UnexpectedError => 3,
                ShardVerdict::DegradedDeclined => 2,
                ShardVerdict::RecoveredIdentical => 1,
                ShardVerdict::CleanNotInjected => 0,
            }
        }
        let lattice = ShardFaultKind::lattice();
        let mut out = String::new();
        for ds in &self.datasets {
            for &k in &self.shards {
                out.push_str(&format!(
                    "dataset {ds}, K={k} (base seed {:#x}, {} seed(s)/cell):\n",
                    self.seed,
                    self.cells
                        .iter()
                        .filter(|c| &c.dataset == ds && c.shards == k)
                        .map(|c| c.seed)
                        .collect::<std::collections::BTreeSet<_>>()
                        .len()
                        .max(1)
                ));
                let kernels: Vec<(String, &'static str)> = {
                    let mut seen: Vec<(String, &'static str)> = Vec::new();
                    for c in self
                        .cells
                        .iter()
                        .filter(|c| &c.dataset == ds && c.shards == k)
                    {
                        if !seen.iter().any(|(n, f)| *n == c.kernel && *f == c.family) {
                            seen.push((c.kernel.clone(), c.family));
                        }
                    }
                    seen
                };
                let width = kernels
                    .iter()
                    .map(|(n, f)| n.len() + f.len() + 3)
                    .max()
                    .unwrap_or(6)
                    .max(6);
                out.push_str(&format!("  {:width$}", "kernel"));
                for fk in &lattice {
                    out.push_str(&format!(" {:>5}", column_tag(*fk)));
                }
                out.push('\n');
                for (name, family) in kernels {
                    let label = format!("{name} ({family})");
                    out.push_str(&format!("  {label:width$}"));
                    for fk in &lattice {
                        let worst = self
                            .cells
                            .iter()
                            .filter(|c| {
                                &c.dataset == ds
                                    && c.shards == k
                                    && c.kernel == name
                                    && c.family == family
                                    && c.fault == *fk
                            })
                            .map(|c| c.verdict)
                            .max_by_key(|&v| severity(v));
                        let ch = worst.map(letter).unwrap_or('?');
                        out.push_str(&format!(" {ch:>5}"));
                    }
                    out.push('\n');
                }
            }
        }
        out.push_str(
            "  R=recovered-identical ·=not-injected D=degraded-declined \
             E=unexpected-error !=silent-corruption\n",
        );
        out
    }
}

/// Short column header per shard fault.
fn column_tag(fault: ShardFaultKind) -> &'static str {
    match fault {
        ShardFaultKind::ShardKill => "kill",
        ShardFaultKind::ShardStall => "stall",
        ShardFaultKind::HaloDrop => "halo",
        ShardFaultKind::TransientShardLaunch => "trns",
    }
}

/// One kernel under test, with the bit-exact output of its fault-free
/// unsharded native run (every output, concatenated in signature order).
struct ShardProbe {
    op: Op,
    name: &'static str,
    reference: Vec<f32>,
}

impl ShardProbe {
    /// Runs the kernel through the executor, returning its merged outputs
    /// concatenated like [`Self::reference`] and the supervision report.
    fn run(
        &self,
        exec: &ShardedExecutor,
        inputs: &SweepInputs<Vec<f32>>,
        f: usize,
    ) -> Result<(Vec<f32>, ShardedReport), GnnOneError> {
        let inputs: Vec<&[f32]> = inputs
            .for_op(self.op)
            .into_iter()
            .map(Vec::as_slice)
            .collect();
        let make =
            |g: &Arc<GraphData>| registry::by_name(g, self.op, self.name).expect("registry kernel");
        exec.run(&make, &inputs, f)
            .map(|(outputs, report)| (outputs.concat(), report))
    }
}

/// Runs the full shard-fault sweep: every selected registry kernel ×
/// shard count × shard fault × seed, plus fault-free parity and
/// partition stats.
pub fn run_shard_sweep(opts: &ShardOpts) -> Result<ShardReport, GnnOneError> {
    let mut report = ShardReport {
        seed: opts.seed,
        f: opts.f,
        datasets: Vec::new(),
        shards: opts.shards.clone(),
        cells: Vec::new(),
        parity: Vec::new(),
        partitions: Vec::new(),
    };
    if opts.shards.is_empty() {
        return Err(GnnOneError::Config {
            detail: "shard sweep needs at least one shard count".to_string(),
        });
    }
    for id in &opts.dataset_ids {
        let ds = Dataset::try_by_id(id, Scale::Tiny)?;
        report.datasets.push(ds.spec.id.to_string());
        sweep_dataset(&ds, opts, &mut report)?;
    }
    Ok(report)
}

fn sweep_dataset(
    ds: &Dataset,
    opts: &ShardOpts,
    report: &mut ShardReport,
) -> Result<(), GnnOneError> {
    let graph = Arc::new(GraphData::new(ds.coo.clone()));
    registry::check_filter(&graph, &opts.kernels)?;
    let f = opts.f;

    let inputs = int_inputs(&graph, f);

    // Reference device: one unsharded native engine.
    let eng = gnnone_kernels::backend::NativeEngine::with_threads(opts.threads.unwrap_or(2))
        .map_err(|detail| GnnOneError::Config { detail })?;
    let device_inputs = inputs.upload();
    let mut probes = Vec::new();
    for k in registry::all(&graph) {
        if !kernel_selected(&opts.kernels, k.name()) {
            continue;
        }
        let outputs: Vec<DeviceBuffer<f32>> = k.output_lens(f).map(DeviceBuffer::zeros).collect();
        k.launch(
            Device::Native(&eng),
            &device_inputs.for_op(k.op()),
            f,
            &outputs.iter().collect::<Vec<_>>(),
        )?;
        probes.push(ShardProbe {
            op: k.op(),
            name: k.name(),
            reference: outputs.iter().flat_map(DeviceBuffer::to_vec).collect(),
        });
    }

    let dataset = ds.spec.id.to_string();
    for &k in &opts.shards {
        let topo = ShardTopology::native(opts.threads.unwrap_or(k), k)?;
        let mut exec = ShardedExecutor::new(Arc::clone(&graph), k, topo)?;
        exec.set_policy(RetryPolicy::default());
        report.partitions.push(PartitionSummary {
            dataset: dataset.clone(),
            stats: exec.partition().stats(),
        });

        for probe in &probes {
            // Fault-free parity first: the baseline the fault cells rest on.
            exec.clear_fault();
            let (identical, detail) = match probe.run(&exec, &inputs, f) {
                Ok((out, _)) => {
                    if bits(&out) == bits(&probe.reference) {
                        (true, String::new())
                    } else {
                        (false, first_divergence(&out, &probe.reference))
                    }
                }
                Err(e) => (false, format!("fault-free sharded run failed: {e}")),
            };
            report.parity.push(ParityCheck {
                kernel: probe.name.to_string(),
                family: probe.op.as_str(),
                dataset: dataset.clone(),
                shards: k,
                identical,
                detail,
            });

            for fault in ShardFaultKind::lattice() {
                for s in 0..u64::from(opts.seeds) {
                    let seed = opts.seed.wrapping_add(s);
                    exec.arm_fault(fault, seed);
                    let (verdict, retries, launches, detail) = match probe.run(&exec, &inputs, f) {
                        Ok((out, rep)) => {
                            let launches: u32 = rep.launches.iter().sum();
                            if bits(&out) != bits(&probe.reference) {
                                (
                                    ShardVerdict::SilentCorruption,
                                    rep.retries,
                                    launches,
                                    first_divergence(&out, &probe.reference),
                                )
                            } else if rep.retries > 0 {
                                (
                                    ShardVerdict::RecoveredIdentical,
                                    rep.retries,
                                    launches,
                                    rep.recovered.join("; "),
                                )
                            } else {
                                (
                                    ShardVerdict::CleanNotInjected,
                                    0,
                                    launches,
                                    "fault never fired".to_string(),
                                )
                            }
                        }
                        Err(GnnOneError::ShardAbort(a)) => (
                            ShardVerdict::DegradedDeclined,
                            a.attempts.saturating_sub(1) as u32,
                            0,
                            a.to_string(),
                        ),
                        Err(e) => (ShardVerdict::UnexpectedError, 0, 0, e.to_string()),
                    };
                    report.cells.push(ShardCell {
                        kernel: probe.name.to_string(),
                        family: probe.op.as_str(),
                        dataset: dataset.clone(),
                        shards: k,
                        fault,
                        seed,
                        verdict,
                        retries,
                        launches,
                        detail,
                    });
                }
            }
        }
        exec.clear_fault();
    }
    Ok(())
}

/// Bit view for exact output comparison.
fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

fn first_divergence(got: &[f32], want: &[f32]) -> String {
    if got.len() != want.len() {
        return format!("length diverged: {} vs {}", got.len(), want.len());
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => format!(
            "bits diverged from the unsharded run at index {i}: {} vs {}",
            got[i], want[i]
        ),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ShardOpts {
        ShardOpts {
            shards: vec![2, 4],
            seeds: 2,
            kernels: vec!["GnnOne".into(), "FusedGAT".into(), "GnnOne-UAddV".into()],
            threads: Some(2),
            ..Default::default()
        }
    }

    #[test]
    fn shard_sweep_on_g0_is_clean_and_recovers_every_fault() {
        let report = run_shard_sweep(&quick_opts()).unwrap();
        for v in report.violations() {
            eprintln!("violation: {v}");
        }
        for p in report.parity.iter().filter(|p| !p.identical) {
            eprintln!(
                "parity divergence: {} K={} — {}",
                p.kernel, p.shards, p.detail
            );
        }
        assert!(report.clean(), "shard sweep not clean");
        // GnnOne names one kernel in each of sddmm/spmm/spmv, plus the
        // fused and edge-apply singletons: 5 probes × 2 K × 4 faults × 2
        // seeds.
        assert_eq!(report.cells.len(), 5 * 2 * 4 * 2);
        assert_eq!(report.parity.len(), 5 * 2);
        assert_eq!(report.partitions.len(), 2);
        // Coverage: most faults must actually fire and be recovered.
        let recovered = report.verdict_count(ShardVerdict::RecoveredIdentical);
        assert!(
            recovered >= report.cells.len() / 2,
            "only {recovered} recovered of {}",
            report.cells.len()
        );
        // Checkpointed recovery: a recovered kill/stall re-executes only
        // the failed shard (K + 1 launches), never the whole sweep.
        for c in report.cells.iter().filter(|c| {
            c.verdict == ShardVerdict::RecoveredIdentical
                && matches!(
                    c.fault,
                    ShardFaultKind::ShardKill | ShardFaultKind::ShardStall
                )
        }) {
            assert!(
                c.launches <= c.shards as u32 + c.retries,
                "{c}: {} launches for K={} with {} retries",
                c.launches,
                c.shards,
                c.retries
            );
        }
    }

    #[test]
    fn unknown_kernel_filter_is_a_config_error() {
        let mut opts = quick_opts();
        opts.kernels = vec!["NoSuchKernel".into()];
        let err = run_shard_sweep(&opts).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("NoSuchKernel"), "{err}");
    }

    #[test]
    fn shard_verdicts_reproduce_from_the_seed() {
        let mut opts = quick_opts();
        opts.shards = vec![2];
        opts.kernels = vec!["GnnOne-UAddV".into()];
        let a = run_shard_sweep(&opts).unwrap();
        let b = run_shard_sweep(&opts).unwrap();
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.kernel, y.kernel);
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.verdict, y.verdict, "{x} not reproducible");
            assert_eq!(x.launches, y.launches);
        }
    }

    #[test]
    fn report_serializes_and_renders() {
        let mut opts = quick_opts();
        opts.shards = vec![2];
        opts.seeds = 1;
        opts.kernels = vec!["GnnOne-UAddV".into()];
        let report = run_shard_sweep(&opts).unwrap();
        let j = report.to_json().to_string_compact();
        assert!(j.contains("\"clean\":true"), "{j}");
        assert!(j.contains("\"recovered-identical\""), "{j}");
        assert!(j.contains("\"reproduce\""), "{j}");
        assert!(j.contains("gnnone-prof shard --datasets G0"), "{j}");
        let m = report.recovery_matrix();
        assert!(m.contains("kill"), "{m}");
        assert!(m.contains("GnnOne-UAddV"), "{m}");
        let cell = &report.cells[0];
        assert!(
            cell.reproduce().contains("--seeds 1"),
            "{}",
            cell.reproduce()
        );
    }
}
