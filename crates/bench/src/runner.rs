//! Shared sweep machinery for the figure binaries.
//!
//! The guarded entry points ([`SweepGuard`], [`run_guarded`] and
//! [`run_sharded`]) give every (kernel, dataset) cell crash isolation: a panic or
//! watchdog abort in one cell is caught, retried under a bounded
//! deterministic policy (aborts can be transient under a tight budget),
//! annotated with a CPU-reference fallback where one exists, and
//! quarantined with its attempt count — the figure completes and reports
//! the failure instead of dying mid-table. Expected structural failures (OOM,
//! grid overflow) are *not* quarantined: those are results the paper itself
//! reports, and their cells are unchanged.

use std::sync::Arc;

use gnnone_kernels::backend::{Backend, BackendKind, NativeEngine};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::ir::Space;
use gnnone_kernels::registry;
use gnnone_kernels::shard::{RetryPolicy, ShardTopology, ShardedExecutor};
use gnnone_kernels::traits::{Kernel, Op};
use gnnone_sim::engine::LaunchError;
use gnnone_sim::jsonio::Json;
use gnnone_sim::{DeviceBuffer, GnnOneError, Gpu};
use gnnone_sparse::datasets::{table1, Dataset, DatasetSpec, Scale};
use gnnone_sparse::reference;

use crate::cli::Options;
use crate::report::Cell;
use crate::{figure_gpu_spec, panic_message};

/// Builds the execution backend the options ask for: the figure-standard
/// simulator device for `--backend sim` (the default), or a
/// [`NativeEngine`] sized by `--threads` for `--backend native`.
///
/// When `--verify` is set (or `--sanitize` rides on the native backend),
/// the static pre-launch verifier runs first over every registry kernel
/// on the selected datasets — the backend is only handed out once every
/// obligation is `Proved`.
pub fn backend_from_options(opts: &Options) -> Result<Backend, GnnOneError> {
    crate::verify::static_preflight(opts)?;
    match opts.backend {
        BackendKind::Sim => Ok(Backend::Sim(Gpu::new(figure_gpu_spec()))),
        BackendKind::Native => {
            let eng = match opts.threads {
                Some(n) => NativeEngine::with_threads(n)
                    .map_err(|detail| GnnOneError::Config { detail })?,
                None => NativeEngine::new(),
            };
            Ok(Backend::Native(eng))
        }
    }
}

/// Rejects `--backend native` for figures whose measurement only exists on
/// the simulator (training curves, cycle breakdowns, GPU-spec sweeps).
/// The error names the binary so `figure_main`'s one-line report reads well.
/// Honours `--verify` the same way [`backend_from_options`] does, so
/// sim-only figures get the static preflight too.
pub fn require_sim_backend(opts: &Options, figure: &str) -> Result<(), GnnOneError> {
    require_unsharded(opts, figure)?;
    if opts.backend == BackendKind::Native {
        return Err(GnnOneError::Config {
            detail: format!(
                "{figure} measures simulator state (cycles/accuracy) and \
                 only supports --backend sim"
            ),
        });
    }
    crate::verify::static_preflight(opts)
}

/// Datasets selected by the options, in Table 1 order.
///
/// Unknown `--datasets` ids are an error listing the valid Table 1 ids —
/// previously a typo silently produced an empty sweep.
pub fn try_selected_specs(opts: &Options) -> Result<Vec<DatasetSpec>, String> {
    let all = table1();
    if opts.datasets.is_empty() {
        return Ok(all);
    }
    let unknown: Vec<&String> = opts
        .datasets
        .iter()
        .filter(|want| !all.iter().any(|s| s.id.eq_ignore_ascii_case(want)))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = all.iter().map(|s| s.id).collect();
        return Err(format!(
            "unknown dataset id(s) {}; valid Table 1 ids: {}",
            unknown
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            valid.join(", ")
        ));
    }
    Ok(all
        .into_iter()
        .filter(|s| {
            opts.datasets
                .iter()
                .any(|want| s.id.eq_ignore_ascii_case(want))
        })
        .collect())
}

/// Like [`try_selected_specs`], but panics on unknown ids — the figure
/// binaries fail loudly on bad flags.
pub fn selected_specs(opts: &Options) -> Vec<DatasetSpec> {
    match try_selected_specs(opts) {
        Ok(specs) => specs,
        Err(msg) => panic!("{msg}"),
    }
}

/// A loaded dataset with device-resident graph tensors.
pub struct LoadedDataset {
    /// Table 1 spec.
    pub spec: DatasetSpec,
    /// Realized analogue.
    pub dataset: Dataset,
    /// Device graph.
    pub graph: Arc<GraphData>,
}

/// Generates and uploads one dataset.
pub fn load(spec: &DatasetSpec, scale: Scale) -> LoadedDataset {
    let dataset = Dataset::generate(spec, scale);
    let graph = Arc::new(GraphData::new(dataset.coo.clone()));
    LoadedDataset {
        spec: spec.clone(),
        dataset,
        graph,
    }
}

/// Deterministic pseudo-random vertex features (`|V| × f`), matching the
/// GNNBench practice of generated features for unlabeled datasets (§5.3).
pub fn vertex_features(num_vertices: usize, f: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..num_vertices * f)
        .map(|_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((bits >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Deterministic pseudo-random edge values (`|E|`).
pub fn edge_values(nnz: usize, seed: u64) -> Vec<f32> {
    vertex_features(nnz, 1, seed ^ 0xeeee)
}

/// Rejects `--shards` for figures without a sharded execution path.
///
/// Only the kernel-sweep figures (fig3, fig4, fig12) route launches
/// through the [`gnnone_kernels::shard::ShardedExecutor`]; everywhere
/// else the flag would silently change nothing, so it is a structured
/// configuration error instead.
pub fn require_unsharded(opts: &Options, figure: &str) -> Result<(), GnnOneError> {
    if opts.shards.is_some() {
        return Err(GnnOneError::Config {
            detail: format!(
                "{figure} has no sharded execution path; --shards is \
                 supported by fig3, fig4 and fig12 (and `gnnone-prof shard`)"
            ),
        });
    }
    Ok(())
}

/// Builds the shard topology the options ask for: `K` simulated devices
/// on the figure-standard GPU spec for `--backend sim`, or `K` rayon
/// pools splitting `--threads` (default one thread per shard) for
/// `--backend native`.
pub fn shard_topology(opts: &Options, shards: usize) -> Result<ShardTopology, GnnOneError> {
    match opts.backend {
        BackendKind::Sim => Ok(ShardTopology::sim(figure_gpu_spec(), shards)),
        BackendKind::Native => {
            let total = opts.threads.unwrap_or(shards);
            ShardTopology::native(total, shards)
        }
    }
}

/// Builds a supervised sharded executor over one loaded dataset, running
/// under `policy` — pass the figure's [`SweepGuard::policy`] so a
/// quarantined shard record reports the schedule the executor ran.
pub fn sharded_executor(
    opts: &Options,
    ld: &LoadedDataset,
    shards: usize,
    policy: RetryPolicy,
) -> Result<ShardedExecutor, GnnOneError> {
    let topo = shard_topology(opts, shards)?;
    let mut exec = ShardedExecutor::new(Arc::clone(&ld.graph), shards, topo)?;
    exec.set_policy(policy);
    Ok(exec)
}

/// Operand seeds per family, in signature order: a figure cell, its
/// sharded run and a native bench cell all describe the same launch.
fn seeds(op: Op) -> &'static [u64] {
    match op {
        Op::Sddmm => &[11, 13],
        Op::Spmm => &[19, 17],
        Op::Spmv => &[29, 23],
        Op::EdgeApply => &[43, 47],
        Op::Fused => &[41, 43, 47],
    }
}

/// Host inputs for one `op` launch over `graph`, in signature order:
/// vertex operands from [`vertex_features`], edge operands from
/// [`edge_values`], each with its family's seed.
pub fn seeded_inputs(op: Op, graph: &GraphData, f: usize) -> Vec<Vec<f32>> {
    op.signature()
        .inputs
        .iter()
        .zip(seeds(op))
        .map(|(&(space, dim), &seed)| match space {
            Space::Vertex => vertex_features(graph.num_vertices(), dim.len(f), seed),
            Space::Edge => edge_values(graph.nnz(), seed),
        })
        .collect()
}

/// Runs the registry's `op` kernel named `name` shard-by-shard — each
/// shard builds its own instance with [`registry::by_name`], at the
/// registry's config — on seeded inputs (the same as [`run_guarded`]'s,
/// so `--shards 1` is byte-identical to the unsharded sweep); failures
/// quarantine with the shard id and retry schedule.
pub fn run_sharded(
    guard: &mut SweepGuard,
    exec: &ShardedExecutor,
    op: Op,
    name: &str,
    ld: &LoadedDataset,
    f: usize,
) -> Cell {
    let host = seeded_inputs(op, &ld.graph, f);
    let inputs: Vec<&[f32]> = host.iter().map(Vec::as_slice).collect();
    let make = |g: &Arc<GraphData>| match registry::by_name(g, op, name) {
        Some(k) => k,
        None => panic!("registry has no {} kernel named {name:?}", op.as_str()),
    };
    match exec.run(&make, &inputs, f) {
        Ok((_, report)) => Cell::Ms(report.time_ms),
        Err(e) => guard.quarantine_sharded(name, ld.spec.id, e),
    }
}

fn short_error(e: &gnnone_sim::engine::LaunchError) -> String {
    use gnnone_sim::engine::LaunchError::*;
    match e {
        Unlaunchable { .. } => "CRASH".to_string(),
        GridTooLarge { .. } => "ERR".to_string(),
        OutOfMemory { .. } => "OOM".to_string(),
        Aborted(_) => "ABORT".to_string(),
    }
}

/// One quarantined sweep cell: the failure survived every bounded retry
/// (or was a panic) and was isolated instead of killing the figure run.
#[derive(Debug)]
pub struct Quarantine {
    /// Kernel (system) name of the failed cell.
    pub kernel: String,
    /// Dataset ID of the failed cell.
    pub dataset: String,
    /// The structured failure (from the final attempt).
    pub error: GnnOneError,
    /// Total attempts made before quarantining (≥ 1); the cell was retried
    /// when this exceeds 1.
    pub attempts: u32,
    /// Backoff waits (milliseconds) applied between attempts, in order —
    /// the deterministic [`RetryPolicy::backoff_ms`] schedule as run.
    pub backoff_ms: Vec<u64>,
    /// Shard that exhausted its retries, when the failed cell was a
    /// sharded run; `None` for ordinary single-device cells.
    pub shard: Option<u64>,
    /// Note from the CPU-reference fallback, when one was available —
    /// proof the figure's data could still be produced without the kernel.
    pub fallback: Option<String>,
}

impl Quarantine {
    /// Whether the cell was retried before being quarantined.
    pub fn retried(&self) -> bool {
        self.attempts > 1
    }

    /// Serializes for machine consumption (fuzz findings, CI logs).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("attempts", Json::U64(self.attempts as u64)),
            ("retried", Json::Bool(self.retried())),
            (
                "backoff_ms",
                Json::Arr(self.backoff_ms.iter().map(|&b| Json::U64(b)).collect()),
            ),
            (
                "shard",
                match self.shard {
                    Some(s) => Json::U64(s),
                    None => Json::Null,
                },
            ),
            (
                "fallback",
                match &self.fallback {
                    Some(s) => Json::Str(s.clone()),
                    None => Json::Null,
                },
            ),
            ("error", self.error.to_json()),
        ])
    }
}

impl std::fmt::Display for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{} on {}: [{}] {}{}{}",
            self.kernel,
            match self.shard {
                Some(s) => format!(" [shard {s}]"),
                None => String::new(),
            },
            self.dataset,
            self.error.kind(),
            self.error,
            if self.retried() {
                format!(" (after {} attempts)", self.attempts)
            } else {
                String::new()
            },
            match &self.fallback {
                Some(s) => format!("; fallback: {s}"),
                None => String::new(),
            }
        )
    }
}

/// Collects quarantined cells across a figure sweep so binaries can finish
/// the table, then print (and exit non-zero on) what failed.
#[derive(Debug)]
pub struct SweepGuard {
    quarantined: Vec<Quarantine>,
    policy: RetryPolicy,
}

impl Default for SweepGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepGuard {
    /// Default retry bound: panics/aborts get up to three attempts per
    /// cell before quarantine (one initial run + two retries).
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

    /// Creates a guard with the default policy (three attempts, no
    /// backoff sleep — the simulator has no external contention to wait
    /// out, so the default keeps sweeps fast and fully deterministic).
    pub fn new() -> Self {
        Self::with_policy(RetryPolicy {
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
            ..RetryPolicy::default()
        })
    }

    /// Creates a guard with an explicit retry policy: up to
    /// `max_attempts` runs per cell (clamped to ≥ 1) with the policy's
    /// deterministic [`RetryPolicy::backoff_ms`] wait before each retry —
    /// the same ladder the sharded executor runs per shard, so a
    /// quarantined record reproduces exactly.
    pub fn with_policy(policy: RetryPolicy) -> Self {
        Self {
            quarantined: Vec::new(),
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
        }
    }

    /// The retry policy cells run under.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Runs one cell attempt with panic isolation and bounded retry.
    /// `attempt` returns simulated milliseconds or a [`LaunchError`];
    /// `fallback` (if given) runs only when the cell is quarantined, and
    /// its note is stored alongside the failure.
    ///
    /// Failure routing:
    /// * panic or [`LaunchError::Aborted`] → retry up to the policy's
    ///   attempt bound (deterministic exponential backoff between
    ///   attempts), then quarantine with tag `PANIC` / `ABORT` and the
    ///   attempt count in the [`Quarantine`] record;
    /// * any other [`LaunchError`] → plain `Err` cell exactly as the
    ///   unguarded runners produce (expected, paper-reported failures).
    pub fn guard_cell<A, F>(
        &mut self,
        kernel: &str,
        dataset: &str,
        mut attempt: A,
        fallback: Option<F>,
    ) -> Cell
    where
        A: FnMut() -> Result<f64, LaunchError>,
        F: FnOnce() -> String,
    {
        let mut attempts = 0u32;
        let mut backoffs = Vec::new();
        loop {
            attempts += 1;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut attempt));
            let (error, tag) = match outcome {
                Ok(Ok(ms)) => return Cell::Ms(ms),
                Ok(Err(LaunchError::Aborted(a))) => (GnnOneError::Abort(a), "ABORT"),
                Ok(Err(e)) => return Cell::Err(short_error(&e)),
                Err(payload) => (
                    GnnOneError::Panic {
                        context: format!("{kernel} on {dataset}"),
                        detail: panic_message(payload),
                    },
                    "PANIC",
                ),
            };
            if attempts < self.policy.max_attempts {
                let backoff_ms = self.policy.backoff_ms(attempts);
                if backoff_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                }
                backoffs.push(backoff_ms);
                continue;
            }
            let fallback = fallback.map(|f| f());
            self.quarantined.push(Quarantine {
                kernel: kernel.to_string(),
                dataset: dataset.to_string(),
                error,
                attempts,
                backoff_ms: backoffs,
                shard: None,
                fallback,
            });
            return Cell::Err(tag.to_string());
        }
    }

    /// Quarantines a failed sharded cell. The [`ShardAbort`] taxonomy
    /// already carries the shard id and supervision attempt count, so the
    /// record is built from the error instead of re-running anything; the
    /// recorded backoff schedule is the guard's policy's ladder for those
    /// attempts — the policy the executor ran (see [`sharded_executor`]).
    ///
    /// [`ShardAbort`]: gnnone_sim::error::ShardAbort
    pub fn quarantine_sharded(&mut self, kernel: &str, dataset: &str, error: GnnOneError) -> Cell {
        let (attempts, shard, tag) = match &error {
            GnnOneError::ShardAbort(a) => (a.attempts as u32, Some(a.shard), "ABORT"),
            GnnOneError::Launch(_) => (1, None, "CRASH"),
            _ => (1, None, "ERR"),
        };
        let backoff_ms = (1..attempts).map(|a| self.policy.backoff_ms(a)).collect();
        self.quarantined.push(Quarantine {
            kernel: kernel.to_string(),
            dataset: dataset.to_string(),
            error,
            attempts,
            backoff_ms,
            shard,
            fallback: None,
        });
        Cell::Err(tag.to_string())
    }

    /// Cells quarantined so far.
    pub fn quarantined(&self) -> &[Quarantine] {
        &self.quarantined
    }

    /// True when every cell ran clean.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Prints the quarantine summary and converts the guard into the
    /// figure's exit result: `Ok` when every cell ran clean, otherwise the
    /// first quarantined error (the figure still completed — this is the
    /// non-zero exit that makes the degradation visible).
    pub fn finish(mut self) -> Result<(), GnnOneError> {
        if self.report() {
            Err(self.quarantined.remove(0).error)
        } else {
            Ok(())
        }
    }

    /// Prints the quarantine summary to stderr; returns `true` when there
    /// was anything to report (the binary should exit non-zero).
    pub fn report(&self) -> bool {
        if self.quarantined.is_empty() {
            return false;
        }
        eprintln!(
            "quarantined {} cell(s) — figure completed without them:",
            self.quarantined.len()
        );
        for q in &self.quarantined {
            eprintln!("  {q}");
        }
        true
    }
}

fn checksum(values: &[f32]) -> f64 {
    values.iter().map(|&v| v as f64).sum()
}

/// The CPU reference for one runner launch on `inputs` (signature order);
/// `None` for the fused kernel, whose slope the reference would need.
fn cpu_reference(op: Op, ds: &Dataset, inputs: &[Vec<f32>], f: usize) -> Option<Vec<f32>> {
    let i = inputs;
    Some(match op {
        Op::Sddmm => reference::sddmm_coo_par(&ds.coo, &i[0], &i[1], f),
        Op::Spmm => reference::spmm_csr_par(&ds.csr, &i[0], &i[1], f),
        Op::Spmv => reference::spmv_csr(&ds.csr, &i[0], &i[1]),
        Op::EdgeApply => reference::u_add_v_coo(&ds.coo, &i[0], &i[1]),
        Op::Fused => return None,
    })
}

/// Runs one kernel on a loaded dataset under `guard`: seeded inputs,
/// panic/abort isolation, and a CPU-reference fallback annotation when
/// the cell is quarantined.
pub fn run_guarded(
    backend: &Backend,
    kernel: &Kernel,
    ld: &LoadedDataset,
    f: usize,
    guard: &mut SweepGuard,
) -> Cell {
    let op = kernel.op();
    let host = seeded_inputs(op, &ld.graph, f);
    let inputs: Vec<DeviceBuffer<f32>> = host.iter().map(|h| DeviceBuffer::from_slice(h)).collect();
    let out = DeviceBuffer::<f32>::zeros(kernel.output_lens(f).next().expect("one output"));
    guard.guard_cell(
        kernel.name(),
        ld.spec.id,
        || {
            kernel
                .launch(
                    backend.device(),
                    &inputs.iter().collect::<Vec<_>>(),
                    f,
                    &[&out],
                )
                .map(|r| r.time_ms)
        },
        Some(|| match cpu_reference(op, &ld.dataset, &host, f) {
            Some(out) => format!(
                "cpu-reference {} produced {} values (checksum {:.6e})",
                op.as_str(),
                out.len(),
                checksum(&out)
            ),
            None => format!("no cpu reference for {}", op.as_str()),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure_gpu_spec;
    use gnnone_kernels::registry;
    use gnnone_sparse::datasets::by_id;

    #[test]
    fn selected_specs_filters() {
        let mut opts = Options::default();
        assert_eq!(selected_specs(&opts).len(), 19);
        opts.datasets = vec!["g0".into(), "G10".into()];
        let sel = selected_specs(&opts);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[1].id, "G10");
    }

    #[test]
    fn unknown_dataset_id_is_an_error_listing_valid_ids() {
        let opts = Options {
            datasets: vec!["G0".into(), "G99".into()],
            ..Default::default()
        };
        let err = try_selected_specs(&opts).unwrap_err();
        assert!(err.contains("G99"), "{err}");
        assert!(err.contains("G0") && err.contains("G18"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unknown dataset id")]
    fn selected_specs_panics_on_unknown_id() {
        let opts = Options {
            datasets: vec!["notagraph".into()],
            ..Default::default()
        };
        selected_specs(&opts);
    }

    #[test]
    fn features_are_deterministic_and_centered() {
        let a = vertex_features(100, 4, 5);
        let b = vertex_features(100, 4, 5);
        assert_eq!(a, b);
        let mean: f32 = a.iter().sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(a.iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn guard_isolates_persistent_panics_with_fallback() {
        let mut guard = SweepGuard::new();
        let cell = guard.guard_cell(
            "K",
            "G0",
            || -> Result<f64, LaunchError> { panic!("boom") },
            Some(|| "cpu ok".to_string()),
        );
        assert_eq!(cell, Cell::Err("PANIC".into()));
        let q = &guard.quarantined()[0];
        assert_eq!(q.attempts, SweepGuard::DEFAULT_MAX_ATTEMPTS);
        assert!(q.retried());
        assert_eq!(q.fallback.as_deref(), Some("cpu ok"));
        assert_eq!(q.error.kind(), "panic");
        assert!(q.to_string().contains("boom"), "{q}");
        assert!(q.to_string().contains("after 3 attempts"), "{q}");
        let j = q.to_json().to_string_compact();
        assert!(j.contains("\"attempts\":3"), "{j}");
        assert!(guard.report());
    }

    #[test]
    fn guard_policy_bounds_attempts() {
        // A cell that always aborts burns exactly `max_attempts` tries.
        use gnnone_sim::{AbortReason, KernelAbort};
        let mut guard = SweepGuard::with_policy(RetryPolicy {
            max_attempts: 5,
            ..RetryPolicy::default()
        });
        let mut calls = 0u32;
        let cell = guard.guard_cell(
            "K",
            "G1",
            || {
                calls += 1;
                Err(LaunchError::Aborted(KernelAbort {
                    kernel: "K".into(),
                    warp_id: 0,
                    ops: 100,
                    budget: 10,
                    reason: AbortReason::Watchdog,
                }))
            },
            None::<fn() -> String>,
        );
        assert_eq!(cell, Cell::Err("ABORT".into()));
        assert_eq!(calls, 5);
        assert_eq!(guard.quarantined()[0].attempts, 5);
    }

    #[test]
    fn guard_single_attempt_policy_never_retries() {
        let mut guard = SweepGuard::with_policy(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        let cell = guard.guard_cell(
            "K",
            "G0",
            || -> Result<f64, LaunchError> { panic!("boom") },
            None::<fn() -> String>,
        );
        assert_eq!(cell, Cell::Err("PANIC".into()));
        let q = &guard.quarantined()[0];
        assert_eq!(q.attempts, 1);
        assert!(!q.retried());
        assert!(!q.to_string().contains("attempts"), "{q}");
    }

    #[test]
    fn guard_retry_recovers_transient_abort() {
        use gnnone_sim::{AbortReason, KernelAbort};
        let mut guard = SweepGuard::new();
        let mut first = true;
        let cell = guard.guard_cell(
            "K",
            "G1",
            || {
                if first {
                    first = false;
                    Err(LaunchError::Aborted(KernelAbort {
                        kernel: "K".into(),
                        warp_id: 0,
                        ops: 100,
                        budget: 10,
                        reason: AbortReason::Watchdog,
                    }))
                } else {
                    Ok(1.5)
                }
            },
            None::<fn() -> String>,
        );
        assert_eq!(cell, Cell::Ms(1.5));
        assert!(guard.is_clean());
        assert!(!guard.report());
    }

    #[test]
    fn guard_passes_expected_failures_through_unquarantined() {
        let mut guard = SweepGuard::new();
        let cell = guard.guard_cell(
            "K",
            "G2",
            || {
                Err(LaunchError::OutOfMemory {
                    requested: 1 << 40,
                    available: 1 << 30,
                })
            },
            None::<fn() -> String>,
        );
        assert_eq!(cell, Cell::Err("OOM".into()));
        assert!(guard.is_clean());
    }

    #[test]
    fn long_retry_ladders_stay_clamped() {
        // 70 attempts overflow an unclamped `base << (attempt - 1)`.
        let mut guard = SweepGuard::with_policy(RetryPolicy {
            max_attempts: 70,
            ..RetryPolicy::default()
        });
        let cell = guard.guard_cell(
            "K",
            "G0",
            || -> Result<f64, LaunchError> { panic!("boom") },
            None::<fn() -> String>,
        );
        assert_eq!(cell, Cell::Err("PANIC".into()));
        assert_eq!(guard.quarantined()[0].attempts, 70);

        let policy = RetryPolicy {
            max_attempts: 70,
            backoff_base_ms: 1,
            ..RetryPolicy::default()
        };
        let mut guard = SweepGuard::with_policy(policy);
        let abort = gnnone_sim::ShardAbort {
            kernel: "K".into(),
            shard: 1,
            shards: 2,
            attempts: 70,
            completed: 1,
            fault: None,
            detail: "exhausted".into(),
        };
        let cell = guard.quarantine_sharded("K", "G0", GnnOneError::ShardAbort(abort));
        assert_eq!(cell, Cell::Err("ABORT".into()));
        let q = &guard.quarantined()[0];
        assert_eq!(q.shard, Some(1));
        let ladder: Vec<u64> = (1..70).map(|a| policy.backoff_ms(a)).collect();
        assert_eq!(q.backoff_ms, ladder);
        assert_eq!(q.backoff_ms[..3], [1, 2, 4]);
    }

    #[test]
    fn guarded_runner_is_clean_on_every_registry_kernel() {
        let spec = by_id("G0").unwrap();
        let ld = load(&spec, Scale::Tiny);
        for backend in [
            Backend::Sim(Gpu::new(figure_gpu_spec())),
            Backend::Native(NativeEngine::with_threads(2).unwrap()),
        ] {
            let mut guard = SweepGuard::new();
            for k in registry::all(&ld.graph) {
                let cell = run_guarded(&backend, &k, &ld, 16, &mut guard);
                assert!(cell.ms().is_some(), "{} failed on tiny G0", k.name());
            }
            assert!(guard.is_clean());
        }
    }

    #[test]
    fn sharded_runner_at_one_shard_matches_the_guarded_sim_run() {
        let spec = by_id("G0").unwrap();
        let ld = load(&spec, Scale::Tiny);
        let backend = Backend::Sim(Gpu::new(figure_gpu_spec()));
        let mut guard = SweepGuard::new();
        let exec = sharded_executor(&Options::default(), &ld, 1, guard.policy()).unwrap();
        // The sharded fused kernel also writes α, which the guarded run
        // does not request, so its simulated time differs by design.
        for k in registry::all(&ld.graph)
            .iter()
            .filter(|k| k.op() != Op::Fused)
        {
            let plain = run_guarded(&backend, k, &ld, 8, &mut guard);
            let sharded = run_sharded(&mut guard, &exec, k.op(), k.name(), &ld, 8);
            assert_eq!(plain, sharded, "{} diverged at K=1", k.name());
        }
        assert!(guard.is_clean());
    }

    #[test]
    fn backend_from_options_builds_what_the_flags_ask_for() {
        let sim = backend_from_options(&Options::default()).unwrap();
        assert_eq!(sim.kind(), BackendKind::Sim);
        assert!(sim.as_gpu().is_some());

        let native = backend_from_options(&Options {
            backend: BackendKind::Native,
            threads: Some(3),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(native.kind(), BackendKind::Native);
        assert!(native.as_gpu().is_none());
        match &native {
            Backend::Native(eng) => assert_eq!(eng.threads(), 3),
            Backend::Sim(_) => unreachable!(),
        }
    }

    #[test]
    fn require_sim_backend_rejects_native_only() {
        let sim = Options::default();
        assert!(require_sim_backend(&sim, "table1").is_ok());
        let native = Options {
            backend: BackendKind::Native,
            ..Default::default()
        };
        let err = require_sim_backend(&native, "table1").unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("table1"), "{err}");
    }
}
