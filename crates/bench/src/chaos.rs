//! Registry-wide deterministic fault-injection sweep — the engine behind
//! `gnnone-prof chaos`.
//!
//! Where the fuzz sweep ([`crate::fuzz`]) attacks the kernels with hostile
//! *inputs*, the chaos sweep attacks them with a misbehaving *device*:
//! every registry kernel is launched once per [`FaultKind`] in the lattice
//! with a seeded [`gnnone_sim::ChaosEngine`] attached, alongside the sanitizer and the
//! (always-armed) watchdog. Each injected run is cross-checked against the
//! CPU references in [`gnnone_sparse::reference`] (and
//! [`fused_gat_reference`]) and classified into a resilience [`Verdict`]:
//!
//! * `detected-by-sanitizer` — the shadow oracle flagged the fault;
//! * `aborted-by-watchdog` — a structured abort terminated the launch
//!   (instruction-budget trip, bounds trap, or the chaos kill itself);
//! * `structured-decline` — the launch was refused with a typed error;
//! * `masked` — the fault fired but the output still matches the CPU
//!   reference (e.g. the corrupted value was never consumed);
//! * `silent-data-corruption` — the fault fired, nothing complained, and
//!   the output is wrong. **The contract of this sweep is that this verdict
//!   never appears.**
//!
//! The sweep also proves the engine's determinism contract: for the Fig. 4
//! / Fig. 8 kernel families (and every other non-fused family), outputs
//! and cycle counts must be bit-identical across ≥ 8 schedule-chaos seeds.
//! Inputs are integer-valued `f32`s, so every reduction is exact and
//! therefore order-invariant — any bitwise divergence is a real
//! scheduling-dependence bug, not float noise. Every verdict reproduces
//! from its `(kernel, dataset, fault, seed)` tuple alone.

use std::sync::Arc;

use gnnone_kernels::backend::Device;
use gnnone_kernels::gnnone::fused::fused_gat_reference;
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::registry::{self, SweepInputs};
use gnnone_kernels::traits::{Kernel, Op};
use gnnone_sim::engine::LaunchError;
use gnnone_sim::jsonio::Json;
use gnnone_sim::{ChaosConfig, DeviceBuffer, FaultKind, GnnOneError, Gpu, SanitizeConfig, Verdict};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::reference;

use crate::panic_message;

/// Relative-error ceiling for the CPU cross-check: at or below this the
/// fault is `masked`, above it is `silent-data-corruption`. Loose enough
/// for association-order noise in the fused (exp) path, tight enough that
/// a consumed bit flip or dropped update cannot hide.
pub const MASKED_REL_TOL: f32 = 1e-3;

/// Chaos sweep configuration.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Fault seed: targeting (warp, firing point, flipped bits) and the
    /// schedule permutations all derive from it.
    pub seed: u64,
    /// Table 1 ids to sweep at tiny scale (default: G0).
    pub dataset_ids: Vec<String>,
    /// Feature width for the dense operands.
    pub f: usize,
    /// Number of schedule-chaos seeds to assert bit-identity across.
    pub schedule_seeds: u32,
    /// Case-insensitive registry kernel names to sweep (`--kernels`);
    /// empty means every registry kernel.
    pub kernels: Vec<String>,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            dataset_ids: vec!["G0".to_string()],
            f: 8,
            schedule_seeds: 8,
            kernels: Vec::new(),
        }
    }
}

/// `true` when the `--kernels` filter (empty = everything) selects `name`.
pub(crate) fn kernel_selected(filter: &[String], name: &str) -> bool {
    filter.is_empty() || filter.iter().any(|want| want.eq_ignore_ascii_case(name))
}

/// One classified fault-injection run. Rerunning the same
/// `(kernel, dataset, fault, seed)` tuple reproduces the verdict exactly.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Registry kernel name.
    pub kernel: String,
    /// Table 1 dataset id.
    pub dataset: String,
    /// The injected fault.
    pub fault: FaultKind,
    /// The fault seed.
    pub seed: u64,
    /// Resilience classification.
    pub verdict: Verdict,
    /// Human-readable evidence (finding count, abort, error distance…).
    pub detail: String,
}

impl ChaosCell {
    /// Serializes for the `--out` report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("fault", self.fault.to_json()),
            ("seed", Json::U64(self.seed)),
            ("verdict", Json::Str(self.verdict.as_str().to_string())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

impl std::fmt::Display for ChaosCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} / {} / {} (seed {}): {} — {}",
            self.kernel, self.dataset, self.fault, self.seed, self.verdict, self.detail
        )
    }
}

/// One kernel's schedule-determinism check: bit-identical output and cycle
/// count across every tested schedule seed.
#[derive(Debug, Clone)]
pub struct ScheduleCheck {
    /// Registry kernel name.
    pub kernel: String,
    /// Table 1 dataset id.
    pub dataset: String,
    /// How many permuted schedules were compared against the canonical run.
    pub seeds_checked: u32,
    /// `true` when every seed reproduced the canonical bits and cycles.
    pub identical: bool,
    /// First divergence, when any.
    pub detail: String,
}

impl ScheduleCheck {
    /// Serializes for the `--out` report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("seeds_checked", Json::U64(self.seeds_checked as u64)),
            ("identical", Json::Bool(self.identical)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// Outcome of a full chaos sweep.
#[derive(Debug)]
pub struct ChaosReport {
    /// The fault seed everything derives from.
    pub seed: u64,
    /// Feature width used.
    pub f: usize,
    /// Datasets swept.
    pub datasets: Vec<String>,
    /// Every classified (kernel × fault) run.
    pub cells: Vec<ChaosCell>,
    /// Schedule-determinism results.
    pub schedule: Vec<ScheduleCheck>,
}

impl ChaosReport {
    /// Number of cells carrying `verdict`.
    pub fn verdict_count(&self, verdict: Verdict) -> usize {
        self.cells.iter().filter(|c| c.verdict == verdict).count()
    }

    /// Cells where a fault fired and nothing caught it — the verdict the
    /// sweep exists to rule out.
    pub fn silent_corruptions(&self) -> Vec<&ChaosCell> {
        self.cells
            .iter()
            .filter(|c| c.verdict == Verdict::SilentDataCorruption)
            .collect()
    }

    /// `true` when no silent corruption occurred and every schedule check
    /// was bit-identical.
    pub fn clean(&self) -> bool {
        self.silent_corruptions().is_empty() && self.schedule.iter().all(|s| s.identical)
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let verdicts = Json::obj(
            Verdict::ALL
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
            ("verdicts", verdicts),
            (
                "cells",
                Json::Arr(self.cells.iter().map(ChaosCell::to_json).collect()),
            ),
            (
                "schedule",
                Json::Arr(self.schedule.iter().map(ScheduleCheck::to_json).collect()),
            ),
            ("clean", Json::Bool(self.clean())),
        ])
    }

    /// Renders the resilience matrix: one row per kernel, one column per
    /// lattice fault, one letter per verdict (`S`anitizer, `W`atchdog
    /// abort, structured `D`ecline, `M`asked, `!` silent corruption, `·`
    /// not injected).
    pub fn resilience_matrix(&self) -> String {
        fn letter(v: Verdict) -> char {
            match v {
                Verdict::DetectedBySanitizer => 'S',
                Verdict::AbortedByWatchdog => 'W',
                Verdict::StructuredDecline => 'D',
                Verdict::Masked => 'M',
                Verdict::SilentDataCorruption => '!',
                Verdict::NotInjected => '·',
            }
        }
        let lattice = FaultKind::lattice();
        let mut out = String::new();
        for ds in &self.datasets {
            out.push_str(&format!("dataset {ds} (fault seed {}):\n", self.seed));
            let kernels: Vec<&str> = {
                let mut seen = Vec::new();
                for c in self.cells.iter().filter(|c| &c.dataset == ds) {
                    if !seen.contains(&c.kernel.as_str()) {
                        seen.push(c.kernel.as_str());
                    }
                }
                seen
            };
            let width = kernels.iter().map(|k| k.len()).max().unwrap_or(6).max(6);
            out.push_str(&format!("  {:width$}", "kernel"));
            for fk in &lattice {
                out.push_str(&format!(" {:>4}", column_tag(*fk)));
            }
            out.push('\n');
            for k in kernels {
                out.push_str(&format!("  {k:width$}"));
                for fk in &lattice {
                    let v = self
                        .cells
                        .iter()
                        .find(|c| &c.dataset == ds && c.kernel == k && c.fault == *fk)
                        .map(|c| letter(c.verdict))
                        .unwrap_or('?');
                    out.push_str(&format!(" {v:>4}"));
                }
                out.push('\n');
            }
        }
        out.push_str(
            "  S=detected-by-sanitizer W=aborted-by-watchdog D=structured-decline \
             M=masked !=silent-data-corruption ·=not-injected\n",
        );
        out
    }
}

/// Short column header per lattice fault.
fn column_tag(fault: FaultKind) -> &'static str {
    match fault {
        FaultKind::GlobalBitFlip { flips } => {
            if flips > 1 {
                "gbf2"
            } else {
                "gbf"
            }
        }
        FaultKind::SharedBitFlip { .. } => "sbf",
        FaultKind::AtomicDrop => "drop",
        FaultKind::BarrierElide => "sync",
        FaultKind::WarpKill => "kill",
        FaultKind::WarpStall => "stal",
        FaultKind::LaunchTransient => "trns",
    }
}

/// Integer-valued sweep inputs: every value is a small integer, so all
/// products and partial sums stay exact in `f32` (far below 2^24) and any
/// reduction order yields bit-identical results — the property the
/// schedule-determinism check and the bitwise shard sweep rest on.
pub(crate) fn int_inputs(graph: &GraphData, f: usize) -> SweepInputs<Vec<f32>> {
    let int_features = |n: usize, modulus: usize, offset: f32| -> Vec<f32> {
        (0..n).map(|i| (i % modulus) as f32 - offset).collect()
    };
    let nv = graph.num_vertices();
    SweepInputs {
        x: int_features(nv * f, 7, 3.0),
        z: int_features(nv * f, 5, 2.0),
        w: (0..graph.nnz()).map(|e| ((e % 4) + 1) as f32).collect(),
        el: int_features(nv, 3, 1.0),
        er: int_features(nv, 9, 4.0),
    }
}

/// One kernel under test: its output buffers and what the CPU reference
/// says the first output must be.
struct Probe {
    kernel: Kernel,
    outputs: Vec<DeviceBuffer<f32>>,
    expected: Vec<f32>,
}

impl Probe {
    /// Zeroes the outputs and launches on `gpu`, returning the cycle count
    /// or a structured decline.
    fn run(
        &self,
        gpu: &Gpu,
        inputs: &SweepInputs<DeviceBuffer<f32>>,
        f: usize,
    ) -> Result<u64, LaunchError> {
        for out in &self.outputs {
            out.fill_default();
        }
        let outputs: Vec<_> = self.outputs.iter().collect();
        self.kernel
            .launch(
                Device::Sim(gpu),
                &inputs.for_op(self.kernel.op()),
                f,
                &outputs,
            )
            .map(|r| r.cycles.unwrap_or_default())
    }

    fn out(&self) -> Vec<f32> {
        self.outputs[0].to_vec()
    }
}

/// Runs the full chaos sweep: every registry kernel × the full fault
/// lattice, plus the schedule-determinism pass. Never panics — every
/// launch is individually isolated. An unknown dataset id or `--kernels`
/// name is a typed configuration error.
pub fn run_chaos(opts: &ChaosOpts) -> Result<ChaosReport, GnnOneError> {
    let mut report = ChaosReport {
        seed: opts.seed,
        f: opts.f,
        datasets: Vec::new(),
        cells: Vec::new(),
        schedule: Vec::new(),
    };
    for id in &opts.dataset_ids {
        let ds = Dataset::try_by_id(id, Scale::Tiny)?;
        report.datasets.push(ds.spec.id.to_string());
        sweep_dataset(&ds, opts, &mut report)?;
    }
    Ok(report)
}

fn sweep_dataset(
    ds: &Dataset,
    opts: &ChaosOpts,
    report: &mut ChaosReport,
) -> Result<(), GnnOneError> {
    let graph = Arc::new(GraphData::new(ds.coo.clone()));
    registry::check_filter(&graph, &opts.kernels)?;
    let f = opts.f;

    let host = int_inputs(&graph, f);
    let inputs = host.upload();
    let probes: Vec<Probe> = registry::all(&graph)
        .into_iter()
        .filter(|k| kernel_selected(&opts.kernels, k.name()))
        .map(|kernel| {
            let h = &host;
            let expected = match kernel.op() {
                Op::Sddmm => reference::sddmm_coo(&ds.coo, &h.x, &h.z, f),
                Op::Spmm => reference::spmm_csr(&ds.csr, &h.w, &h.x, f),
                Op::Spmv => reference::spmv_csr(&ds.csr, &h.w, &h.el),
                Op::EdgeApply => reference::u_add_v_coo(&ds.coo, &h.el, &h.er),
                Op::Fused => fused_gat_reference(&graph, &h.z, &h.el, &h.er, f, 0.2).0,
            };
            let outputs = kernel.output_lens(f).map(DeviceBuffer::zeros).collect();
            Probe {
                kernel,
                outputs,
                expected,
            }
        })
        .collect();

    let dataset = ds.spec.id.to_string();

    // --- fault lattice ---------------------------------------------------
    for probe in &probes {
        for fault in FaultKind::lattice() {
            let gpu = Gpu::new(crate::figure_gpu_spec());
            let san = gpu.enable_sanitizer(SanitizeConfig::on());
            let chaos = gpu.enable_chaos(ChaosConfig::fault(fault, opts.seed));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                probe.run(&gpu, &inputs, f)
            }));
            let injected = chaos.injections() > 0;
            let findings = san.finding_count();
            let (verdict, detail) = if findings > 0 {
                (
                    Verdict::DetectedBySanitizer,
                    format!("{findings} sanitizer finding(s)"),
                )
            } else {
                match outcome {
                    Ok(Err(LaunchError::Aborted(a))) => (Verdict::AbortedByWatchdog, a.to_string()),
                    Ok(Err(e)) => (Verdict::StructuredDecline, e.to_string()),
                    Err(payload) => (
                        // A raw panic escaping the engine is the one thing
                        // worse than silent corruption — classify it as SDC
                        // so the sweep fails loudly.
                        Verdict::SilentDataCorruption,
                        format!("panic escaped the engine: {}", panic_message(payload)),
                    ),
                    Ok(Ok(_)) if !injected => {
                        (Verdict::NotInjected, "fault never fired".to_string())
                    }
                    Ok(Ok(_)) => {
                        let err = reference::max_rel_error(&probe.out(), &probe.expected);
                        if err <= MASKED_REL_TOL {
                            (Verdict::Masked, format!("max rel err {err:.3e}"))
                        } else {
                            (
                                Verdict::SilentDataCorruption,
                                format!(
                                    "output diverged from cpu reference: max rel err {err:.3e}"
                                ),
                            )
                        }
                    }
                }
            };
            report.cells.push(ChaosCell {
                kernel: probe.kernel.name().to_string(),
                dataset: dataset.clone(),
                fault,
                seed: opts.seed,
                verdict,
                detail,
            });
        }
    }

    // --- schedule determinism --------------------------------------------
    // Everything but the fused kernel, whose exponentials are not exact
    // arithmetic.
    for probe in probes.iter().filter(|p| p.kernel.op() != Op::Fused) {
        let gpu = Gpu::new(crate::figure_gpu_spec());
        let canonical = probe.run(&gpu, &inputs, f);
        let canonical_bits: Vec<u32> = probe.out().iter().map(|v| v.to_bits()).collect();
        let mut identical = true;
        let mut detail = String::new();
        let canonical_cycles = match canonical {
            Ok(c) => c,
            Err(e) => {
                identical = false;
                detail = format!("canonical launch failed: {e}");
                0
            }
        };
        if identical {
            for s in 1..=opts.schedule_seeds as u64 {
                let seed = opts.seed.wrapping_add(s);
                let gpu = Gpu::new(crate::figure_gpu_spec());
                gpu.enable_chaos(ChaosConfig::schedule(seed));
                match probe.run(&gpu, &inputs, f) {
                    Ok(cycles) => {
                        let bits: Vec<u32> = probe.out().iter().map(|v| v.to_bits()).collect();
                        if bits != canonical_bits {
                            identical = false;
                            detail = format!("output bits diverged under schedule seed {seed}");
                            break;
                        }
                        if cycles != canonical_cycles {
                            identical = false;
                            detail = format!(
                                "cycle count diverged under schedule seed {seed}: \
                                 {cycles} vs {canonical_cycles}"
                            );
                            break;
                        }
                    }
                    Err(e) => {
                        identical = false;
                        detail = format!("launch failed under schedule seed {seed}: {e}");
                        break;
                    }
                }
            }
        }
        report.schedule.push(ScheduleCheck {
            kernel: probe.kernel.name().to_string(),
            dataset: dataset.clone(),
            seeds_checked: opts.schedule_seeds,
            identical,
            detail,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_on_g0_is_clean_and_covers_the_lattice() {
        let opts = ChaosOpts {
            dataset_ids: vec!["G0".to_string()],
            ..Default::default()
        };
        let report = run_chaos(&opts).unwrap();
        for c in report.silent_corruptions() {
            eprintln!("SDC: {c}");
        }
        for s in report.schedule.iter().filter(|s| !s.identical) {
            eprintln!("schedule divergence: {} — {}", s.kernel, s.detail);
        }
        assert!(report.clean(), "chaos sweep not clean");
        // 21 registry kernels × 8 lattice faults.
        assert_eq!(report.cells.len(), 21 * FaultKind::lattice().len());
        // Coverage: a sweep where most faults never fire proves nothing.
        let injected = report.cells.len() - report.verdict_count(Verdict::NotInjected);
        assert!(
            injected >= report.cells.len() / 2,
            "only {injected} injected"
        );
        // The determinism contract: ≥ 8 seeds, all bit-identical.
        assert!(report.schedule.len() >= 12);
        assert!(report.schedule.iter().all(|s| s.seeds_checked >= 8));
    }

    #[test]
    fn kernels_filter_restricts_the_sweep() {
        let opts = ChaosOpts {
            kernels: vec!["gnnone".to_string()],
            schedule_seeds: 1,
            ..Default::default()
        };
        let report = run_chaos(&opts).unwrap();
        assert!(!report.cells.is_empty());
        assert!(report.cells.len() < 21 * FaultKind::lattice().len());
        assert!(report
            .cells
            .iter()
            .all(|c| c.kernel.eq_ignore_ascii_case("GnnOne")));
        assert!(report
            .schedule
            .iter()
            .all(|s| s.kernel.eq_ignore_ascii_case("GnnOne")));
    }

    #[test]
    fn unknown_kernel_filter_is_a_config_error() {
        let opts = ChaosOpts {
            kernels: vec!["NoSuchKernel".to_string()],
            schedule_seeds: 1,
            ..Default::default()
        };
        let err = run_chaos(&opts).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("NoSuchKernel"), "{err}");
    }

    #[test]
    fn chaos_verdicts_reproduce_from_the_seed() {
        let opts = ChaosOpts {
            dataset_ids: vec!["G0".to_string()],
            schedule_seeds: 1,
            ..Default::default()
        };
        let a = run_chaos(&opts).unwrap();
        let b = run_chaos(&opts).unwrap();
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.kernel, y.kernel);
            assert_eq!(x.fault, y.fault);
            assert_eq!(
                x.verdict, y.verdict,
                "{} / {} not reproducible",
                x.kernel, x.fault
            );
        }
    }

    #[test]
    fn report_serializes_and_renders() {
        let report = ChaosReport {
            seed: 7,
            f: 8,
            datasets: vec!["G0".to_string()],
            cells: vec![ChaosCell {
                kernel: "K".into(),
                dataset: "G0".into(),
                fault: FaultKind::AtomicDrop,
                seed: 7,
                verdict: Verdict::DetectedBySanitizer,
                detail: "1 sanitizer finding(s)".into(),
            }],
            schedule: vec![ScheduleCheck {
                kernel: "K".into(),
                dataset: "G0".into(),
                seeds_checked: 8,
                identical: true,
                detail: String::new(),
            }],
        };
        assert!(report.clean());
        let j = report.to_json().to_string_compact();
        assert!(j.contains("\"detected-by-sanitizer\""), "{j}");
        assert!(j.contains("\"atomic-drop\""), "{j}");
        assert!(j.contains("\"clean\":true"), "{j}");
        let m = report.resilience_matrix();
        assert!(m.contains('S'), "{m}");
        assert!(m.contains("drop"), "{m}");
    }
}
