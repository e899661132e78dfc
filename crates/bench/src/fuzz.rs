//! Registry-wide adversarial fuzz sweep — the engine behind
//! `gnnone-prof fuzz`.
//!
//! Drives every shipped kernel (the same registry set `gnnone-prof
//! sanitize` covers) over two input populations:
//!
//! * the adversarial corpus from [`gnnone_sparse::gen::adversarial`] —
//!   valid-extreme topologies must run clean, malformed inputs must be
//!   rejected by validation with a typed error;
//! * optionally, tiny-scale Table 1 graphs as a healthy-population control.
//!
//! Every kernel launch runs under the watchdog (armed by default in
//! `gnnone-sim`) and, with [`FuzzOpts::sanitize`], under the memory/race
//! sanitizer. The exit contract: the *process* never panics or hangs —
//! every failure surfaces as a structured [`FuzzFinding`] — and the run is
//! judged clean only when no finding fired. Structured rejections of
//! malformed inputs are successes, recorded separately.

use std::sync::Arc;

use gnnone_kernels::backend::Device;
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::registry::{self, SweepInputs};
use gnnone_sim::engine::LaunchError;
use gnnone_sim::jsonio::Json;
use gnnone_sim::{DeviceBuffer, Gpu, SanitizeConfig, Sanitizer};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::gen::adversarial;

/// What a fuzz finding means for the robustness contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A kernel (or its host-side prep) panicked — caught, but a bug.
    Panic,
    /// The sanitizer reported findings on a *valid* graph.
    Sanitizer,
    /// A malformed input was accepted by validation.
    ValidationHole,
    /// A valid input was rejected by validation.
    SpuriousRejection,
    /// A shipped kernel was aborted (watchdog or unsanitized OOB) on a
    /// valid graph.
    Abort,
}

impl FindingKind {
    /// Stable slug for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::Panic => "panic",
            FindingKind::Sanitizer => "sanitizer",
            FindingKind::ValidationHole => "validation-hole",
            FindingKind::SpuriousRejection => "spurious-rejection",
            FindingKind::Abort => "abort",
        }
    }
}

/// One fuzz failure.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Corpus case or dataset id the input came from.
    pub case: String,
    /// Kernel name when the failure is attributable to one.
    pub kernel: Option<String>,
    /// Failure class.
    pub kind: FindingKind,
    /// Human-readable detail (structured error display, panic message…).
    pub detail: String,
}

impl FuzzFinding {
    /// Serializes for the `--out` report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("case", Json::Str(self.case.clone())),
            (
                "kernel",
                match &self.kernel {
                    Some(k) => Json::Str(k.clone()),
                    None => Json::Null,
                },
            ),
            ("kind", Json::Str(self.kind.as_str().to_string())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

impl std::fmt::Display for FuzzFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}{}: {}",
            self.kind.as_str(),
            self.case,
            match &self.kernel {
                Some(k) => format!(" / {k}"),
                None => String::new(),
            },
            self.detail
        )
    }
}

/// Fuzz sweep configuration.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Corpus seed (also printed in the report so failures reproduce).
    pub seed: u64,
    /// Attach the memory/race sanitizer to every launch.
    pub sanitize: bool,
    /// Table 1 ids to include at tiny scale as a healthy control
    /// population (empty: corpus only).
    pub dataset_ids: Vec<String>,
    /// Feature width for the Table 1 control graphs.
    pub f: usize,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            sanitize: true,
            dataset_ids: Vec::new(),
            f: 8,
        }
    }
}

/// Outcome of a full fuzz sweep.
#[derive(Debug)]
pub struct FuzzReport {
    /// Seed the corpus was built from.
    pub seed: u64,
    /// Corpus cases + control datasets processed.
    pub cases_run: usize,
    /// Kernel launches attempted across all inputs.
    pub kernels_driven: usize,
    /// Malformed inputs rejected with a typed error: `(case, error)`.
    /// These are successes — the structured path worked.
    pub rejected: Vec<(String, String)>,
    /// Contract violations. Non-empty ⇒ the sweep failed.
    pub findings: Vec<FuzzFinding>,
}

impl FuzzReport {
    /// `true` when no finding fired.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::U64(self.seed)),
            ("cases_run", Json::U64(self.cases_run as u64)),
            ("kernels_driven", Json::U64(self.kernels_driven as u64)),
            (
                "rejected",
                Json::Arr(
                    self.rejected
                        .iter()
                        .map(|(case, err)| {
                            Json::obj(vec![
                                ("case", Json::Str(case.clone())),
                                ("error", Json::Str(err.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(FuzzFinding::to_json).collect()),
            ),
        ])
    }
}

/// Deterministic filler values for buffers the corpus case doesn't supply.
fn filler(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 37 + salt * 101) % 29) as f32 - 14.0) * 0.11)
        .collect()
}

/// Runs the full fuzz sweep. Never panics: every kernel attempt is
/// individually isolated.
pub fn run_fuzz(opts: &FuzzOpts) -> Result<FuzzReport, String> {
    let mut report = FuzzReport {
        seed: opts.seed,
        cases_run: 0,
        kernels_driven: 0,
        rejected: Vec::new(),
        findings: Vec::new(),
    };

    for case in adversarial::corpus(opts.seed) {
        report.cases_run += 1;
        match case.resolve() {
            Ok(resolved) => {
                if !case.expect_valid {
                    report.findings.push(FuzzFinding {
                        case: case.name.to_string(),
                        kernel: None,
                        kind: FindingKind::ValidationHole,
                        detail: "malformed input passed validation".to_string(),
                    });
                    continue;
                }
                let graph = Arc::new(GraphData::new(resolved.coo.clone()));
                drive_all_kernels(
                    case.name,
                    &graph,
                    &resolved.features,
                    resolved.f,
                    opts.sanitize,
                    &mut report,
                );
            }
            Err(e) => {
                if case.expect_valid {
                    report.findings.push(FuzzFinding {
                        case: case.name.to_string(),
                        kernel: None,
                        kind: FindingKind::SpuriousRejection,
                        detail: e.to_string(),
                    });
                } else {
                    report.rejected.push((case.name.to_string(), e.to_string()));
                }
            }
        }
    }

    for id in &opts.dataset_ids {
        report.cases_run += 1;
        let ds = Dataset::try_by_id(id, Scale::Tiny).map_err(|e| e.to_string())?;
        let graph = Arc::new(GraphData::new(ds.coo.clone()));
        let nv = graph.num_vertices();
        let feats = filler(nv * opts.f, 1);
        drive_all_kernels(
            ds.spec.id,
            &graph,
            &feats,
            opts.f,
            opts.sanitize,
            &mut report,
        );
    }

    Ok(report)
}

/// Drives every registry kernel over one validated graph, recording
/// findings into `report`. Mirrors the `gnnone-prof sanitize` registry
/// coverage (all kernel families by name).
fn drive_all_kernels(
    case: &str,
    graph: &Arc<GraphData>,
    features: &[f32],
    f: usize,
    sanitize: bool,
    report: &mut FuzzReport,
) {
    let gpu = Gpu::new(crate::figure_gpu_spec());
    let san: Option<Arc<Sanitizer>> = if sanitize {
        Some(gpu.enable_sanitizer(SanitizeConfig::on()))
    } else {
        None
    };
    let nv = graph.num_vertices();
    let mut rev = features.to_vec();
    rev.reverse();
    let inputs = SweepInputs {
        x: features.to_vec(),
        z: rev,
        w: filler(graph.nnz(), 3),
        el: filler(nv, 4),
        er: filler(nv, 5),
    }
    .upload();

    for k in registry::all(graph) {
        let name = k.name();
        report.kernels_driven += 1;
        let outputs: Vec<DeviceBuffer<f32>> = k.output_lens(f).map(DeviceBuffer::zeros).collect();
        let before = san.as_ref().map_or(0, |s| s.finding_count());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.launch(
                Device::Sim(&gpu),
                &inputs.for_op(k.op()),
                f,
                &outputs.iter().collect::<Vec<_>>(),
            )
        }));
        match outcome {
            Ok(Ok(_)) => {
                let delta = san.as_ref().map_or(0, |s| s.finding_count()) - before;
                if delta > 0 {
                    report.findings.push(FuzzFinding {
                        case: case.to_string(),
                        kernel: Some(name.to_string()),
                        kind: FindingKind::Sanitizer,
                        detail: format!("{delta} sanitizer finding(s) on a valid graph"),
                    });
                }
            }
            Ok(Err(LaunchError::Aborted(a))) => {
                report.findings.push(FuzzFinding {
                    case: case.to_string(),
                    kernel: Some(name.to_string()),
                    kind: FindingKind::Abort,
                    detail: a.to_string(),
                });
            }
            // A structured decline (grid shape, OOM…) is an allowed answer.
            Ok(Err(_)) => {}
            Err(payload) => {
                report.findings.push(FuzzFinding {
                    case: case.to_string(),
                    kernel: Some(name.to_string()),
                    kind: FindingKind::Panic,
                    detail: crate::panic_message(payload),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_sweep_is_clean_and_covers_all_kernels() {
        let opts = FuzzOpts {
            seed: 0xC0FFEE,
            sanitize: true,
            dataset_ids: vec!["G0".to_string()],
            f: 8,
        };
        let report = run_fuzz(&opts).unwrap();
        for finding in &report.findings {
            eprintln!("finding: {finding}");
        }
        assert!(report.clean(), "{} finding(s)", report.findings.len());
        // All 21 registry kernels drive on each valid input; at least the
        // control dataset plus several valid-extreme cases ran.
        assert!(report.kernels_driven >= 21 * 5, "{}", report.kernels_driven);
        assert!(report.rejected.len() >= 8, "{}", report.rejected.len());
        assert!(report.cases_run >= 16);
    }

    #[test]
    fn report_serializes_with_findings() {
        let report = FuzzReport {
            seed: 7,
            cases_run: 1,
            kernels_driven: 2,
            rejected: vec![("bad".into(), "invalid Csr".into())],
            findings: vec![FuzzFinding {
                case: "c".into(),
                kernel: Some("K".into()),
                kind: FindingKind::Panic,
                detail: "boom".into(),
            }],
        };
        assert!(!report.clean());
        let j = report.to_json().to_string_compact();
        assert!(j.contains("\"panic\""), "{j}");
        assert!(j.contains("boom"), "{j}");
        assert!(j.contains("invalid Csr"), "{j}");
    }
}
