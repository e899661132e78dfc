//! Static-verification wiring: the bridge between the figure binaries'
//! flags and [`gnnone_kernels::analysis`].
//!
//! Two entry points:
//!
//! * [`static_preflight`] — the `--verify` / native-`--sanitize` hook the
//!   shared runner calls before building a backend. It re-generates the
//!   selected datasets (generation is deterministic, so the verified graph
//!   *is* the swept graph), runs the symbolic verifier over every registry
//!   kernel under the execution model the sweep will use, and refuses the
//!   run unless every obligation is `Proved`. All reporting goes to
//!   stderr, so tables and `--out` files stay byte-identical with the
//!   flag on.
//! * [`verify_datasets`] — the full sweep behind `gnnone-prof verify`:
//!   both execution models per registry kernel plus the 24-point config
//!   lattice for the tunable GNNOne kernels.

use gnnone_kernels::analysis::{self, verdicts_to_json, ExecModel, KernelVerdict, Verdict};
use gnnone_kernels::backend::BackendKind;
use gnnone_sim::jsonio::Json;
use gnnone_sim::GnnOneError;

use crate::cli::Options;
use crate::runner;

/// Verdicts for one (dataset, f) cell of a verification sweep.
pub struct DatasetVerdicts {
    /// Table 1 dataset id.
    pub dataset: String,
    /// Feature length verified at.
    pub f: usize,
    /// One verdict per registry kernel × model.
    pub verdicts: Vec<KernelVerdict>,
    /// Lattice verdicts (config label, verdict) — only populated by the
    /// full `gnnone-prof verify` sweep, empty in preflight mode.
    pub lattice: Vec<(String, KernelVerdict)>,
}

impl DatasetVerdicts {
    /// Every obligation proved (registry and lattice).
    pub fn all_proved(&self) -> bool {
        self.verdicts.iter().all(|v| v.verdict.is_proved())
            && self.lattice.iter().all(|(_, v)| v.verdict.is_proved())
    }

    /// Obligations that failed (registry and lattice), with a display
    /// label for each.
    pub fn failures(&self) -> Vec<(String, &KernelVerdict)> {
        let mut out = Vec::new();
        for v in &self.verdicts {
            if !v.verdict.is_proved() {
                out.push((format!("{} ({})", v.kernel, v.op), v));
            }
        }
        for (cfg, v) in &self.lattice {
            if !v.verdict.is_proved() {
                out.push((format!("{} ({}) @ {cfg}", v.kernel, v.op), v));
            }
        }
        out
    }

    /// JSON form (jsonio): dataset, f, and the verdict arrays.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dataset", Json::Str(self.dataset.clone())),
            ("f", Json::U64(self.f as u64)),
            ("kernels", verdicts_to_json(&self.verdicts)),
            (
                "lattice",
                Json::Arr(
                    self.lattice
                        .iter()
                        .map(|(cfg, v)| {
                            let Json::Obj(mut fields) = v.to_json() else {
                                unreachable!("KernelVerdict::to_json is an object")
                            };
                            fields.insert(0, ("config".into(), Json::Str(cfg.clone())));
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Serializes a whole verification sweep (jsonio, stable key order).
pub fn sweep_to_json(cells: &[DatasetVerdicts]) -> Json {
    let total: usize = cells
        .iter()
        .map(|c| c.verdicts.len() + c.lattice.len())
        .sum();
    let failed: usize = cells.iter().map(|c| c.failures().len()).sum();
    Json::obj(vec![
        ("obligations", Json::U64(total as u64)),
        ("failed", Json::U64(failed as u64)),
        ("all_proved", Json::Bool(failed == 0)),
        (
            "datasets",
            Json::Arr(cells.iter().map(DatasetVerdicts::to_json).collect()),
        ),
    ])
}

fn lattice_label(cfg: &gnnone_kernels::gnnone::GnnOneConfig) -> String {
    format!(
        "cache={} sched={:?} vec={} reuse={}",
        cfg.cache_size, cfg.schedule, cfg.vectorize, cfg.data_reuse
    )
}

/// Runs the verifier over every selected dataset × feature length.
/// `models` picks the execution model(s); `with_lattice` adds the
/// 24-point config sweep for the tunable GNNOne kernels.
pub fn verify_datasets(
    opts: &Options,
    models: &[ExecModel],
    with_lattice: bool,
) -> Result<Vec<DatasetVerdicts>, GnnOneError> {
    let specs =
        runner::try_selected_specs(opts).map_err(|detail| GnnOneError::Config { detail })?;
    let mut cells = Vec::new();
    for spec in &specs {
        let ld = runner::load(spec, opts.scale);
        gnnone_kernels::registry::check_filter(&ld.graph, &opts.kernels)?;
        for &f in &opts.dims {
            let mut verdicts = Vec::new();
            for &model in models {
                verdicts.extend(analysis::verify_graph(&ld.graph, f, model));
            }
            verdicts.retain(|v| crate::chaos::kernel_selected(&opts.kernels, &v.kernel));
            let mut lattice: Vec<(String, KernelVerdict)> = if with_lattice {
                analysis::verify_lattice(&ld.graph, f)
                    .into_iter()
                    .map(|(cfg, v)| (lattice_label(&cfg), v))
                    .collect()
            } else {
                Vec::new()
            };
            lattice.retain(|(_, v)| crate::chaos::kernel_selected(&opts.kernels, &v.kernel));
            cells.push(DatasetVerdicts {
                dataset: spec.id.to_string(),
                f,
                verdicts,
                lattice,
            });
        }
    }
    Ok(cells)
}

fn describe(v: &Verdict) -> String {
    match v {
        Verdict::Proved => "proved".to_string(),
        Verdict::Refuted(w) => format!("REFUTED: {}", w.detail),
        Verdict::Unknown { reason } => format!("UNKNOWN: {reason}"),
    }
}

/// The `--verify` / native-`--sanitize` preflight the shared runner calls
/// before a sweep. A no-op unless one of those flags is set. On failure
/// the sweep never starts: the error carries the first failed obligation.
///
/// With `--backend native --sanitize <path>` the full verdict list is
/// written to `<path>` (the static analogue of the dynamic sanitizer
/// report) whether or not verification passes.
pub fn static_preflight(opts: &Options) -> Result<(), GnnOneError> {
    let native = opts.backend == BackendKind::Native;
    let static_report = native.then(|| opts.sanitize.clone()).flatten();
    if !opts.verify && static_report.is_none() {
        return Ok(());
    }
    let model = if native {
        ExecModel::Native
    } else {
        ExecModel::Sim
    };
    let cells = verify_datasets(opts, &[model], false)?;
    let total: usize = cells.iter().map(|c| c.verdicts.len()).sum();
    let failures: Vec<(String, String, usize, String)> = cells
        .iter()
        .flat_map(|c| {
            c.failures()
                .into_iter()
                .map(move |(label, v)| (c.dataset.clone(), label, c.f, describe(&v.verdict)))
        })
        .collect();
    eprintln!(
        "verify[{}]: {} obligation(s) over {} dataset×f cell(s): {}",
        model.as_str(),
        total,
        cells.len(),
        if failures.is_empty() {
            "all proved".to_string()
        } else {
            format!("{} FAILED", failures.len())
        }
    );
    for (dataset, label, f, what) in &failures {
        eprintln!("  {dataset} f={f} {label}: {what}");
    }
    if let Some(path) = &static_report {
        std::fs::write(path, sweep_to_json(&cells).to_string_pretty())
            .map_err(|e| crate::io_error(path, e))?;
        eprintln!("verify: static verdict report written to {path}");
    }
    match failures.into_iter().next() {
        None => Ok(()),
        Some((dataset, label, f, what)) => Err(GnnOneError::Config {
            detail: format!(
                "static verification failed — {label} on {dataset} at f={f}: {what} \
                 (launch refused; see stderr for the full list)"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Options {
        Options {
            scale: gnnone_sparse::datasets::Scale::Tiny,
            dims: vec![8],
            datasets: vec!["G0".into()],
            ..Default::default()
        }
    }

    #[test]
    fn preflight_is_inert_without_flags() {
        assert!(static_preflight(&tiny_opts()).is_ok());
    }

    #[test]
    fn preflight_proves_the_registry_on_both_backends() {
        let mut opts = tiny_opts();
        opts.verify = true;
        static_preflight(&opts).unwrap();
        opts.backend = BackendKind::Native;
        static_preflight(&opts).unwrap();
    }

    #[test]
    fn native_sanitize_writes_a_static_verdict_report() {
        let dir = std::env::temp_dir().join("gnnone_verify_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("static_sanitize.json");
        let opts = Options {
            backend: BackendKind::Native,
            sanitize: Some(path.to_string_lossy().into_owned()),
            ..tiny_opts()
        };
        static_preflight(&opts).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = gnnone_sim::jsonio::parse(&text).unwrap();
        assert_eq!(doc.get("all_proved"), Some(&Json::Bool(true)));
        assert!(doc.get("datasets").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kernels_filter_restricts_the_verification_sweep() {
        let mut opts = tiny_opts();
        opts.kernels = vec!["gnnone".into()];
        let cells = verify_datasets(&opts, &[ExecModel::Sim, ExecModel::Native], true).unwrap();
        let c = &cells[0];
        assert!(!c.verdicts.is_empty());
        assert!(c.verdicts.len() < 42);
        assert!(c
            .verdicts
            .iter()
            .all(|v| v.kernel.eq_ignore_ascii_case("GnnOne")));
        assert!(c
            .lattice
            .iter()
            .all(|(_, v)| v.kernel.eq_ignore_ascii_case("GnnOne")));
    }

    #[test]
    fn unknown_kernel_filter_is_a_config_error() {
        let mut opts = tiny_opts();
        opts.kernels = vec!["NoSuchKernel".into()];
        let err = match verify_datasets(&opts, &[ExecModel::Sim], false) {
            Err(e) => e,
            Ok(_) => panic!("a misspelled --kernels filter must not verify vacuously"),
        };
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("NoSuchKernel"), "{err}");
    }

    #[test]
    fn full_sweep_covers_lattice_and_both_models() {
        let cells =
            verify_datasets(&tiny_opts(), &[ExecModel::Sim, ExecModel::Native], true).unwrap();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        // 21 registry kernels × 2 models.
        assert_eq!(c.verdicts.len(), 42);
        // 24 lattice points × 2 models × 2 tunable kernels.
        assert_eq!(c.lattice.len(), 96);
        assert!(c.all_proved(), "{:?}", c.failures());
        let json = sweep_to_json(&cells).to_string_compact();
        assert!(json.contains("\"all_proved\":true"), "{json}");
    }
}
