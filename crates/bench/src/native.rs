//! Native-backend performance sweep: the producer of `BENCH_NATIVE.json`,
//! the repo's first committed wall-clock baseline.
//!
//! Runs every kernel in the registry (all five families — 21 kernels) on
//! the selected Table 1 graphs via the native CPU backend, with an
//! explicit warmup/repeat policy: `warmup` untimed runs to populate
//! caches and spin up the worker pool, then `repeats` timed runs per
//! (kernel, dataset) cell. Each cell reports best and median wall-clock
//! milliseconds plus the throughput figure the paper's tables use,
//! `edges_per_sec = nnz / median_seconds`. See `EXPERIMENTS.md` for the
//! regeneration procedure (thread pinning, machine notes) and
//! `docs/BACKENDS.md` for a field-by-field walk through the output.

use gnnone_kernels::backend::{Backend, NativeEngine};
use gnnone_kernels::registry;
use gnnone_sim::engine::LaunchError;
use gnnone_sim::jsonio::Json;
use gnnone_sim::{DeviceBuffer, GnnOneError};
use gnnone_sparse::datasets::Scale;

use crate::chaos::kernel_selected;
use crate::cli::Options;
use crate::runner::{self, LoadedDataset};

/// Options for one native bench sweep.
#[derive(Debug, Clone)]
pub struct NativeBenchOpts {
    /// Dataset scale for the Table 1 analogues.
    pub scale: Scale,
    /// Table 1 ids to sweep; empty = all 19.
    pub dataset_ids: Vec<String>,
    /// Feature length for the feature-carrying families (SDDMM, SpMM,
    /// fused); SpMV and edge-apply are scalar by definition.
    pub f: usize,
    /// Worker threads; `None` = every available core.
    pub threads: Option<usize>,
    /// Untimed warmup runs per cell.
    pub warmup: usize,
    /// Timed runs per cell (best/median are taken over these).
    pub repeats: usize,
    /// Kernel-name filter (case-insensitive, validated by
    /// [`registry::check_filter`]); empty = every registry kernel.
    pub kernels: Vec<String>,
}

impl Default for NativeBenchOpts {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            dataset_ids: Vec::new(),
            f: 32,
            threads: None,
            warmup: 2,
            repeats: 5,
            kernels: Vec::new(),
        }
    }
}

/// One (kernel, dataset) cell of the sweep.
#[derive(Debug, Clone)]
pub struct NativeBenchEntry {
    /// System name as used in the paper's figures.
    pub name: String,
    /// Kernel family (`sddmm`, `spmm`, `spmv`, `edge_apply`, `fused`).
    pub op: &'static str,
    /// Storage format the kernel consumes.
    pub format: String,
    /// Table 1 dataset id.
    pub dataset: String,
    /// Fastest timed run, wall-clock milliseconds.
    pub best_ms: f64,
    /// Median timed run, wall-clock milliseconds.
    pub median_ms: f64,
    /// `nnz / median_seconds` — the throughput the paper's tables use.
    pub edges_per_sec: f64,
}

impl NativeBenchEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("op", Json::Str(self.op.to_string())),
            ("format", Json::Str(self.format.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("best_ms", Json::F64(self.best_ms)),
            ("median_ms", Json::F64(self.median_ms)),
            ("edges_per_sec", Json::F64(self.edges_per_sec)),
        ])
    }
}

/// The full sweep result — what `BENCH_NATIVE.json` serializes.
#[derive(Debug)]
pub struct NativeBenchReport {
    /// Worker threads the engine actually used.
    pub threads: usize,
    /// Untimed runs per cell.
    pub warmup: usize,
    /// Timed runs per cell.
    pub repeats: usize,
    /// Scale the analogues were generated at.
    pub scale: Scale,
    /// Feature length used for SDDMM/SpMM/fused cells.
    pub f: usize,
    /// `(id, vertices, nnz)` for each swept dataset.
    pub datasets: Vec<(String, usize, usize)>,
    /// Every (kernel, dataset) cell.
    pub entries: Vec<NativeBenchEntry>,
}

impl NativeBenchReport {
    /// Distinct kernel names in the sweep (the registry-coverage count —
    /// 21 when every family ran).
    pub fn distinct_kernels(&self) -> usize {
        let mut names: Vec<(&str, &str)> = self
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.op))
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Serializes the report (the `BENCH_NATIVE.json` schema).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("backend", Json::Str("native".to_string())),
            ("threads", Json::U64(self.threads as u64)),
            ("warmup", Json::U64(self.warmup as u64)),
            ("repeats", Json::U64(self.repeats as u64)),
            (
                "scale",
                Json::Str(format!("{:?}", self.scale).to_lowercase()),
            ),
            ("f", Json::U64(self.f as u64)),
            (
                "datasets",
                Json::Arr(
                    self.datasets
                        .iter()
                        .map(|(id, v, nnz)| {
                            Json::obj(vec![
                                ("id", Json::Str(id.clone())),
                                ("vertices", Json::U64(*v as u64)),
                                ("nnz", Json::U64(*nnz as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "kernels",
                Json::Arr(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Runs one cell: `warmup` untimed + `repeats` timed launches of `run`,
/// which returns the wall-clock milliseconds of one launch.
fn time_cell(
    opts: &NativeBenchOpts,
    nnz: usize,
    mut run: impl FnMut() -> Result<f64, LaunchError>,
) -> Result<(f64, f64, f64), LaunchError> {
    for _ in 0..opts.warmup {
        run()?;
    }
    let mut times = Vec::with_capacity(opts.repeats);
    for _ in 0..opts.repeats.max(1) {
        times.push(run()?);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock times are finite"));
    let best = times[0];
    let med = median(&times);
    // Guard against a sub-resolution 0 ms median on tiny graphs.
    let edges_per_sec = if med > 0.0 {
        nnz as f64 / (med / 1e3)
    } else {
        f64::INFINITY
    };
    Ok((best, med, edges_per_sec))
}

/// Sweeps every registry kernel on one dataset, appending cells.
fn sweep_dataset(
    backend: &Backend,
    opts: &NativeBenchOpts,
    ld: &LoadedDataset,
    entries: &mut Vec<NativeBenchEntry>,
) -> Result<(), LaunchError> {
    let graph = &ld.graph;
    let f = opts.f;
    for k in registry::all(graph) {
        if !kernel_selected(&opts.kernels, k.name()) {
            continue;
        }
        // Operand seeds match the figure runners so a bench cell and a
        // figure cell describe the same launch.
        let inputs: Vec<DeviceBuffer<f32>> = runner::seeded_inputs(k.op(), graph, f)
            .iter()
            .map(|h| DeviceBuffer::from_slice(h))
            .collect();
        let inputs: Vec<&DeviceBuffer<f32>> = inputs.iter().collect();
        // Only the required output: the fused kernel's α is not requested.
        let out_len = k.output_lens(f).next().expect("every kernel has an output");
        let (best_ms, median_ms, edges_per_sec) = time_cell(opts, graph.nnz(), || {
            let out = DeviceBuffer::<f32>::zeros(out_len);
            k.launch(backend.device(), &inputs, f, &[&out])
                .map(|r| r.time_ms)
        })?;
        entries.push(NativeBenchEntry {
            name: k.name().to_string(),
            op: k.op().as_str(),
            format: k.format().to_string(),
            dataset: ld.spec.id.to_string(),
            best_ms,
            median_ms,
            edges_per_sec,
        });
    }
    Ok(())
}

/// Runs the full native sweep: every registry kernel on every selected
/// dataset under the warmup/repeat policy.
pub fn run_native_bench(opts: &NativeBenchOpts) -> Result<NativeBenchReport, GnnOneError> {
    let cli = Options {
        datasets: opts.dataset_ids.clone(),
        scale: opts.scale,
        ..Default::default()
    };
    let config = |detail| GnnOneError::Config { detail };
    let specs = runner::try_selected_specs(&cli).map_err(config)?;
    let eng = match opts.threads {
        Some(t) => NativeEngine::with_threads(t).map_err(config)?,
        None => NativeEngine::new(),
    };
    let threads = eng.threads();
    let backend = Backend::Native(eng);

    let mut datasets = Vec::new();
    let mut entries = Vec::new();
    let mut filter_checked = opts.kernels.is_empty();
    for spec in &specs {
        let ld = runner::load(spec, opts.scale);
        if !filter_checked {
            registry::check_filter(&ld.graph, &opts.kernels)?;
            filter_checked = true;
        }
        datasets.push((spec.id.to_string(), ld.graph.num_vertices(), ld.graph.nnz()));
        sweep_dataset(&backend, opts, &ld, &mut entries)?;
    }

    Ok(NativeBenchReport {
        threads,
        warmup: opts.warmup,
        repeats: opts.repeats,
        scale: opts.scale,
        f: opts.f,
        datasets,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnone_kernels::graph::GraphData;
    use gnnone_sparse::datasets::Dataset;
    use std::sync::Arc;

    fn registry_len() -> usize {
        let ds = Dataset::try_by_id("G0", Scale::Tiny).unwrap();
        registry::all(&Arc::new(GraphData::new(ds.coo))).len()
    }

    fn tiny_opts() -> NativeBenchOpts {
        NativeBenchOpts {
            scale: Scale::Tiny,
            dataset_ids: vec!["G0".into()],
            f: 8,
            threads: Some(2),
            warmup: 1,
            repeats: 3,
            kernels: Vec::new(),
        }
    }

    #[test]
    fn sweep_covers_all_registry_kernels() {
        let report = run_native_bench(&tiny_opts()).unwrap();
        assert_eq!(report.distinct_kernels(), registry_len());
        assert_eq!(report.entries.len(), registry_len());
        assert_eq!(report.threads, 2);
        for e in &report.entries {
            assert!(e.best_ms <= e.median_ms, "{}: best > median", e.name);
            assert!(e.edges_per_sec > 0.0, "{}: no throughput", e.name);
        }
    }

    #[test]
    fn report_serializes_the_documented_schema() {
        let report = run_native_bench(&tiny_opts()).unwrap();
        let json = report.to_json();
        assert_eq!(json.get("backend").and_then(Json::as_str), Some("native"));
        for key in [
            "threads", "warmup", "repeats", "scale", "f", "datasets", "kernels",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let kernels = json.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(kernels.len(), registry_len());
        for k in kernels {
            for key in [
                "name",
                "op",
                "format",
                "dataset",
                "best_ms",
                "median_ms",
                "edges_per_sec",
            ] {
                assert!(k.get(key).is_some(), "missing kernel field {key}");
            }
        }
    }

    #[test]
    fn kernel_filter_restricts_the_sweep() {
        let opts = NativeBenchOpts {
            kernels: vec!["fusedgat".into(), "GnnOne-UAddV".into()],
            ..tiny_opts()
        };
        let report = run_native_bench(&opts).unwrap();
        assert_eq!(report.distinct_kernels(), 2);
        let names: Vec<&str> = report.entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"FusedGAT"), "{names:?}");
        assert!(names.contains(&"GnnOne-UAddV"), "{names:?}");
    }

    #[test]
    fn unknown_kernel_name_is_an_error() {
        let opts = NativeBenchOpts {
            kernels: vec!["NoSuchKernel".into()],
            ..tiny_opts()
        };
        let err = run_native_bench(&opts).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("NoSuchKernel"), "{err}");
    }

    #[test]
    fn unknown_dataset_id_is_an_error() {
        let opts = NativeBenchOpts {
            dataset_ids: vec!["G99".into()],
            ..tiny_opts()
        };
        let err = run_native_bench(&opts).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("G99"), "{err}");
    }
}
