//! Reproduces **Fig. 9**: SpMM Stage-1 cache size — 128 NZEs per warp vs
//! 32 — at feature length 16.
//!
//! Expected shape (paper §5.4.2): caching 128 gives ≈1.31× over 32 because
//! more independent loads issue before each memory barrier.
//!
//! This binary is the worked profiling example of `docs/PROFILING.md`:
//! with `--metrics m.json` it writes per-variant snapshots
//! (`m.cache128.json`, `m.cache32.json`) suitable for
//! `gnnone-prof diff`, plus the combined `m.json`; with `--trace t.json`
//! both variants share one Chrome-trace timeline.

use std::sync::Arc;

use gnnone_bench::report::Table;
use gnnone_bench::{cli, figure_gpu_spec, report, runner};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSpmm};
use gnnone_kernels::traits::Kernel;
use gnnone_sim::{MetricsRegistry, MetricsSnapshot, TraceConfig, TraceSession};

/// `results/m.json` → `results/m.cache128.json`.
fn variant_path(path: &str, variant: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{variant}.{ext}"),
        None => format!("{path}.{variant}"),
    }
}

fn main() -> std::process::ExitCode {
    gnnone_bench::figure_main("fig9_cache_size", run)
}

fn run() -> Result<(), gnnone_sim::GnnOneError> {
    let mut opts = cli::from_env()?;
    if opts.dims == vec![6, 16, 32, 64] {
        opts.dims = vec![16]; // the figure's dimension
    }
    let spec_gpu = figure_gpu_spec();

    // One backend per cache variant so kernel metrics roll up separately
    // (the A and B of a `gnnone-prof diff`); one shared trace timeline.
    // The observability flags are sim-only (CLI validation rejects them
    // with `--backend native`), so the attach sites can assume a device.
    runner::require_unsharded(&opts, "fig9_cache_size")?;
    let backend128 = runner::backend_from_options(&opts)?;
    let backend32 = runner::backend_from_options(&opts)?;
    let session = opts.trace.as_ref().map(|_| {
        Arc::new(TraceSession::new(
            TraceConfig::on(),
            &spec_gpu.name,
            spec_gpu.clock_ghz,
        ))
    });
    if let Some(session) = &session {
        for backend in [&backend128, &backend32] {
            if let Some(gpu) = backend.as_gpu() {
                gpu.attach_trace(Arc::clone(session));
            }
        }
    }
    let registries = opts.metrics.as_ref().map(|_| {
        let mk = |backend: &gnnone_kernels::backend::Backend| {
            let r = MetricsRegistry::new();
            r.set_device(&spec_gpu.name, spec_gpu.clock_ghz);
            let r = Arc::new(r);
            if let Some(gpu) = backend.as_gpu() {
                gpu.attach_metrics(Arc::clone(&r));
            }
            r
        };
        (mk(&backend128), mk(&backend32))
    });

    let mut tables = Vec::new();
    let mut guard = runner::SweepGuard::new();
    for &dim in &opts.dims {
        let mut table = Table::new(
            &format!("Fig 9: SpMM cache size, dim={dim}"),
            &["cache=128", "cache=32"],
        );
        for spec in runner::selected_specs(&opts) {
            let ld = runner::load(&spec, opts.scale);
            let cells = [(128usize, &backend128), (32, &backend32)]
                .iter()
                .map(|&(cache, backend)| {
                    let k = Kernel::Spmm(Box::new(GnnOneSpmm::new(
                        Arc::clone(&ld.graph),
                        GnnOneConfig {
                            cache_size: cache,
                            ..Default::default()
                        },
                    )));
                    runner::run_guarded(backend, &k, &ld, dim, &mut guard)
                })
                .collect();
            table.push_row(spec.id, cells);
        }
        table.print();
        println!("(paper: 1.31x average for 128 over 32)");
        tables.push(table);
    }

    let out = opts
        .out
        .unwrap_or_else(|| "results/fig9_cache_size.json".into());
    report::write_json(&out, &tables).map_err(|e| gnnone_bench::io_error(&out, e))?;
    println!("wrote {out}");

    if let (Some(path), Some(session)) = (&opts.trace, &session) {
        session
            .write_chrome_trace(path)
            .map_err(|e| gnnone_bench::io_error(path, e))?;
        println!(
            "trace: {path} ({} events; load in chrome://tracing or ui.perfetto.dev)",
            session.event_count()
        );
    }
    if let (Some(path), Some((reg128, reg32))) = (&opts.metrics, &registries) {
        let (snap128, snap32) = (reg128.snapshot(), reg32.snapshot());
        let (p128, p32) = (
            variant_path(path, "cache128"),
            variant_path(path, "cache32"),
        );
        snap128
            .write(&p128)
            .map_err(|e| gnnone_bench::io_error(&p128, e))?;
        snap32
            .write(&p32)
            .map_err(|e| gnnone_bench::io_error(&p32, e))?;
        // Combined snapshot: variant-prefixed kernel names keep both
        // rollups distinguishable in one file.
        let mut combined = MetricsSnapshot {
            device: snap128.device.clone(),
            clock_ghz: snap128.clock_ghz,
            kernels: Vec::new(),
        };
        for (prefix, snap) in [("cache128/", &snap128), ("cache32/", &snap32)] {
            for k in &snap.kernels {
                let mut k = k.clone();
                k.name = format!("{prefix}{}", k.name);
                combined.kernels.push(k);
            }
        }
        combined
            .write(path)
            .map_err(|e| gnnone_bench::io_error(path, e))?;
        println!("metrics: {path} (+ per-variant {p128}, {p32})");
        println!("compare: gnnone-prof diff {p128} {p32}");
    }
    guard.finish()
}
