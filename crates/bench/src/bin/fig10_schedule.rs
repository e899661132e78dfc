//! Reproduces **Fig. 10**: Consecutive vs Round-robin NZE assignment in
//! SpMM Stage 2.
//!
//! Expected shape (paper §5.4.3): Consecutive wins — slightly above 10% on
//! data-load alone in the paper; our measurement includes the reduction,
//! which the paper notes favours Consecutive even further (fewer atomics
//! at row splits).

use std::sync::Arc;

use gnnone_bench::report::Table;
use gnnone_bench::{cli, profiling, report, runner};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSpmm, Schedule};
use gnnone_kernels::traits::Kernel;

fn main() -> std::process::ExitCode {
    gnnone_bench::figure_main("fig10_schedule", run)
}

fn run() -> Result<(), gnnone_sim::GnnOneError> {
    let mut opts = cli::from_env()?;
    if opts.dims == vec![6, 16, 32, 64] {
        opts.dims = vec![32];
    }
    runner::require_unsharded(&opts, "fig10_schedule")?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let mut tables = Vec::new();
    let mut guard = runner::SweepGuard::new();

    for &dim in &opts.dims {
        let mut table = Table::new(
            &format!("Fig 10: SpMM NZE scheduling, dim={dim}"),
            &["Consecutive", "Round-robin"],
        );
        for spec in runner::selected_specs(&opts) {
            let ld = runner::load(&spec, opts.scale);
            let cells = [Schedule::Consecutive, Schedule::RoundRobin]
                .iter()
                .map(|&schedule| {
                    let k = Kernel::Spmm(Box::new(GnnOneSpmm::new(
                        Arc::clone(&ld.graph),
                        GnnOneConfig {
                            schedule,
                            ..Default::default()
                        },
                    )));
                    runner::run_guarded(&backend, &k, &ld, dim, &mut guard)
                })
                .collect();
            table.push_row(spec.id, cells);
        }
        table.print();
        println!("(paper: Consecutive ≈ 10%+ faster on data load alone)");
        tables.push(table);
    }

    let out = opts
        .out
        .unwrap_or_else(|| "results/fig10_schedule.json".into());
    report::write_json(&out, &tables).map_err(|e| gnnone_bench::io_error(&out, e))?;
    println!("wrote {out}");
    prof.write();
    guard.finish()
}
