//! Reproduces **Fig. 8**: the SDDMM design-choice ladder at feature length
//! 32 — Baseline (balanced COO, no reuse, no float4, ≈ DGL's design ideas)
//! → +Data-reuse (Stage-1 NZE caching + row-feature reuse) → +Float4
//! (vector loads / thread groups).
//!
//! Expected shape (paper §5.4.1): +Data-reuse ≈ 2.78× over Baseline;
//! +Float4 ≈ 1.80× more (≈ 4.59× total).

use gnnone_bench::report::Table;
use gnnone_bench::{cli, profiling, report, runner};
use gnnone_kernels::registry;
use gnnone_kernels::traits::Kernel;

fn main() -> std::process::ExitCode {
    gnnone_bench::figure_main("fig8_sddmm_ablation", run)
}

fn run() -> Result<(), gnnone_sim::GnnOneError> {
    let mut opts = cli::from_env()?;
    if opts.dims == vec![6, 16, 32, 64] {
        opts.dims = vec![32]; // the figure's dimension
    }
    runner::require_unsharded(&opts, "fig8_sddmm_ablation")?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let mut tables = Vec::new();
    let mut guard = runner::SweepGuard::new();

    for &dim in &opts.dims {
        let mut table = Table::new(
            &format!("Fig 8: SDDMM ablation, dim={dim} (column 0 = full design)"),
            &["+Float4", "+Data-reuse", "Baseline"],
        );
        for spec in runner::selected_specs(&opts) {
            let ld = runner::load(&spec, opts.scale);
            let cells = registry::sddmm_ablation_kernels(&ld.graph)
                .into_iter()
                .map(|(_, k)| Kernel::Sddmm(Box::new(k)))
                .map(|k| runner::run_guarded(&backend, &k, &ld, dim, &mut guard))
                .collect();
            table.push_row(spec.id, cells);
        }
        table.print();
        println!(
            "(read: col0/col1 gap = float4 contribution, col0/col2 = total; paper: 1.80x and 4.59x)"
        );
        tables.push(table);
    }

    let out = opts
        .out
        .unwrap_or_else(|| "results/fig8_sddmm_ablation.json".into());
    report::write_json(&out, &tables).map_err(|e| gnnone_bench::io_error(&out, e))?;
    println!("wrote {out}");
    if let Some(p) = &opts.plain_out {
        report::write_plain(p, &tables).map_err(|e| gnnone_bench::io_error(p, e))?;
        println!("wrote {p}");
    }
    prof.write();
    guard.finish()
}
