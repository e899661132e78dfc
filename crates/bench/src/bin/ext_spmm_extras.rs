//! **Extension experiment** (§6): SpMM systems the paper discusses but does
//! not plot — Yang et al.'s nonzero-split (the register-materialization
//! cautionary tale of §3.2), Sputnik's row-swizzled SpMM, and the
//! row-binning lineage — against GNNOne.

use std::sync::Arc;

use gnnone_bench::report::Table;
use gnnone_bench::{cli, profiling, report, runner};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSpmm};
use gnnone_kernels::registry;
use gnnone_kernels::traits::{Kernel, SpmmKernel};

fn main() -> std::process::ExitCode {
    gnnone_bench::figure_main("ext_spmm_extras", run)
}

fn run() -> Result<(), gnnone_sim::GnnOneError> {
    let mut opts = cli::from_env()?;
    if opts.dims == vec![6, 16, 32, 64] {
        opts.dims = vec![32];
    }
    runner::require_unsharded(&opts, "ext_spmm_extras")?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let mut tables = Vec::new();
    let mut guard = runner::SweepGuard::new();
    for &dim in &opts.dims {
        let mut table = Table::new(
            &format!("Extension: discussed-but-unplotted SpMM systems, dim={dim}"),
            &["GnnOne", "Yang et al.", "Sputnik", "Row-binning"],
        );
        for spec in runner::selected_specs(&opts) {
            let ld = runner::load(&spec, opts.scale);
            let gnnone: Box<dyn SpmmKernel> = Box::new(GnnOneSpmm::new(
                Arc::clone(&ld.graph),
                GnnOneConfig::default(),
            ));
            let cells = std::iter::once(gnnone)
                .chain(registry::spmm_discussion_kernels(&ld.graph))
                .map(|k| runner::run_guarded(&backend, &Kernel::Spmm(k), &ld, dim, &mut guard))
                .collect();
            table.push_row(spec.id, cells);
        }
        table.print();
        tables.push(table);
    }
    println!("(Yang et al.: balanced but occupancy-collapsed — §3.2's 'discarded right approach')");

    let out = opts
        .out
        .unwrap_or_else(|| "results/ext_spmm_extras.json".into());
    report::write_json(&out, &tables).map_err(|e| gnnone_bench::io_error(&out, e))?;
    println!("wrote {out}");
    prof.write();
    guard.finish()
}
