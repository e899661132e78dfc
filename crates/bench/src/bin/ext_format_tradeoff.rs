//! **Extension experiment** (§4.3 *Format Selection*, §5.4.5): the same
//! GNNOne SpMM design on COO vs plain CSR.
//!
//! COO pays 4 extra bytes per NZE to read the row ID directly; plain CSR
//! avoids that read but must *derive* rows — per-warp binary searches over
//! the offsets array (serial dependent loads) plus per-NZE resolution.
//! The paper argues the COO side of this trade wins, which is why a
//! standard format suffices; this bench measures the gap per dataset.

use std::sync::Arc;

use gnnone_bench::report::Table;
use gnnone_bench::{cli, profiling, report, runner};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneCsrSpmm, GnnOneSpmm};
use gnnone_kernels::traits::{Kernel, SpmmKernel};

fn main() -> std::process::ExitCode {
    gnnone_bench::figure_main("ext_format_tradeoff", run)
}

fn run() -> Result<(), gnnone_sim::GnnOneError> {
    let mut opts = cli::from_env()?;
    if opts.dims == vec![6, 16, 32, 64] {
        opts.dims = vec![32];
    }
    runner::require_unsharded(&opts, "ext_format_tradeoff")?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let mut tables = Vec::new();
    let mut guard = runner::SweepGuard::new();
    for &dim in &opts.dims {
        let mut table = Table::new(
            &format!("Extension: GNNOne SpMM format trade-off, dim={dim}"),
            &["COO (4B row IDs)", "plain CSR (row search)"],
        );
        for spec in runner::selected_specs(&opts) {
            let ld = runner::load(&spec, opts.scale);
            let coo: Box<dyn SpmmKernel> = Box::new(GnnOneSpmm::new(
                Arc::clone(&ld.graph),
                GnnOneConfig::default(),
            ));
            let csr: Box<dyn SpmmKernel> = Box::new(GnnOneCsrSpmm::new(Arc::clone(&ld.graph)));
            let cells = [coo, csr]
                .into_iter()
                .map(|k| runner::run_guarded(&backend, &Kernel::Spmm(k), &ld, dim, &mut guard))
                .collect();
            table.push_row(spec.id, cells);
        }
        table.print();
        tables.push(table);
    }
    println!("(§5.4.5: the 4-byte coalesced row-ID load beats deriving rows on most datasets)");

    let out = opts
        .out
        .unwrap_or_else(|| "results/ext_format_tradeoff.json".into());
    report::write_json(&out, &tables).map_err(|e| gnnone_bench::io_error(&out, e))?;
    println!("wrote {out}");
    prof.write();
    guard.finish()
}
