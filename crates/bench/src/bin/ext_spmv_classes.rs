//! **Extension experiment** (§4.4): the two classes of nonzero-split SpMV
//! the paper proves are special cases of GNNOne's SpMM design —
//! Dalton et al. (coalesced fetch, shared-memory inter-thread reduction)
//! and Merrill et al. / Merge-SpMV (uncoalesced fetch, thread-local
//! reduction) — against GNNOne's COO nonzero-split.

use gnnone_bench::report::Table;
use gnnone_bench::{cli, profiling, report, runner};
use gnnone_kernels::registry;
use gnnone_kernels::traits::Kernel;

fn main() -> std::process::ExitCode {
    gnnone_bench::figure_main("ext_spmv_classes", run)
}

fn run() -> Result<(), gnnone_sim::GnnOneError> {
    let opts = cli::from_env()?;
    runner::require_unsharded(&opts, "ext_spmv_classes")?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let mut guard = runner::SweepGuard::new();
    let mut table = Table::new(
        "Extension: nonzero-split SpMV classes (§4.4)",
        &["GnnOne", "Merge-SpMV", "Dalton et al."],
    );
    for spec in runner::selected_specs(&opts) {
        let ld = runner::load(&spec, opts.scale);
        let cells = registry::spmv_class_kernels(&ld.graph)
            .into_iter()
            .map(|k| runner::run_guarded(&backend, &Kernel::Spmv(k), &ld, 1, &mut guard))
            .collect();
        table.push_row(spec.id, cells);
    }
    table.print();
    println!("(the trade-off of §4.4: coalescing vs thread-local reduction; GNNOne's design subsumes both)");

    let out = opts
        .out
        .unwrap_or_else(|| "results/ext_spmv_classes.json".into());
    report::write_json(&out, &table).map_err(|e| gnnone_bench::io_error(&out, e))?;
    println!("wrote {out}");
    prof.write();
    guard.finish()
}
