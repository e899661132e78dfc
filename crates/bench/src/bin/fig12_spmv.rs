//! Reproduces **Fig. 12**: COO nonzero-split SpMV (GNNOne) vs Merge-SpMV
//! (custom merge-path format) — the §4.4/§5.4.5 trade-off: 4 extra bytes
//! of coalesced row-ID load per NZE vs narrow metadata + broadcast +
//! online search.
//!
//! Expected shape: comparable or better everywhere, with the largest wins
//! (~1.7–2.1×) on the dense datasets (Reddit, Ogb-product analogues).
//! Note: the paper reports Merge-SpMV *crashing* on Kron-21 (G10); our
//! reimplementation completes it — recorded as a known deviation in
//! EXPERIMENTS.md.

use std::process::ExitCode;

use gnnone_bench::report::Table;
use gnnone_bench::{cli, io_error, profiling, report, runner};
use gnnone_kernels::registry;
use gnnone_kernels::traits::{Kernel, Op};
use gnnone_sim::GnnOneError;

fn main() -> ExitCode {
    gnnone_bench::figure_main("fig12_spmv", run)
}

fn run() -> Result<(), GnnOneError> {
    let opts = cli::from_env()?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let mut guard = runner::SweepGuard::new();
    let mut table = Table::new("Fig 12: SpMV", &["GnnOne", "Merge-SpMV"]);
    for spec in runner::selected_specs(&opts) {
        let ld = runner::load(&spec, opts.scale);
        let sharded = match opts.shards {
            Some(k) => Some(runner::sharded_executor(&opts, &ld, k, guard.policy())?),
            None => None,
        };
        let cells = registry::spmv_kernels(&ld.graph)
            .into_iter()
            .map(Kernel::Spmv)
            .map(|k| match &sharded {
                Some(exec) => runner::run_sharded(&mut guard, exec, Op::Spmv, k.name(), &ld, 1),
                None => runner::run_guarded(&backend, &k, &ld, 1, &mut guard),
            })
            .collect();
        table.push_row(spec.id, cells);
    }
    table.print();
    println!(
        "(paper: comparable or better on all datasets; 1.74x on Reddit, 2.09x on Ogb-product)"
    );

    let out = opts.out.unwrap_or_else(|| "results/fig12_spmv.json".into());
    report::write_json(&out, &table).map_err(|e| io_error(&out, e))?;
    println!("wrote {out}");
    prof.write();
    guard.finish()
}
