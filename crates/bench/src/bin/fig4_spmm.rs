//! Reproduces **Fig. 4**: SpMM speedup of GNNOne over GE-SpMM, CuSparse,
//! Huang et al., FeatGraph and GNNAdvisor for feature lengths {6, 16, 32,
//! 64}.
//!
//! Expected shape (paper §5.2): GNNOne wins across the board (6.25× avg);
//! Huang et al. is the closest baseline (~1.3–1.7×); GE-SpMM degrades
//! sharply below f = 32 where it drops caching; FeatGraph is the worst.

use std::process::ExitCode;

use gnnone_bench::report::Table;
use gnnone_bench::{cli, io_error, profiling, report, runner};
use gnnone_kernels::registry;
use gnnone_kernels::traits::{Kernel, Op};
use gnnone_sim::GnnOneError;

fn main() -> ExitCode {
    gnnone_bench::figure_main("fig4_spmm", run)
}

fn run() -> Result<(), GnnOneError> {
    let opts = cli::from_env()?;
    let backend = runner::backend_from_options(&opts)?;
    let prof = profiling::Profiler::from_opts(&opts);
    prof.attach_backend(&backend);
    let specs = runner::selected_specs(&opts);
    let mut tables = Vec::new();
    let mut guard = runner::SweepGuard::new();

    for &dim in &opts.dims {
        let mut table = Table::new(
            &format!("Fig 4: SpMM, dim={dim}"),
            &[
                "GnnOne",
                "GE-SpMM",
                "CuSparse",
                "Huang et al.",
                "FeatGraph",
                "GNNAdvisor",
            ],
        );
        for spec in &specs {
            let ld = runner::load(spec, opts.scale);
            let sharded = match opts.shards {
                Some(k) => Some(runner::sharded_executor(&opts, &ld, k, guard.policy())?),
                None => None,
            };
            let cells = registry::spmm_kernels(&ld.graph)
                .into_iter()
                .map(Kernel::Spmm)
                .map(|k| match &sharded {
                    Some(exec) => {
                        runner::run_sharded(&mut guard, exec, Op::Spmm, k.name(), &ld, dim)
                    }
                    None => runner::run_guarded(&backend, &k, &ld, dim, &mut guard),
                })
                .collect();
            table.push_row(spec.id, cells);
        }
        table.print();
        tables.push(table);
    }

    let mut all = Vec::new();
    for t in &tables {
        for col in 1..t.systems.len() {
            all.extend(t.speedups_vs(col).into_iter().map(|(_, s)| s));
        }
    }
    println!(
        "\nOverall GnnOne SpMM speedup vs all baselines: mean {:.2}x over {} cells (paper: 6.25x avg)",
        all.iter().sum::<f64>() / all.len().max(1) as f64,
        all.len()
    );

    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "results/fig4_spmm.json".into());
    report::write_json(&out, &tables).map_err(|e| io_error(&out, e))?;
    println!("wrote {out}");
    if let Some(p) = &opts.plain_out {
        report::write_plain(p, &tables).map_err(|e| io_error(p, e))?;
        println!("wrote {p}");
    }
    prof.write();
    guard.finish()
}
