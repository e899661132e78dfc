//! Reproduces **Fig. 3**: SDDMM speedup of GNNOne over dgSparse, CuSparse,
//! Sputnik, FeatGraph and DGL for feature lengths {6, 16, 32, 64}.
//!
//! Expected shape (paper §5.1): GNNOne wins everywhere; averages around
//! 6× against the main baselines, higher at small dims where prior works
//! idle warp lanes; CuSparse and Sputnik are one to two orders slower and
//! error out on datasets whose paper-scale |V| exceeds ~2M.

use std::process::ExitCode;

use gnnone_bench::report::{Cell, Table};
use gnnone_bench::{cli, io_error, profiling, report, runner, SDDMM_VERTEX_ERROR_THRESHOLD};
use gnnone_kernels::registry;
use gnnone_kernels::traits::{Kernel, Op};
use gnnone_sim::GnnOneError;

fn main() -> ExitCode {
    gnnone_bench::figure_main("fig3_sddmm", run)
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
            &format!("Fig 3: SDDMM, dim={dim}"),
            &[
                "GnnOne",
                "dgSparse",
                "CuSparse",
                "Sputnik",
                "FeatGraph",
                "DGL",
            ],
        );
        for spec in &specs {
            let ld = runner::load(spec, opts.scale);
            let sharded = match opts.shards {
                Some(k) => Some(runner::sharded_executor(&opts, &ld, k, guard.policy())?),
                None => None,
            };
            let mut cells = Vec::new();
            for kernel in registry::sddmm_kernels(&ld.graph)
                .into_iter()
                .map(Kernel::Sddmm)
            {
                // Sputnik's |V|²-shaped grid and cuSPARSE's workspace
                // indexing overflow at the *paper's* vertex counts (§5.1);
                // the analogue may be small enough to slip under the same
                // mechanism, so the check is applied at paper scale.
                let fails_at_paper_scale = matches!(kernel.name(), "Sputnik" | "CuSparse")
                    && spec.paper_vertices > SDDMM_VERTEX_ERROR_THRESHOLD;
                let cell = if fails_at_paper_scale {
                    Cell::Err("ERR".into())
                } else if let Some(exec) = &sharded {
                    runner::run_sharded(&mut guard, exec, Op::Sddmm, kernel.name(), &ld, dim)
                } else {
                    runner::run_guarded(&backend, &kernel, &ld, dim, &mut guard)
                };
                cells.push(cell);
            }
            table.push_row(spec.id, cells);
        }
        table.print();
        tables.push(table);
    }

    // Overall average across dims, excluding Sputnik/CuSparse as the paper
    // does for its 6.02× headline.
    let mut per_system: Vec<(usize, Vec<f64>)> = vec![(1, vec![]), (4, vec![]), (5, vec![])];
    for t in &tables {
        for (col, acc) in per_system.iter_mut() {
            acc.extend(t.speedups_vs(*col).into_iter().map(|(_, s)| s));
        }
    }
    let all: Vec<f64> = per_system
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    println!(
        "\nOverall GnnOne SDDMM speedup vs {{dgSparse, FeatGraph, DGL}}: mean {:.2}x over {} cells (paper: 6.02x avg)",
        all.iter().sum::<f64>() / all.len().max(1) as f64,
        all.len()
    );

    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "results/fig3_sddmm.json".into());
    report::write_json(&out, &tables).map_err(|e| io_error(&out, e))?;
    println!("wrote {out}");
    prof.write();
    guard.finish()
}
