//! `gnnone-prof` — offline analysis of `--metrics` / `--trace` output,
//! plus the registry-wide sanitizer sweep.
//!
//! ```text
//! gnnone-prof show     metrics.json           per-kernel summary table
//! gnnone-prof diff     a.json b.json          A-vs-B comparison by kernel
//! gnnone-prof trace    trace.json             chrome-trace sanity summary
//! gnnone-prof sanitize [figure flags]         sweep every kernel under the sanitizer
//! ```
//!
//! `show` and `diff` read [`MetricsSnapshot`] files written by any figure
//! binary's `--metrics` flag (or by [`MetricsSnapshot::write`] directly);
//! `trace` reads the Chrome-trace JSON written by `--trace`. See
//! `docs/PROFILING.md` for the counter definitions and a worked diff
//! example.
//!
//! `sanitize` takes the figure binaries' flags (`--scale`, `--dims`,
//! `--datasets`, `--out`), runs every registered kernel on the selected
//! graphs with the sanitizer attached, prints per-kernel verdicts, and
//! exits non-zero when any finding fires. See `docs/SANITIZER.md`.
//!
//! `fuzz` drives every registered kernel through the watchdog (and, with
//! `--sanitize`, the sanitizer) over the adversarial corpus from
//! `gnnone_sparse::gen::adversarial` plus any `--datasets` Table 1 graphs
//! at tiny scale. Malformed inputs must be rejected with typed errors;
//! valid-extreme inputs must run clean. Exits non-zero on any panic,
//! abort, sanitizer finding, or validation hole. See `docs/ROBUSTNESS.md`.
//!
//! `verify` runs the static kernel verifier: every registry kernel's
//! symbolic access summary is checked (race freedom, bounds, barrier
//! epochs, watchdog budget) under both execution models on the selected
//! graphs, plus the 24-point config lattice for the tunable GNNOne
//! kernels. Exits non-zero unless every obligation is `Proved` — a kernel
//! without a summary is a coverage failure. See `docs/STATIC_ANALYSIS.md`.

use std::process::ExitCode;

use gnnone_kernels::sanitize::{sweep_graph, total_findings};
use gnnone_sim::jsonio::{self, Json};
use gnnone_sim::{Gpu, KernelMetrics, MetricsSnapshot, SanitizeConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("show") if args.len() == 2 => show(&args[1]),
        Some("diff") if args.len() == 3 => diff(&args[1], &args[2]),
        Some("trace") if args.len() == 2 => trace_summary(&args[1]),
        Some("sanitize") => sanitize_cmd(&args[1..]),
        Some("verify") => verify_cmd(&args[1..]),
        Some("fuzz") => fuzz_cmd(&args[1..]),
        Some("chaos") => chaos_cmd(&args[1..]),
        Some("shard") => shard_cmd(&args[1..]),
        Some("bench") => bench_cmd(&args[1..]),
        Some("fuse") => fuse_cmd(&args[1..]),
        Some("serve-bench") => serve_bench_cmd(&args[1..]),
        Some("--help") | Some("-h") => {
            usage();
            Ok(())
        }
        _ => {
            usage();
            Err("expected: show <metrics.json> | diff <a.json> <b.json> | \
                 trace <trace.json> | sanitize [flags] | verify [flags] | \
                 fuzz [flags] | chaos [flags] | shard [flags] | bench [flags] | \
                 fuse [flags] | serve-bench [flags]"
                .to_string())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gnnone-prof: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage:\n  gnnone-prof show <metrics.json>\n  \
         gnnone-prof diff <a.json> <b.json>\n  \
         gnnone-prof trace <trace.json>\n  \
         gnnone-prof sanitize [--scale tiny|small|medium] [--dims 6,16] \
         [--datasets G0,G3] [--out report.json]\n  \
         gnnone-prof verify [--scale tiny|small|medium] [--dims 6,16] \
         [--datasets G0,G3] [--out verdicts.json]\n  \
         gnnone-prof fuzz [--seed N|0xHEX] [--sanitize] [--datasets G0,G3] \
         [--f 8] [--out report.json]\n  \
         gnnone-prof chaos [--seed N|0xHEX] [--datasets G0,G5] [--f 8] \
         [--schedule-seeds 8] [--kernels GnnOne,FusedGAT] [--out report.json]\n  \
         gnnone-prof shard [--seed N|0xHEX] [--datasets G0,G5] [--f 8] \
         [--shards 2,4,8] [--seeds 8] [--threads N] \
         [--kernels GnnOne,FusedGAT] [--out report.json]\n  \
         gnnone-prof bench [--scale tiny|small|medium] [--datasets G0,G5] \
         [--f 32] [--threads N] [--warmup 2] [--repeats 5] \
         [--kernels FusedGAT,GnnOne-UAddV] [--out BENCH_NATIVE.json]\n  \
         gnnone-prof fuse [--scale tiny|small|medium] [--datasets G0,G5] \
         [--f 8] [--threads N] [--warmup 2] [--repeats 5] \
         [--kernels FusedGAT,GnnOne] \
         [--out fusion.json] [--append BENCH_NATIVE.json]\n  \
         gnnone-prof serve-bench [--dataset G2] [--scale tiny|small|medium] \
         [--model gcn|gat] [--backend sim|native] [--seed N|0xHEX] \
         [--requests N] [--out BENCH_SERVE.json]"
    );
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| format!("bad --seed `{text}` (expected decimal or 0x-hex)"))
}

fn fuzz_cmd(args: &[String]) -> Result<(), String> {
    let mut opts = gnnone_bench::fuzz::FuzzOpts {
        sanitize: false,
        dataset_ids: Vec::new(),
        ..Default::default()
    };
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_seed(&value("--seed")?)?,
            "--sanitize" => opts.sanitize = true,
            "--datasets" => {
                opts.dataset_ids = value("--datasets")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--f" => {
                opts.f = value("--f")?
                    .parse()
                    .map_err(|_| "bad --f (expected a positive integer)".to_string())?;
            }
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown fuzz flag `{other}`")),
        }
    }

    println!(
        "fuzz: seed {:#x}, sanitizer {}, control datasets [{}]",
        opts.seed,
        if opts.sanitize { "on" } else { "off" },
        opts.dataset_ids.join(", ")
    );
    let report = gnnone_bench::fuzz::run_fuzz(&opts)?;
    println!(
        "{} case(s), {} kernel launch(es), {} structured rejection(s), {} finding(s)",
        report.cases_run,
        report.kernels_driven,
        report.rejected.len(),
        report.findings.len()
    );
    for (case, err) in &report.rejected {
        println!("  rejected {case}: {err}");
    }
    for finding in &report.findings {
        println!("  FINDING {finding}");
    }
    if let Some(path) = &out {
        std::fs::write(path, report.to_json().to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("report: {path}");
    }
    if !report.clean() {
        return Err(format!(
            "{} fuzz finding(s) — reproduce with --seed {:#x}",
            report.findings.len(),
            report.seed
        ));
    }
    println!("fuzz sweep clean");
    Ok(())
}

fn chaos_cmd(args: &[String]) -> Result<(), String> {
    use gnnone_bench::chaos::{run_chaos, ChaosOpts};
    use gnnone_sim::Verdict;

    let mut opts = ChaosOpts::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_seed(&value("--seed")?)?,
            "--datasets" => {
                opts.dataset_ids = value("--datasets")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--f" => {
                opts.f = value("--f")?
                    .parse()
                    .map_err(|_| "bad --f (expected a positive integer)".to_string())?;
            }
            "--schedule-seeds" => {
                opts.schedule_seeds = value("--schedule-seeds")?.parse().map_err(|_| {
                    "bad --schedule-seeds (expected a non-negative integer)".to_string()
                })?;
            }
            "--kernels" => {
                opts.kernels = value("--kernels")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown chaos flag `{other}`")),
        }
    }

    println!(
        "chaos: fault seed {:#x}, datasets [{}], f {}, {} schedule seed(s)",
        opts.seed,
        opts.dataset_ids.join(", "),
        opts.f,
        opts.schedule_seeds
    );
    let report = run_chaos(&opts).map_err(|e| e.to_string())?;
    print!("{}", report.resilience_matrix());
    println!(
        "{} run(s): {} detected, {} aborted, {} declined, {} masked, \
         {} not-injected, {} SILENT",
        report.cells.len(),
        report.verdict_count(Verdict::DetectedBySanitizer),
        report.verdict_count(Verdict::AbortedByWatchdog),
        report.verdict_count(Verdict::StructuredDecline),
        report.verdict_count(Verdict::Masked),
        report.verdict_count(Verdict::NotInjected),
        report.verdict_count(Verdict::SilentDataCorruption),
    );
    let schedule_ok = report.schedule.iter().filter(|s| s.identical).count();
    println!(
        "schedule determinism: {}/{} kernels bit-identical across {} seeds",
        schedule_ok,
        report.schedule.len(),
        report.schedule.first().map_or(0, |s| s.seeds_checked)
    );
    if let Some(path) = &out {
        std::fs::write(path, report.to_json().to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("report: {path}");
    }
    if !report.clean() {
        for c in report.silent_corruptions() {
            eprintln!("  SDC {c}");
        }
        for s in report.schedule.iter().filter(|s| !s.identical) {
            eprintln!(
                "  NONDETERMINISTIC {} on {}: {}",
                s.kernel, s.dataset, s.detail
            );
        }
        return Err(format!(
            "chaos sweep failed — reproduce with --seed {:#x}",
            report.seed
        ));
    }
    println!("chaos sweep clean — every injected fault detected, masked, or declined");
    Ok(())
}

/// `shard` — the shard-fault sweep: every selected registry kernel runs
/// shard-by-shard under injected shard faults, and every recovered run
/// must be bitwise identical to the fault-free unsharded launch.
fn shard_cmd(args: &[String]) -> Result<(), String> {
    use gnnone_bench::shard::{run_shard_sweep, ShardOpts, ShardVerdict};

    let mut opts = ShardOpts::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_seed(&value("--seed")?)?,
            "--datasets" => {
                opts.dataset_ids = value("--datasets")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--f" => {
                opts.f = value("--f")?
                    .parse()
                    .map_err(|_| "bad --f (expected a positive integer)".to_string())?;
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim().parse::<usize>().ok().filter(|&k| k >= 1).ok_or(
                            "bad --shards (expected comma-separated integers >= 1)".to_string(),
                        )
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| "bad --seeds (expected a positive integer)".to_string())?;
            }
            "--threads" => {
                let t: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads (expected a positive integer)".to_string())?;
                if t == 0 {
                    return Err("--threads must be >= 1".to_string());
                }
                opts.threads = Some(t);
            }
            "--kernels" => {
                opts.kernels = value("--kernels")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown shard flag `{other}`")),
        }
    }

    println!(
        "shard: base seed {:#x}, datasets [{}], f {}, K {:?}, {} seed(s)/cell",
        opts.seed,
        opts.dataset_ids.join(", "),
        opts.f,
        opts.shards,
        opts.seeds
    );
    let report = run_shard_sweep(&opts).map_err(|e| e.to_string())?;
    println!("partition balance:");
    let rows: Vec<Vec<String>> = report
        .partitions
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.stats.shards.to_string(),
                p.stats.max_nnz.to_string(),
                p.stats.min_nnz.to_string(),
                format!("{:.1}", p.stats.avg_nnz),
                format!("{:.3}", p.stats.imbalance),
                p.stats.empty_shards.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "dataset",
            "K",
            "max_nnz",
            "min_nnz",
            "avg_nnz",
            "imbalance",
            "empty",
        ],
        &rows,
    );
    print!("{}", report.recovery_matrix());
    let parity_ok = report.parity.iter().filter(|p| p.identical).count();
    println!(
        "fault-free parity: {}/{} (kernel, K) cells bitwise identical to the \
         unsharded run",
        parity_ok,
        report.parity.len()
    );
    println!(
        "{} run(s): {} recovered-identical, {} not-injected, {} declined, \
         {} errors, {} SILENT",
        report.cells.len(),
        report.verdict_count(ShardVerdict::RecoveredIdentical),
        report.verdict_count(ShardVerdict::CleanNotInjected),
        report.verdict_count(ShardVerdict::DegradedDeclined),
        report.verdict_count(ShardVerdict::UnexpectedError),
        report.verdict_count(ShardVerdict::SilentCorruption),
    );
    if let Some(path) = &out {
        std::fs::write(path, report.to_json().to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("report: {path}");
    }
    if !report.clean() {
        for v in report.violations() {
            eprintln!("  VIOLATION {v}");
            eprintln!("    reproduce: {}", v.reproduce());
        }
        for p in report.parity.iter().filter(|p| !p.identical) {
            eprintln!(
                "  PARITY {} ({}) on {} at K={}: {}",
                p.kernel, p.family, p.dataset, p.shards, p.detail
            );
        }
        return Err(format!(
            "shard sweep failed — reproduce with --seed {:#x}",
            report.seed
        ));
    }
    println!(
        "shard sweep clean — every injected shard fault recovered \
         bitwise-identically from its checkpoint"
    );
    Ok(())
}

/// `bench` — the native-backend performance sweep behind
/// `BENCH_NATIVE.json`.
fn bench_cmd(args: &[String]) -> Result<(), String> {
    use gnnone_bench::native::{run_native_bench, NativeBenchOpts};
    use gnnone_sparse::datasets::Scale;

    let mut opts = NativeBenchOpts::default();
    let mut out = "BENCH_NATIVE.json".to_string();
    let mut it = args.iter();
    let int = |flag: &str, v: &str| -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("bad {flag} (expected a positive integer)"))
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                opts.scale = match value("--scale")?.to_ascii_lowercase().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    other => return Err(format!("unknown scale `{other}` (tiny|small|medium)")),
                }
            }
            "--datasets" => {
                opts.dataset_ids = value("--datasets")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--f" => opts.f = int("--f", &value("--f")?)?,
            "--threads" => {
                let t = int("--threads", &value("--threads")?)?;
                if t == 0 {
                    return Err("--threads must be >= 1".to_string());
                }
                opts.threads = Some(t);
            }
            "--warmup" => opts.warmup = int("--warmup", &value("--warmup")?)?,
            "--repeats" => {
                let r = int("--repeats", &value("--repeats")?)?;
                if r == 0 {
                    return Err("--repeats must be >= 1".to_string());
                }
                opts.repeats = r;
            }
            "--kernels" => {
                opts.kernels = value("--kernels")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--out" => out = value("--out")?,
            other => return Err(format!("unknown bench flag `{other}`")),
        }
    }

    let report = run_native_bench(&opts).map_err(|e| e.to_string())?;
    println!(
        "native bench: {} thread(s), {} warmup + {} timed run(s) per cell, f={}",
        report.threads, report.warmup, report.repeats, report.f
    );
    let rows: Vec<Vec<String>> = report
        .entries
        .iter()
        .map(|e| {
            vec![
                e.dataset.clone(),
                e.op.to_string(),
                e.name.clone(),
                e.format.clone(),
                format!("{:.3}", e.best_ms),
                format!("{:.3}", e.median_ms),
                format!("{:.3e}", e.edges_per_sec),
            ]
        })
        .collect();
    print_table(
        &[
            "dataset",
            "op",
            "kernel",
            "format",
            "best_ms",
            "median_ms",
            "edges/s",
        ],
        &rows,
    );
    println!(
        "\n{} cell(s) over {} kernel(s) on {} dataset(s)",
        report.entries.len(),
        report.distinct_kernels(),
        report.datasets.len()
    );
    std::fs::write(&out, report.to_json().to_string_pretty() + "\n")
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// `fuse` — the fusion-IR match/lower report plus fused-vs-unfused GAT
/// timings (the `fusion` section of `BENCH_NATIVE.json`).
fn fuse_cmd(args: &[String]) -> Result<(), String> {
    use gnnone_bench::fuse::{append_fusion_section, run_fuse, FuseOpts};
    use gnnone_sparse::datasets::Scale;

    let mut opts = FuseOpts::default();
    let mut out: Option<String> = None;
    let mut append: Option<String> = None;
    let mut it = args.iter();
    let int = |flag: &str, v: &str| -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("bad {flag} (expected a positive integer)"))
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                opts.scale = match value("--scale")?.to_ascii_lowercase().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    other => return Err(format!("unknown scale `{other}` (tiny|small|medium)")),
                }
            }
            "--datasets" => {
                opts.dataset_ids = value("--datasets")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--f" => opts.f = int("--f", &value("--f")?)?,
            "--threads" => {
                let t = int("--threads", &value("--threads")?)?;
                if t == 0 {
                    return Err("--threads must be >= 1".to_string());
                }
                opts.threads = Some(t);
            }
            "--warmup" => opts.warmup = int("--warmup", &value("--warmup")?)?,
            "--repeats" => {
                let r = int("--repeats", &value("--repeats")?)?;
                if r == 0 {
                    return Err("--repeats must be >= 1".to_string());
                }
                opts.repeats = r;
            }
            "--kernels" => {
                opts.kernels = value("--kernels")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--out" => out = Some(value("--out")?),
            "--append" => append = Some(value("--append")?),
            other => return Err(format!("unknown fuse flag `{other}`")),
        }
    }

    let report = run_fuse(&opts)?;
    println!("fusion IR match/lower report:");
    for m in &report.matches {
        println!("\n== {} ==", m.graph);
        println!("{}", m.report.trim_end());
    }
    println!(
        "\nfused-vs-unfused GAT chain (end-to-end plan wall-clock; *_launch = \
         launch+host medians): {} thread(s), {} warmup + {} timed run(s), f={}",
        report.threads, report.warmup, report.repeats, report.f
    );
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.dataset.clone(),
                c.nnz.to_string(),
                format!("{:.3}", c.fused_best_ms),
                format!("{:.3}", c.fused_median_ms),
                format!("{:.3}", c.fused_launch_ms),
                format!("{:.3}", c.unfused_best_ms),
                format!("{:.3}", c.unfused_median_ms),
                format!("{:.3}", c.unfused_launch_ms),
                format!("{:.2}x", c.speedup()),
            ]
        })
        .collect();
    print_table(
        &[
            "dataset",
            "nnz",
            "fused_best",
            "fused_med",
            "fused_launch",
            "unfused_best",
            "unfused_med",
            "unfused_launch",
            "speedup",
        ],
        &rows,
    );

    if let Some(path) = &out {
        std::fs::write(path, report.to_json().to_string_pretty() + "\n")
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &append {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = gnnone_sim::jsonio::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        let doc = append_fusion_section(doc, &report)?;
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("appended fusion section to {path}");
    }
    Ok(())
}

fn serve_bench_cmd(args: &[String]) -> Result<(), String> {
    use gnnone_bench::serve_bench::{serve_bench_to, ServeBenchOpts};
    use gnnone_sparse::datasets::Scale;

    let mut opts = ServeBenchOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--dataset" => opts.dataset = value("--dataset")?,
            "--scale" => {
                opts.scale = match value("--scale")?.to_ascii_lowercase().as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    other => return Err(format!("unknown scale `{other}` (tiny|small|medium)")),
                }
            }
            "--model" => opts.model = value("--model")?.parse()?,
            "--backend" => opts.backend = value("--backend")?.parse()?,
            "--seed" => opts.seed = parse_seed(&value("--seed")?)?,
            "--requests" => {
                let n: u64 = value("--requests")?
                    .parse()
                    .map_err(|_| "bad --requests (expected a positive integer)".to_string())?;
                if n == 0 {
                    return Err("--requests must be >= 1".to_string());
                }
                opts.requests = n;
            }
            "--out" => opts.out = Some(value("--out")?),
            other => return Err(format!("unknown serve-bench flag `{other}`")),
        }
    }
    serve_bench_to(&opts)
}

fn sanitize_cmd(args: &[String]) -> Result<(), String> {
    let opts = gnnone_bench::cli::parse(args.iter().cloned()).map_err(|e| e.to_string())?;
    gnnone_bench::runner::require_sim_backend(&opts, "gnnone-prof sanitize")
        .map_err(|e| e.to_string())?;
    let specs = gnnone_bench::runner::try_selected_specs(&opts)?;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut entries: Vec<Json> = Vec::new();
    let mut total: u64 = 0;
    for spec in &specs {
        let ld = gnnone_bench::runner::load(spec, opts.scale);
        for &f in &opts.dims {
            // A fresh device per (dataset, f) keeps audits attributable.
            let gpu = Gpu::new(gnnone_bench::figure_gpu_spec());
            gpu.enable_sanitizer(SanitizeConfig::on());
            let sweeps = sweep_graph(&gpu, &ld.graph, f);
            total += total_findings(&sweeps);
            for s in &sweeps {
                rows.push(vec![
                    spec.id.to_string(),
                    f.to_string(),
                    s.name.clone(),
                    s.op.to_string(),
                    s.format.to_string(),
                    match &s.skipped {
                        None => "ok".to_string(),
                        Some(reason) => format!("skip ({reason})"),
                    },
                    s.findings.to_string(),
                ]);
            }
            entries.push(Json::obj(vec![
                ("dataset", Json::Str(spec.id.to_string())),
                ("f", Json::U64(f as u64)),
                (
                    "kernels",
                    Json::Arr(
                        sweeps
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("name", Json::Str(s.name.clone())),
                                    ("op", Json::Str(s.op.to_string())),
                                    ("format", Json::Str(s.format.to_string())),
                                    (
                                        "skipped",
                                        match &s.skipped {
                                            None => Json::Null,
                                            Some(r) => Json::Str(r.clone()),
                                        },
                                    ),
                                    ("findings", Json::U64(s.findings)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
    }
    let header = [
        "dataset", "f", "kernel", "op", "format", "status", "findings",
    ];
    print_table(&header, &rows);
    println!(
        "\n{} kernel run(s), {total} finding(s){}",
        rows.len(),
        if total == 0 { " — clean" } else { "" }
    );
    if let Some(path) = &opts.out {
        let report = Json::obj(vec![
            ("total_findings", Json::U64(total)),
            ("sweeps", Json::Arr(entries)),
        ]);
        std::fs::write(path, report.to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("report: {path}");
    }
    if total > 0 {
        return Err(format!("{total} sanitizer finding(s) — see table above"));
    }
    Ok(())
}

fn verify_cmd(args: &[String]) -> Result<(), String> {
    use gnnone_kernels::analysis::ExecModel;
    let opts = gnnone_bench::cli::parse(args.iter().cloned()).map_err(|e| e.to_string())?;
    let cells =
        gnnone_bench::verify::verify_datasets(&opts, &[ExecModel::Sim, ExecModel::Native], true)
            .map_err(|e| e.to_string())?;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in &cells {
        for v in &c.verdicts {
            rows.push(vec![
                c.dataset.clone(),
                c.f.to_string(),
                v.kernel.clone(),
                v.op.to_string(),
                v.model.as_str().to_string(),
                v.verdict.as_str().to_string(),
            ]);
        }
    }
    print_table(&["dataset", "f", "kernel", "op", "model", "verdict"], &rows);
    let lattice_total: usize = cells.iter().map(|c| c.lattice.len()).sum();
    let failures: Vec<(String, String)> = cells
        .iter()
        .flat_map(|c| {
            c.failures()
                .into_iter()
                .map(move |(label, _)| (format!("{} f={}", c.dataset, c.f), label))
        })
        .collect();
    println!(
        "\n{} registry obligation(s) + {lattice_total} lattice obligation(s): {}",
        rows.len(),
        if failures.is_empty() {
            "all proved".to_string()
        } else {
            format!("{} FAILED", failures.len())
        }
    );
    for (cell, label) in &failures {
        println!("  {cell}: {label}");
    }
    if let Some(path) = &opts.out {
        let report = gnnone_bench::verify::sweep_to_json(&cells);
        std::fs::write(path, report.to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("report: {path}");
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} verification obligation(s) not proved — see list above",
            failures.len()
        ));
    }
    Ok(())
}

fn load_snapshot(path: &str) -> Result<MetricsSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    MetricsSnapshot::from_json_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// One row of the `show` table, pre-formatted.
fn summary_row(k: &KernelMetrics) -> Vec<String> {
    vec![
        k.name.clone(),
        k.launches.to_string(),
        format!("{:.3}", k.time_ms),
        format!("{:.1}", k.achieved_bandwidth_gbs()),
        format!("{:.1}%", 100.0 * k.sector_efficiency()),
        format!("{:.1}%", 100.0 * k.stall_fraction()),
        format!("{:.2}", k.atomic_conflict_rate()),
        format!("{:.2}", k.avg_occupancy()),
    ]
}

const SUMMARY_HEADER: [&str; 8] = [
    "kernel",
    "launches",
    "time_ms",
    "GB/s",
    "sector_eff",
    "stall",
    "atomic_conf",
    "occupancy",
];

fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut s = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i == 0 {
                s.push_str(&format!("{cell:<w$}"));
            } else {
                s.push_str(&format!("  {cell:>w$}"));
            }
        }
        println!("{}", s.trim_end());
    };
    line(header.to_vec());
    let dashes: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    line(dashes.iter().map(String::as_str).collect());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

fn show(path: &str) -> Result<(), String> {
    let snap = load_snapshot(path)?;
    println!(
        "device: {} @ {:.2} GHz — {} kernel(s)\n",
        snap.device,
        snap.clock_ghz,
        snap.kernels.len()
    );
    let rows: Vec<Vec<String>> = snap.kernels.iter().map(summary_row).collect();
    print_table(&SUMMARY_HEADER, &rows);
    Ok(())
}

fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}

fn diff(path_a: &str, path_b: &str) -> Result<(), String> {
    let a = load_snapshot(path_a)?;
    let b = load_snapshot(path_b)?;
    println!("A = {path_a}\nB = {path_b}\n");

    let mut rows = Vec::new();
    for ka in &a.kernels {
        let Some(kb) = b.kernel(&ka.name) else {
            println!("only in A: {}", ka.name);
            continue;
        };
        rows.push(vec![
            ka.name.clone(),
            format!("{:.3}", ka.time_ms),
            format!("{:.3}", kb.time_ms),
            ratio(kb.time_ms, ka.time_ms),
            format!(
                "{:.1}% / {:.1}%",
                100.0 * ka.sector_efficiency(),
                100.0 * kb.sector_efficiency()
            ),
            format!(
                "{:.1}% / {:.1}%",
                100.0 * ka.stall_fraction(),
                100.0 * kb.stall_fraction()
            ),
            format!(
                "{:.0} / {:.0}",
                ka.achieved_bandwidth_gbs(),
                kb.achieved_bandwidth_gbs()
            ),
        ]);
    }
    for kb in &b.kernels {
        if a.kernel(&kb.name).is_none() {
            println!("only in B: {}", kb.name);
        }
    }
    let header = [
        "kernel",
        "A time_ms",
        "B time_ms",
        "B/A",
        "sector_eff A/B",
        "stall A/B",
        "GB/s A/B",
    ];
    print_table(&header, &rows);
    println!("\nB/A > 1 means A is faster; sector_eff and stall explain why.");
    Ok(())
}

fn trace_summary(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = jsonio::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("not a chrome trace: missing 'traceEvents' array")?;

    let mut counts: Vec<(String, usize)> = Vec::new();
    let mut end_us: f64 = 0.0;
    let mut spans = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("?");
        let key = if ph == "M" {
            "metadata".to_string()
        } else {
            e.get("cat")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
        if ph == "X" {
            spans += 1;
            let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
            let dur = e.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
            end_us = end_us.max(ts + dur);
        }
    }
    let device = doc
        .get("otherData")
        .and_then(|o| o.get("device"))
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    println!(
        "{path}: {} events ({spans} spans) on {device}, timeline ends at {:.3} ms",
        events.len(),
        end_us / 1e3
    );
    for (k, n) in counts {
        println!("  {k:<10} {n}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(1.0, 0.0), "-");
        assert_eq!(ratio(3.0, 2.0), "1.50x");
    }

    #[test]
    fn seed_parses_decimal_and_hex() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xC0FFEE").unwrap(), 0xC0FFEE);
        assert_eq!(parse_seed("0Xff").unwrap(), 255);
        assert!(parse_seed("zzz").is_err());
        assert!(parse_seed("0x").is_err());
    }
}
