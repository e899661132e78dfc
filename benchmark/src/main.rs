//! `gnnone-benchmark`: one wall-clock benchmark of the native GNNOne
//! stack — kernels, IR plans, sharded runs and serving — end to end and
//! layer by layer. See `README.md` beside this package for the metrics,
//! the workloads and why each exists.
//!
//! ```text
//! gnnone-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! gnnone-benchmark --compare BASE NEW [--bounds BENCHMARK.json]
//! ```
//!
//! A run prints a full report line (machine, sample counts, latency
//! limit) and, last, the result line: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits 1 when any output was wrong, 2 on a usage or
//! set-up error; `--compare` exits 1 when a metric regressed.

mod check;
mod compare;
mod kernels;
mod report;
mod serve;
mod stats;
mod trace;

use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gnnone_serve::ServeConfig;
use gnnone_sim::jsonio::{self, Json};
use gnnone_sparse::datasets::Scale;

use check::Checker;
use kernels::{Operands, PassSample, Rounds, Stack};
use report::{metric, Metric};
use stats::median;
use trace::Tracer;

/// One workload: the graph every layer runs on and the serving rate.
struct Workload {
    name: &'static str,
    dataset: &'static str,
    scale: Scale,
    rate: f64,
}

/// Why each exists is in `BENCHMARK.json` and the README.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "launch",
        dataset: "G0",
        scale: Scale::Small,
        rate: 30_000.0,
    },
    Workload {
        name: "road",
        dataset: "G5",
        scale: Scale::Medium,
        rate: 5_000.0,
    },
    Workload {
        name: "skew",
        dataset: "G7",
        scale: Scale::Medium,
        rate: 5_000.0,
    },
    Workload {
        name: "trickle",
        dataset: "G2",
        scale: Scale::Small,
        rate: 500.0,
    },
];

/// Shares of `--seconds` measured by the kernel loop and the serving
/// step; the serving probe gets the rest.
const KERNEL_SHARE: f64 = 0.45;
const SERVE_SHARE: f64 = 0.45;
/// Rounds of the kernel loop (twice as many in a traced run, half of
/// them untraced). Each round is one set-up and then passes; the
/// least-disturbed round gives the kernel timings (see `Rounds`).
const ROUNDS: u32 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare {
        base: PathBuf,
        new: PathBuf,
        bounds: PathBuf,
    },
}

const USAGE: &str = "usage: gnnone-benchmark --workload launch|road|skew|trickle --seed N \
                     --seconds S --trace 0|1 [--trace-out FILE]\n       \
                     gnnone-benchmark --compare BASE NEW [--bounds BENCHMARK.json]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut compare = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: u64 = value()?
                    .parse()
                    .map_err(|_| "--seconds must be a whole number")?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => bounds = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some((base, new)) = compare {
        return Ok(Command::Compare { base, new, bounds });
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    }))
}

/// glibc malloc settings every measured run uses. Left adaptive, glibc's
/// mmap threshold made the per-call staging buffers (up to 8 MB) come
/// from fresh page-faulting mappings in some runs and from reused heap in
/// others: the sharded pair on `road` measured 32 ms in one run and
/// 127 ms in the next, from the allocator's history rather than the
/// code. A fixed threshold above every per-call buffer and no trimming
/// hold each run in the reused-heap state a long-running process settles
/// in. Other allocators ignore these variables.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "17179869184"),
];

/// Runs this executable again as a child with [`MALLOC_ENV`] set (the
/// variables are read once, at process start), waits for it, and passes
/// its exit code on. The child writes straight to the inherited stdout.
fn rerun_with_malloc_env() -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .status()
        .map_err(|e| format!("cannot start the measuring child: {e}"))?;
    Ok(ExitCode::from(
        status
            .code()
            .and_then(|c| u8::try_from(c).ok())
            .unwrap_or(1),
    ))
}

fn main() -> ExitCode {
    let malloc_env_set = MALLOC_ENV
        .iter()
        .all(|&(k, v)| std::env::var(k).as_deref() == Ok(v));
    let result = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(_)) if !malloc_env_set => rerun_with_malloc_env(),
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare { base, new, bounds }) => run_compare(&base, &new, &bounds),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gnnone-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(base: &PathBuf, new: &PathBuf, bounds: &PathBuf) -> Result<ExitCode, String> {
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let spec = jsonio::parse(&read(bounds)?).map_err(|e| format!("{}: {e:?}", bounds.display()))?;
    let verdicts = compare::compare(&compare::bounds(&spec)?, &read(base)?, &read(new)?)?;
    Ok(if verdicts.contains(&compare::Verdict::Regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The kernel loop: rounds of one set-up followed by closed-loop passes.
struct KernelLoop {
    dataset: &'static str,
    scale: Scale,
    seed: u64,
    threads: usize,
    trace: bool,
    serve_config: ServeConfig,
    warmup: Duration,
    round_time: Duration,
    stack: Option<Stack>,
    operands: Option<Operands>,
    passes: Vec<PassSample>,
    setup_s: Vec<f64>,
}

impl KernelLoop {
    /// Runs `rounds`. Each starts with one set-up — the kernel stack plus
    /// a service up to its first health reply — so set-up samples spread
    /// over the run too. The service is stopped again at once so its
    /// worker does not tick beside the kernel loop. Traced and untraced
    /// rounds alternate so that drift hits both sides of
    /// `trace.overhead_frac`.
    fn run(
        &mut self,
        rounds: Range<u32>,
        tracer: &mut Tracer,
        check: &mut Checker,
    ) -> Result<(), String> {
        for round in rounds {
            drop(self.stack.take());
            let t = Instant::now();
            let stack = Stack::build(self.dataset, self.scale, self.threads)?;
            let service = serve::start(&self.serve_config)?;
            self.setup_s.push(t.elapsed().as_secs_f64());
            service.shutdown();
            if self.operands.is_none() {
                let ops = stack.operands(self.seed)?;
                let until = Instant::now() + self.warmup;
                while Instant::now() < until {
                    stack.pass(&ops, round, tracer, check);
                }
                self.operands = Some(ops);
            }
            let ops = self.operands.as_ref().expect("built in the first round");
            tracer.on = self.trace && round % 2 == 1;
            let until = Instant::now() + self.round_time;
            loop {
                self.passes.push(stack.pass(ops, round, tracer, check));
                if Instant::now() >= until {
                    break;
                }
            }
            self.stack = Some(stack);
        }
        Ok(())
    }
}

/// What one run measured.
struct Measured {
    metrics: Vec<Metric>,
    check: Checker,
    tracer: Tracer,
    serve_limit_met: bool,
    shape: (usize, usize),
    threads: usize,
}

/// Runs workload `w` for `seconds`: set-up, the kernel loop, one serving
/// step and the serving probe. `trace` selects which metrics it returns.
fn measure(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<Measured, String> {
    let epoch = Instant::now();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let total = Duration::from_secs(seconds);
    let warmup = total
        .mul_f64(0.05)
        .clamp(Duration::from_millis(200), Duration::from_secs(1));
    let serve_config = serve::config(w.dataset, w.scale);

    // The kernel loop runs in two halves around the serving step, so its
    // rounds spread over the whole run and one slow stretch of the
    // shared machine rarely covers all of them.
    let rounds = if trace { 2 * ROUNDS } else { ROUNDS };
    let mut kernel = KernelLoop {
        dataset: w.dataset,
        scale: w.scale,
        seed,
        threads,
        trace,
        serve_config: serve_config.clone(),
        warmup,
        round_time: total.mul_f64(KERNEL_SHARE) / rounds,
        stack: None,
        operands: None,
        passes: Vec::new(),
        setup_s: Vec::new(),
    };
    let mut tracer = Tracer::new(epoch, false);
    let mut check = Checker::default();
    kernel.run(0..rounds / 2, &mut tracer, &mut check)?;

    tracer.on = trace;
    let oracle = gnnone_serve::ServingState::build(&serve_config).map_err(|e| e.to_string())?;
    let service = serve::start(&serve_config)?;
    let step = serve::step(
        service,
        &oracle,
        w.rate,
        warmup,
        total.mul_f64(SERVE_SHARE),
        seed,
        &mut tracer,
        &mut check,
    );
    let probe_time = total.mul_f64(1.0 - KERNEL_SHARE - SERVE_SHARE);
    let probe = serve::probe(&oracle, probe_time, seed, &mut tracer, &mut check);
    drop(oracle);

    kernel.run(rounds / 2..rounds, &mut tracer, &mut check)?;
    let KernelLoop {
        stack,
        passes,
        setup_s,
        ..
    } = kernel;
    let stack = stack.expect("at least one round");

    let metrics: Vec<Metric> = if trace {
        let mut m = stack.layer_metrics(&passes);
        m.extend(serve::layer_metrics(&step, &probe));
        let layer = |traced| Rounds::new(&passes, traced).best(50.0, PassSample::layer_ms);
        m.push(metric(
            "trace.overhead_frac",
            layer(true) / layer(false) - 1.0,
            "ratio",
            passes.len(),
        ));
        m
    } else {
        let mut m = Stack::e2e_metrics(&passes);
        m.extend(serve::e2e_metrics(&step));
        m.push(metric("setup_s", median(&setup_s), "s", setup_s.len()));
        let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        m.push(metric("peak_rss_mb", rss, "MB", 1));
        m
    };
    Ok(Measured {
        metrics,
        serve_limit_met: serve::limit_met(&step, check.failed),
        check,
        tracer,
        shape: stack.shape(),
        threads,
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("unknown workload `{}`\n{USAGE}", args.workload))?;
    let m = measure(w, args.seed, args.seconds, args.trace)?;

    let mut extra = vec![];
    if args.trace {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(".bench_build/traces/{}-{}.json", w.name, args.seed))
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, m.tracer.to_chrome().to_string_compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (kept, dropped) = m.tracer.counts();
        let names = m.tracer.names().into_iter().map(|n| Json::Str(n.into()));
        extra.push((
            "trace",
            Json::obj(vec![
                ("file", Json::Str(path.display().to_string())),
                ("spans", Json::U64(kept as u64)),
                ("dropped_spans", Json::U64(dropped)),
                ("span_names", Json::Arr(names.collect())),
            ]),
        ));
    }

    let (vertices, nnz) = m.shape;
    let check = &m.check;
    let correct = check.all_passed();
    let mut fields = vec![
        ("benchmark", Json::Str("gnnone-benchmark".to_string())),
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("machine", report::machine()),
        (
            "inputs",
            Json::obj(vec![
                ("dataset", Json::Str(w.dataset.to_string())),
                ("scale", Json::Str(format!("{:?}", w.scale).to_lowercase())),
                ("vertices", Json::U64(vertices as u64)),
                ("nnz", Json::U64(nnz as u64)),
                ("f", Json::U64(kernels::F as u64)),
                ("shards", Json::U64(kernels::SHARDS as u64)),
                ("threads", Json::U64(m.threads as u64)),
                ("serve_rate_per_s", Json::F64(w.rate)),
            ]),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(check.attempted)),
        ("failed", Json::U64(check.failed)),
        (
            "first_failure",
            check.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
        ("serve_p99_limit_ms", Json::F64(serve::P99_LIMIT_MS)),
        ("serve_p99_limit_met", Json::Bool(m.serve_limit_met)),
        ("metrics", report::metrics_json(&m.metrics, true)),
    ];
    fields.extend(extra);
    println!("{}", Json::obj(fields).to_string_compact());
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(check.attempted)),
            ("failed", Json::U64(check.failed)),
            ("metrics", report::metrics_json(&m.metrics, false)),
        ])
        .to_string_compact()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(spec: &Json, key: &str) -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_a_run_reports() {
        let spec = jsonio::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads = listed(&spec, "workloads");
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()).to_vec());
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let m = measure(&WORKLOADS[0], 7, 1, trace).unwrap();
            assert!(m.check.all_passed(), "{:?}", m.check.first_failure);
            let units: Vec<String> = spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("unit").and_then(Json::as_str).unwrap().to_string())
                .collect();
            let got: Vec<String> = m.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, listed(&spec, key));
            let got: Vec<String> = m.metrics.iter().map(|m| m.unit.to_string()).collect();
            assert_eq!(got, units);
            assert!(m.metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse(args("--workload road --seed 3 --seconds 10 --trace 1").into_iter());
        assert!(matches!(
            ok,
            Ok(Command::Run(Args {
                seed: 3,
                trace: true,
                ..
            }))
        ));
        for bad in [
            "--workload road --seed 3 --seconds 0 --trace 0",
            "--workload road --seed x --seconds 10 --trace 0",
            "--workload road --seed 3 --seconds 10 --trace 2",
            "--seed 3 --seconds 10",
            "--workload road --seed 3 --seconds 10 --frobnicate",
        ] {
            assert!(parse(args(bad).into_iter()).is_err(), "{bad}");
        }
    }
}
