//! One serving step: a fresh `gnnone_serve::Service` on the native
//! backend, fed open loop from one generator thread that also collects
//! the replies, then a short closed-loop probe of the serving state's
//! `launch` and `batch_graph` calls.
//!
//! Latency runs from the time a request was due (not the time it was
//! sent), so a generator or service stall is charged to every request it
//! delayed; how late the generator ran is reported beside it.

use std::hint::black_box;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use gnnone_serve::model::make_backend;
use gnnone_serve::{
    BackendKind, ModelKind, Outcome, OutcomeKind, Scale, ServeConfig, ServerStats, Service,
    ServingState,
};
use gnnone_sim::splitmix64;

use crate::check::Checker;
use crate::report::{metric, Metric};
use crate::stats::{median, pct};
use crate::trace::Tracer;

/// Longest sleep between two polls of the reply channels.
const POLL: Duration = Duration::from_micros(50);
/// Queue-depth sampling period (4 Hz).
const HEALTH_EVERY: Duration = Duration::from_millis(250);
/// How long replies may trail the end of the step before the requests
/// still open count as missing.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// The latency limit on p99 the report checks each step against.
pub const P99_LIMIT_MS: f64 = 50.0;

/// The served model: GCN on the native backend, default policy, chaos off.
pub fn config(dataset: &str, scale: Scale) -> ServeConfig {
    ServeConfig {
        dataset: dataset.to_string(),
        scale,
        model: ModelKind::Gcn,
        backend: BackendKind::Native,
        ..ServeConfig::default()
    }
}

/// Starts a service and waits for its first health reply.
pub fn start(config: &ServeConfig) -> Result<Service, String> {
    let service = Service::start(config.clone()).map_err(|e| e.to_string())?;
    service
        .health()
        .ok_or_else(|| "the service did not answer its first health probe".to_string())?;
    Ok(service)
}

struct InFlight {
    span: u64,
    node: u32,
    due: Instant,
    measured: bool,
    rx: Receiver<Outcome>,
}

/// What one open-loop step measured (requests due after the warmup).
pub struct Step {
    latency_ms: Vec<f64>,
    virtual_over_wall: Vec<f64>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    queue_depth_max: usize,
    stats: ServerStats,
}

/// A uniform draw in (0, 1] from a splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    ((*state >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Runs one step at `rate` requests per second with exponential
/// (Poisson-arrival) gaps: `warmup` discarded, then `measure` kept. The
/// service is shut down at the end so its counters cover this step only.
#[allow(clippy::too_many_arguments)]
pub fn step(
    service: Service,
    oracle: &ServingState,
    rate: f64,
    warmup: Duration,
    measure: Duration,
    seed: u64,
    tracer: &mut Tracer,
    check: &mut Checker,
) -> Step {
    let n = oracle.num_vertices() as u64;
    let cls = oracle.classes;
    let mut rng = seed ^ 0x5e7e;
    let step_id = tracer.reserve();
    let start = Instant::now();
    let measure_from = start + warmup;
    let end = measure_from + measure;
    let mut next_due = start;
    let mut next_health = start;
    let mut inflight: Vec<InFlight> = Vec::new();
    // Sized up front: grown by doubling, these dominate the peak RSS of a
    // fast step and would make it depend on where the reallocations fell.
    let cap = (rate * measure.as_secs_f64() * 1.1) as usize + 64;
    let mut out = Step {
        latency_ms: Vec::with_capacity(cap),
        virtual_over_wall: Vec::with_capacity(cap),
        submit_us: Vec::with_capacity(cap),
        late_ms: Vec::with_capacity(cap),
        queue_depth_max: 0,
        stats: ServerStats::default(),
    };
    loop {
        let now = Instant::now();
        while next_due <= now && next_due < end {
            rng = splitmix64(rng);
            let node = (rng % n) as u32;
            let span = tracer.reserve();
            let t0 = Instant::now();
            let rx = service.submit(node, None);
            let t1 = Instant::now();
            let measured = next_due >= measure_from;
            if measured {
                out.submit_us
                    .push(t1.duration_since(t0).as_secs_f64() * 1e6);
                out.late_ms
                    .push(t0.duration_since(next_due).as_secs_f64() * 1e3);
            }
            tracer.leaf(span, "serve.submit", t0, t1, &[("node", f64::from(node))]);
            inflight.push(InFlight {
                span,
                node,
                due: next_due,
                measured,
                rx,
            });
            next_due += Duration::from_secs_f64(-unit(&mut rng).ln() / rate);
        }

        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].rx.try_recv() {
                Ok(outcome) => {
                    let seen = Instant::now();
                    let req = inflight.swap_remove(i);
                    let wall_ms = seen.duration_since(req.due).as_secs_f64() * 1e3;
                    tracer.record(
                        req.span,
                        step_id,
                        "serve.request",
                        req.due,
                        seen,
                        &[
                            ("virtual_ms", outcome.latency_ms),
                            ("outcome", outcome.kind as u8 as f64),
                            ("retries", f64::from(outcome.retries)),
                        ],
                    );
                    if req.measured {
                        out.latency_ms.push(wall_ms);
                        out.virtual_over_wall.push(outcome.latency_ms / wall_ms);
                    }
                    let r = req.node as usize;
                    let want = &oracle.reference_logits[r * cls..(r + 1) * cls];
                    match (outcome.kind, outcome.logits.as_deref()) {
                        (OutcomeKind::Success, Some(logits)) => {
                            check.close("serve logits", logits.iter().copied(), want);
                        }
                        (kind, _) => check.fail(format!(
                            "serve: node {} resolved {}",
                            req.node,
                            kind.as_str()
                        )),
                    }
                }
                Err(TryRecvError::Empty) => i += 1,
                Err(TryRecvError::Disconnected) => {
                    let req = inflight.swap_remove(i);
                    check.fail(format!("serve: no reply for node {}", req.node));
                }
            }
        }

        if now >= next_health {
            if let Some(h) = service.health() {
                out.queue_depth_max = out.queue_depth_max.max(h.queue_depth);
            }
            next_health += HEALTH_EVERY;
        }
        if next_due >= end && inflight.is_empty() {
            break;
        }
        if now >= end + DRAIN_LIMIT {
            for req in inflight.drain(..) {
                check.fail(format!("serve: reply for node {} never arrived", req.node));
            }
            break;
        }
        let wait = next_due.saturating_duration_since(Instant::now()).min(POLL);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    out.stats = service.shutdown();
    tracer.record(
        step_id,
        0,
        "serve.step",
        start,
        Instant::now(),
        &[("rate", rate), ("launches", out.stats.launches as f64)],
    );
    out
}

/// Closed-loop timings of `ServingState::{launch, batch_graph}`.
pub struct Probe {
    launch_b1: Vec<f64>,
    launch_b8: Vec<f64>,
    batch_graph_b8: Vec<f64>,
}

/// Probes the serving state's per-batch calls for `budget`, checking
/// every launched row against the reference logits.
pub fn probe(
    state: &ServingState,
    budget: Duration,
    seed: u64,
    tracer: &mut Tracer,
    check: &mut Checker,
) -> Probe {
    let backend = make_backend(BackendKind::Native);
    let n = state.num_vertices() as u64;
    let cls = state.classes;
    let mut rng = seed ^ 0x9b0e;
    let probe_id = tracer.reserve();
    let start = Instant::now();
    let mut p = Probe {
        launch_b1: Vec::new(),
        launch_b8: Vec::new(),
        batch_graph_b8: Vec::new(),
    };
    let end = start + budget;
    while Instant::now() < end || p.launch_b1.is_empty() {
        let nodes: Vec<u32> = (0..8)
            .map(|_| {
                rng = splitmix64(rng);
                (rng % n) as u32
            })
            .collect();
        for (batch, times, span) in [
            (&nodes[..1], &mut p.launch_b1, "serve.launch.b1"),
            (&nodes[..], &mut p.launch_b8, "serve.launch.b8"),
        ] {
            let t0 = Instant::now();
            let res = state.launch(&backend, batch);
            let t1 = Instant::now();
            times.push(t1.duration_since(t0).as_secs_f64() * 1e3);
            tracer.leaf(probe_id, span, t0, t1, &[]);
            match res {
                Ok((logits, _)) => {
                    let want: Vec<f32> = batch
                        .iter()
                        .flat_map(|&v| {
                            state.reference_logits[v as usize * cls..(v as usize + 1) * cls]
                                .iter()
                                .copied()
                        })
                        .collect();
                    check.close(span, logits, &want);
                }
                Err(e) => check.fail(format!("{span}: {e}")),
            }
        }
        let t0 = Instant::now();
        let graph = state.batch_graph(&nodes);
        let t1 = Instant::now();
        black_box(graph);
        p.batch_graph_b8
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        tracer.leaf(probe_id, "serve.batch_graph.b8", t0, t1, &[]);
    }
    tracer.record(probe_id, 0, "serve.probe", start, Instant::now(), &[]);
    p
}

/// End-to-end metrics of a step: request latency at its rate.
pub fn e2e_metrics(step: &Step) -> Vec<Metric> {
    let n = step.latency_ms.len();
    vec![
        metric("serve_p50_ms", median(&step.latency_ms), "ms", n),
        metric("serve_p99_ms", pct(&step.latency_ms, 99.0), "ms", n),
    ]
}

/// Whether the step met the p99 latency limit with no failed request.
pub fn limit_met(step: &Step, failed: u64) -> bool {
    failed == 0 && pct(&step.latency_ms, 99.0) <= P99_LIMIT_MS
}

/// Per-layer metrics of a step and the probe.
pub fn layer_metrics(step: &Step, probe: &Probe) -> Vec<Metric> {
    let s = &step.stats;
    let n = step.latency_ms.len();
    let count = |name: &str, v: u64| metric(name, v as f64, "count", 1);
    let batch_mean = s.succeeded as f64 / (s.launches.max(1)) as f64;
    vec![
        metric(
            "serve.batch_mean",
            batch_mean,
            "requests",
            s.launches as usize,
        ),
        count("serve.launches", s.launches),
        count("serve.rejected", s.rejected),
        count("serve.deadline_exceeded", s.deadline_exceeded),
        count("serve.degraded", s.degraded),
        metric(
            "serve.submit_us_p50",
            median(&step.submit_us),
            "us",
            step.submit_us.len(),
        ),
        count("serve.queue_depth_max", step.queue_depth_max as u64),
        metric(
            "serve.virtual_over_wall_p50",
            median(&step.virtual_over_wall),
            "x",
            n,
        ),
        metric(
            "serve.gen_late_ms_p99",
            pct(&step.late_ms, 99.0),
            "ms",
            step.late_ms.len(),
        ),
        metric(
            "serve.launch_ms_p50.b1",
            median(&probe.launch_b1),
            "ms",
            probe.launch_b1.len(),
        ),
        metric(
            "serve.launch_ms_p50.b8",
            median(&probe.launch_b8),
            "ms",
            probe.launch_b8.len(),
        ),
        metric(
            "serve.batch_graph_ms_p50.b8",
            median(&probe.batch_graph_b8),
            "ms",
            probe.batch_graph_b8.len(),
        ),
    ]
}
