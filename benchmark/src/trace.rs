//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! One span per public call, each with a name, start, end, a parent id
//! (the kernel pass or the served request it belongs to) and numeric
//! attributes. Spans stay in memory and are written once, at the end of
//! the run, as Chrome trace JSON through `gnnone_sim::jsonio`. A detached
//! recorder stores nothing: [`Tracer::record`] returns at its first
//! branch, so untraced runs pay one predictable branch per call.

use std::collections::HashMap;
use std::time::Instant;

use gnnone_sim::jsonio::Json;

/// Spans kept per span name. A closed-loop run on a small graph makes
/// tens of thousands of passes; the cap keeps the trace file small while
/// every layer stays represented.
const CAP_PER_NAME: usize = 4_000;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, f64)>,
}

/// The span recorder; `on` is switched per round so traced and untraced
/// rounds can alternate inside one run.
pub struct Tracer {
    epoch: Instant,
    /// Whether calls are recorded.
    pub on: bool,
    spans: Vec<Span>,
    per_name: HashMap<&'static str, usize>,
    next_id: u64,
    dropped: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            on,
            spans: Vec::new(),
            per_name: HashMap::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends (a pass, a request). 0 when detached.
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a reserved `id` (see [`Tracer::reserve`]).
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: &[(&'static str, f64)],
    ) {
        if !self.on {
            return;
        }
        let kept = self.per_name.entry(name).or_insert(0);
        if *kept >= CAP_PER_NAME {
            self.dropped += 1;
            return;
        }
        *kept += 1;
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            args: args.to_vec(),
        });
    }

    /// Records a span with no children of its own.
    pub fn leaf(
        &mut self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: &[(&'static str, f64)],
    ) {
        let id = self.reserve();
        self.record(id, parent, name, start, end, args);
    }

    /// Spans kept, and spans past the per-name cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Distinct span names kept, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.per_name.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// The trace as Chrome trace JSON (`chrome://tracing`, Perfetto).
    /// Each layer gets its own track; ids and parent ids are in `args`.
    pub fn to_chrome(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("id", Json::U64(s.id)), ("parent", Json::U64(s.parent))];
                args.extend(s.args.iter().map(|&(k, v)| (k, Json::F64(v))));
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(layer(s.name).to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::F64(s.start_us)),
                    ("dur", Json::F64(s.dur_us)),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(track(s.name))),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("droppedSpans", Json::U64(self.dropped)),
        ])
    }
}

/// The layer a span name belongs to: the text before the first dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn track(name: &str) -> u64 {
    match layer(name) {
        "pass" => 1,
        "native" => 2,
        "ir" => 3,
        "shard" => 4,
        "rayon" => 5,
        _ => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_recorder_keeps_nothing() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, false);
        let id = t.reserve();
        t.record(id, 0, "pass", t0, Instant::now(), &[("x", 1.0)]);
        t.leaf(id, "native.spmm", t0, Instant::now(), &[]);
        assert_eq!(id, 0);
        assert_eq!(t.counts(), (0, 0));
    }

    #[test]
    fn spans_link_to_their_parent_and_export() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, true);
        let pass = t.reserve();
        t.leaf(
            pass,
            "native.spmm",
            t0,
            Instant::now(),
            &[("kernel_ms", 0.5)],
        );
        t.record(pass, 0, "pass", t0, Instant::now(), &[]);
        let json = t.to_chrome();
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let child = events[0].get("args").unwrap();
        assert_eq!(child.get("parent").and_then(Json::as_u64), Some(pass));
        assert_eq!(child.get("kernel_ms").and_then(Json::as_f64), Some(0.5));
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("native"));
        assert_eq!(t.names(), vec!["native.spmm", "pass"]);
    }

    #[test]
    fn per_name_cap_drops_and_counts() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, true);
        for _ in 0..CAP_PER_NAME + 3 {
            t.leaf(0, "native.spmv", t0, t0, &[]);
        }
        t.leaf(0, "serve.request", t0, t0, &[]);
        assert_eq!(t.counts(), (CAP_PER_NAME + 1, 3));
    }
}
