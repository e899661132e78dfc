//! Metric values, run metadata, and the two output lines of a run.

use gnnone_sim::jsonio::Json;

/// One measured metric: its value, unit, and how many samples it was
/// taken over (1 for a count or a single measurement).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, with every digit as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// The machine a report was measured on.
pub fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let mem_kb = proc_kb("/proc/meminfo", "MemTotal:").unwrap_or(0);
    Json::obj(vec![
        ("nproc", Json::U64(nproc as u64)),
        ("cpu", Json::Str(cpu)),
        ("mem_total_mb", Json::U64(mem_kb / 1024)),
        ("os", Json::Str(std::env::consts::OS.to_string())),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Reads a `Key:   123 kB` line from a `/proc` file.
fn proc_kb(path: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// `{"name": {"value": v, "unit": u}, …}`, with the sample count too
/// when `samples` is set.
pub fn metrics_json(metrics: &[Metric], samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::F64(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if samples {
                    fields.push(("samples", Json::U64(m.samples as u64)));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}
