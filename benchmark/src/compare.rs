//! `--compare BASE NEW`: applies the `BENCHMARK.json` bounds to every
//! (end-to-end metric, workload) pair of two sets of runs.
//!
//! A set of runs is any text holding the report lines the benchmark
//! prints (one JSON object per line with a `"benchmark"` key); other
//! lines are skipped, so a file of appended stdout works as is.

use std::collections::BTreeMap;

use gnnone_sim::jsonio::{self, Json};

use crate::stats::{median, spread};

/// One end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Largest relative worsening that still counts as unchanged.
    pub bound: f64,
}

/// How a metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and the runs do not
    /// separate cleanly, so no verdict can be given.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
pub fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Metric values per (workload, metric) over every report line in `text`.
pub fn runs(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.contains("\"benchmark\"")) {
        let report = jsonio::parse(line).map_err(|e| format!("bad report line: {e:?}"))?;
        let workload = report
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("report line without a workload")?;
        let metrics = report
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("report line without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The verdict for one pair. The change is measured between medians;
/// when either side's quartile spread exceeds the bound, only a clean
/// separation (every new run better than every base run) counts.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let worse_by = worsening(median(base), median(new), lower_is_better);
    if spread(base).max(spread(new)) > bound {
        let all_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
        return if all_better && -worse_by > bound {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Relative change from `base` to `new`, positive when `new` is worse.
fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Prints one row per (workload, end-to-end metric) and returns the
/// verdicts in row order.
pub fn compare(bounds: &[Bound], base: &str, new: &str) -> Result<Vec<Verdict>, String> {
    let base = runs(base)?;
    let new = runs(new)?;
    let mut workloads: Vec<&String> = base.keys().chain(new.keys()).map(|(w, _)| w).collect();
    workloads.sort();
    workloads.dedup();
    println!(
        "{:<10} {:<16} {:>11} {:>11} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base_p50", "new_p50", "change", "spread", "bound"
    );
    let mut verdicts = Vec::new();
    for w in workloads {
        for b in bounds {
            let key = (w.clone(), b.name.clone());
            let (bv, nv) = (
                base.get(&key).map_or(&[][..], Vec::as_slice),
                new.get(&key).map_or(&[][..], Vec::as_slice),
            );
            let v = verdict(bv, nv, b.lower_is_better, b.bound);
            let (bm, nm) = (median(bv), median(nv));
            println!(
                "{:<10} {:<16} {:>11.4} {:>11.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                w,
                b.name,
                bm,
                nm,
                if bm == 0.0 {
                    0.0
                } else {
                    (nm - bm) / bm.abs() * 100.0
                },
                spread(bv).max(spread(nv)) * 100.0,
                b.bound * 100.0,
                v.as_str()
            );
            verdicts.push(v);
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    fn scaled(k: f64) -> Vec<f64> {
        BASE.iter().map(|v| v * k).collect()
    }

    #[test]
    fn a_twenty_percent_slowdown_is_flagged_and_two_percent_is_not() {
        assert_eq!(verdict(&BASE, &scaled(1.2), true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&BASE, &scaled(1.02), true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&BASE, &scaled(0.8), true, 0.1), Verdict::Improved);
        // Higher-is-better metrics regress downwards.
        assert_eq!(verdict(&BASE, &scaled(0.8), false, 0.1), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.5];
        assert_eq!(
            verdict(&noisy, &scaled(1.2), true, 0.05),
            Verdict::Unresolved
        );
        let fast = [5.0, 5.5, 6.0, 5.2, 7.0];
        assert_eq!(verdict(&noisy, &fast, true, 0.05), Verdict::Improved);
        assert_eq!(verdict(&[], &BASE, true, 0.05), Verdict::Unresolved);
    }

    fn report(workload: &str, layer_ms: f64) -> String {
        format!(
            "{{\"benchmark\":\"gnnone-benchmark\",\"workload\":\"{workload}\",\
             \"metrics\":{{\"layer_ms_p50\":{{\"value\":{layer_ms},\"unit\":\"ms\"}}}}}}\n\
             {{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{}}}}\n"
        )
    }

    #[test]
    fn committed_bounds_catch_an_injected_slowdown_of_layer_ms() {
        let spec = jsonio::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let bounds = bounds(&spec).unwrap();
        let layer = bounds
            .iter()
            .position(|b| b.name == "layer_ms_p50")
            .unwrap();
        let set = |k: f64| {
            BASE.iter()
                .map(|v| report("road", v * k))
                .collect::<String>()
        };
        let rows = compare(&bounds, &set(1.0), &set(1.2)).unwrap();
        assert_eq!(rows[layer], Verdict::Regressed);
        let rows = compare(&bounds, &set(1.0), &set(1.02)).unwrap();
        assert_eq!(rows[layer], Verdict::Unchanged);
        // Metrics absent from both sets have no verdict.
        assert!(rows
            .iter()
            .enumerate()
            .all(|(i, v)| i == layer || *v == Verdict::Unresolved));
    }
}
