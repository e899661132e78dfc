//! Order statistics over measured samples.
//!
//! Every percentile here is the nearest-rank rule the serving crate
//! already reports with ([`gnnone_serve::server::percentile`]), so a p99
//! in this benchmark and a p99 in `BENCH_SERVE.json` mean the same thing
//! and always name a value that was actually measured.

use gnnone_serve::server::percentile;

/// The samples in ascending order (NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `p`-th percentile of unsorted `values`; 0 when empty.
pub fn pct(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    pct(values, 50.0)
}

/// Nearest-rank first and third quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    (percentile(&s, 25.0), percentile(&s, 75.0))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median (0 for an empty set or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_serving_crates_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(pct(&v, 50.0), 2.0);
        assert_eq!(pct(&v, 99.0), 4.0);
        assert_eq!(pct(&v, 0.0), 1.0);
        assert_eq!(pct(&[], 50.0), 0.0);
        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(pct(&many, 99.0), 990.0);
        assert_eq!(pct(&many, 99.0), percentile(&sorted(&many), 99.0));
    }

    #[test]
    fn quartiles_and_spread() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 6.0));
        assert_eq!(median(&v), 4.0);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[5.0; 7]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }
}
