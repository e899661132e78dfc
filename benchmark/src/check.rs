//! The correctness gate: every timed operation's output is checked
//! against an oracle outside the timed region, and every check counts as
//! one attempted operation.

/// Tolerance for float results whose association order may differ from
/// the oracle's — the one `backend_parity.rs` uses.
pub const TOL: f32 = 1e-3;

/// Counts attempted and failed operations and keeps the first failure.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a wrong output, a missing reply.
    pub failed: u64,
    /// Description of the first failure, for the report.
    pub first_failure: Option<String>,
}

impl Checker {
    /// Records one operation with its verdict.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
        ok
    }

    /// `got` matches `want` within [`TOL`] relative error (the
    /// `gnnone_sparse::reference::max_rel_error` rule, written so that a
    /// NaN in `got` fails instead of being skipped by `f32::max`).
    pub fn close(&mut self, what: &str, got: impl IntoIterator<Item = f32>, want: &[f32]) -> bool {
        let ok = all_match(got, want, |g, w| {
            let denom = g.abs().max(w.abs()).max(1e-2);
            (g - w).abs() <= TOL * denom
        });
        self.record(ok, || format!("{what}: output differs from its oracle"))
    }

    /// `got` equals `want` bit for bit.
    pub fn bitwise(
        &mut self,
        what: &str,
        got: impl IntoIterator<Item = f32>,
        want: &[f32],
    ) -> bool {
        let ok = all_match(got, want, |g, w| g.to_bits() == w.to_bits());
        self.record(ok, || format!("{what}: output is not bitwise equal"))
    }

    /// One operation that failed outright (launch error, missing reply).
    pub fn fail(&mut self, detail: String) {
        self.record(false, || detail);
    }

    /// Whether every attempted operation passed.
    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Whether `got` yields exactly `want.len()` values, each matching. Takes
/// an iterator so outputs are checked where they live, without a host
/// copy whose allocation would disturb the next timed call.
fn all_match(
    got: impl IntoIterator<Item = f32>,
    want: &[f32],
    eq: impl Fn(f32, f32) -> bool,
) -> bool {
    let mut n = 0;
    for g in got {
        if n == want.len() || !eq(g, want[n]) {
            return false;
        }
        n += 1;
    }
    n == want.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_is_counted() {
        let want = vec![1.0f32, -2.0, 0.5, 0.0];
        let mut c = Checker::default();
        assert!(c.close("spmm", want.clone(), &want));
        let mut bad = want.clone();
        bad[2] *= 1.01;
        assert!(!c.close("spmm", bad, &want));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.first_failure.as_deref().unwrap().starts_with("spmm"));
        assert!(!c.all_passed());
    }

    #[test]
    fn nan_short_output_and_flipped_bits_fail() {
        let want = vec![1.0f32, 2.0];
        let mut c = Checker::default();
        assert!(!c.close("nan", [f32::NAN, 2.0], &want));
        assert!(!c.close("short", [1.0], &want));
        assert!(!c.close("long", [1.0, 2.0, 3.0], &want));
        assert!(c.close("within tolerance", [1.0005, 2.0], &want));
        assert!(!c.bitwise("bits", [1.0005, 2.0], &want));
        assert!(c.bitwise("bits", want.clone(), &want));
        assert_eq!((c.attempted, c.failed), (6, 4));
    }
}
