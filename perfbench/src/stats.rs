//! Raw-sample statistics and failure accounting.
//!
//! Every percentile the benchmark reports is computed here from the raw
//! samples, never from `aurora_trace::Histogram` buckets: those are
//! power-of-two wide, so a 2x slip can hide inside one bucket.

/// Fewest samples that must lie strictly above a tail percentile before
/// it is reported; with fewer, the tail is noise and is withheld.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), `p` in (0, 100].
///
/// The median (and anything below it) is always reported for a
/// non-empty sample set. A tail percentile (`p > 50`) is reported only
/// when at least [`MIN_BEYOND`] samples lie above its rank; otherwise
/// `None`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize; // 1-based
    if p > 50.0 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// The median by the same nearest-rank rule (`None` only when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Operations attempted and failed, for `error_rate` and the result
/// line's `attempted`/`failed` fields. A failure is anything the
/// benchmark's oracles reject — a wrong value, a wrong restored byte, an
/// epoch that never reaches quorum, a broken telescoping sum, a
/// determinism mismatch — or an error returned by the system.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those, operations whose outcome was wrong or errored.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation that succeeded when `ok` holds
    /// and failed otherwise; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts an already-attempted operation as failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_raw_samples() {
        let v = seq(100);
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), Some(90.0));
        // A 2x slip inside one power-of-two bucket is visible.
        let a = [1000.0; 40];
        let b = [1900.0; 40];
        assert_ne!(median(&a), median(&b));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 above it.
        assert_eq!(percentile(&seq(100), 90.0), Some(90.0));
        // 99 samples: rank 90, only 9 above — withheld.
        assert_eq!(percentile(&seq(99), 90.0), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&seq(999), 99.0), None);
        assert_eq!(percentile(&seq(1000), 99.0), Some(990.0));
        // The median is always reported, even from one sample.
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for i in 0..8 {
            t.check(i != 3, || format!("op {i} wrong"));
        }
        assert_eq!((t.attempted, t.failed), (8, 1));
        assert_eq!(t.error_rate(), 0.125);
        assert_eq!(t.notes, vec!["op 3 wrong".to_string()]);

        let mut other = Tally::default();
        other.check(true, String::new);
        other.attempted += 1;
        other.fail("errored".into());
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (10, 2));
        assert_eq!(t.error_rate(), 0.2);
    }
}
