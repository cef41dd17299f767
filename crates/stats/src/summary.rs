//! Streaming summaries (Welford) and quantiles.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// Numerically stable, `O(1)` memory; used for per-configuration aggregation of trial results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (dividing by `n - 1`); 0 for fewer than two observations.
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (square root of the unbiased variance).
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

/// Returns the `q`-quantile (`0 ≤ q ≤ 1`) of a sample using linear interpolation between order
/// statistics (the common "type 7" definition). Returns `None` for a `q` outside `[0, 1]` or a
/// sample with no finite values.
///
/// Non-finite values are **skipped**: the Monte-Carlo drivers encode budget-exhausted trials
/// as `NaN` (see `measure_completion_rounds`), so quantiles — like [`Summary`] — describe the
/// *completed* trials only. Callers that need to surface the failure rate report the
/// completed/total counts separately.
pub fn quantile(sample: &[f64], q: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return None;
    }
    let mut sorted: Vec<f64> = sample.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite values were filtered out"));
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// The median — shorthand for [`quantile`] at `q = 0.5`.
pub fn median(sample: &[f64]) -> Option<f64> {
    quantile(sample, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b}");
    }

    #[test]
    fn welford_matches_naive_formulas() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: Summary = data.iter().copied().collect();
        assert_eq!(s.count(), 8);
        assert_close(s.mean(), 5.0, 1e-12);
        assert_close(s.sample_variance(), 32.0 / 7.0, 1e-12);
        assert_close(s.std_dev(), (32.0f64 / 7.0).sqrt(), 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
    }

    #[test]
    fn extend_trait() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
        assert_close(s.mean(), 2.0, 1e-12);
    }

    #[test]
    fn quantiles_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        assert_close(quantile(&data, 0.5).unwrap(), 2.5, 1e-12);
        assert_close(median(&data).unwrap(), 2.5, 1e-12);
        assert_close(quantile(&data, 0.25).unwrap(), 1.75, 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&data, 1.5), None);
        assert_eq!(quantile(&data, f64::NAN), None);
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        // Order should not matter.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(quantile(&shuffled, 0.5), quantile(&data, 0.5));
    }

    #[test]
    fn quantile_skips_non_finite_values() {
        // Regression: budget-exhausted trials are encoded as NaN by the Monte-Carlo drivers
        // and used to panic inside the sort comparator.
        let with_nan = [3.0, f64::NAN, 1.0, f64::NAN, 2.0];
        assert_close(quantile(&with_nan, 0.5).unwrap(), 2.0, 1e-12);
        assert_eq!(quantile(&with_nan, 0.0), Some(1.0));
        assert_eq!(quantile(&with_nan, 1.0), Some(3.0));
        let with_inf = [1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY];
        assert_close(quantile(&with_inf, 0.5).unwrap(), 1.5, 1e-12);
        assert_eq!(quantile(&[f64::NAN, f64::NAN], 0.5), None);
        assert_eq!(median(&[f64::NAN, 7.0]), Some(7.0));
    }

    #[test]
    fn serde_round_trip() {
        let s: Summary = [1.0, 5.0, 9.0].into_iter().collect();
        let json = serde_json::to_string(&s).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
