//! Median and tail-percentile estimators.

/// A run's `step_ms_p95` stands only when at least this many samples of
/// each episode lie beyond it (the run fails its `p95_support` check
/// otherwise); with fewer, its value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at rank `ceil(p/100 · n)`.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile of `values` (`0 < p <= 100`).
///
/// # Panics
/// Panics if `values` is empty or holds a NaN, or `p` is out of range.
pub fn percentile(values: &[f64], p: f64) -> Tail {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Tail { value: sorted[rank - 1], beyond: n - rank }
}

/// `(max − min) / median` of `values`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    (sorted[sorted.len() - 1] - sorted[0]) / median(values) * 100.0
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Tail { value: 50.0, beyond: 50 });
        assert_eq!(percentile(&v, 95.0), Tail { value: 95.0, beyond: 5 });
        assert_eq!(percentile(&v, 100.0), Tail { value: 100.0, beyond: 0 });
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&few, 95.0).beyond, MIN_BEYOND - 1);
        assert_eq!(percentile(&enough, 95.0), Tail { value: 190.0, beyond: MIN_BEYOND });
        // The same samples support a lower percentile sooner.
        assert!(percentile(&few, 90.0).beyond >= MIN_BEYOND);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
    }
}
