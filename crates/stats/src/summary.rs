//! Descriptive statistics.

use std::fmt;

/// Sample median. Averages the two central order statistics for even `n`.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// Sample mean.
///
/// # Panics
///
/// Panics if `data` is empty.
pub(crate) fn mean(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "mean of empty sample");
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased (n-1) sample variance. Returns 0 for a single observation.
///
/// # Panics
///
/// Panics if `data` is empty.
pub(crate) fn variance(data: &[f64]) -> f64 {
    assert!(!data.is_empty(), "variance of empty sample");
    if data.len() == 1 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (data.len() - 1) as f64
}

/// Sample standard deviation.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Quantile with linear interpolation between order statistics (R type 7,
/// the default of `quantile()` in R and NumPy).
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over data already sorted ascending.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// A five-number-plus summary of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains NaN.
    pub fn of(data: &[f64]) -> Summary {
        assert!(!data.is_empty(), "summary of empty sample");
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(&sorted),
            std_dev: std_dev(&sorted),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3} mean={:.3} sd={:.3}",
            self.n, self.min, self.q1, self.median, self.q3, self.max, self.mean, self.std_dev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_and_variance() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&d), 5.0);
        // population variance is 4.0; sample (n-1) variance is 32/7
        assert!((variance(&d) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&d) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_single_point_is_zero() {
        assert_eq!(variance(&[42.0]), 0.0);
    }

    #[test]
    fn quantile_matches_r_type7() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&d, 0.0), 1.0);
        assert_eq!(quantile(&d, 1.0), 4.0);
        assert!((quantile(&d, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&d, 0.75) - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let d = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&d, 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_empty_panics() {
        median(&[]);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_of_known_sample() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = Summary::of(&d);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn summary_display_has_fields() {
        let s = Summary::of(&[1.0, 2.0]);
        let out = s.to_string();
        assert!(out.contains("n=2"));
        assert!(out.contains("med="));
    }
}
