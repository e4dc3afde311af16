//! Bootstrap confidence intervals.
//!
//! The paper reports "the median interval for 95 % of statistical
//! confidence calculated using bootstrap \[Efron & Tibshirani\]" for every
//! start-up figure, and a bootstrap CI of the *median difference* between
//! techniques. This module implements the percentile bootstrap for an
//! arbitrary statistic, seeded for determinism.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::summary::median;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfInterval {
    /// Returns `true` if `x` falls inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Returns `true` if the two intervals share any point. The paper's
    /// Figure 3 argument: non-intersecting CIs are a visual hint that the
    /// medians differ.
    pub fn intersects(&self, other: &ConfInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

impl std::fmt::Display for ConfInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.2};{:.2})", self.lo, self.hi)
    }
}

/// Percentile-bootstrap CI of an arbitrary statistic of one sample.
///
/// # Panics
///
/// Panics if `data` is empty, `resamples` is zero, or `level` is outside
/// `(0, 1)`.
pub(crate) fn bootstrap_ci(
    data: &[f64],
    stat: impl Fn(&[f64]) -> f64,
    resamples: usize,
    level: f64,
    seed: u64,
) -> ConfInterval {
    assert!(!data.is_empty(), "bootstrap of empty sample");
    assert!(resamples > 0, "bootstrap needs at least one resample");
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");

    let mut rng = SmallRng::seed_from_u64(seed);
    let n = data.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut resample = vec![0.0; n];
    for _ in 0..resamples {
        for slot in resample.iter_mut() {
            *slot = data[rng.gen_range(0..n)];
        }
        stats.push(stat(&resample));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("NaN statistic"));
    let alpha = (1.0 - level) / 2.0;
    ConfInterval {
        lo: crate::summary::quantile_sorted(&stats, alpha),
        hi: crate::summary::quantile_sorted(&stats, 1.0 - alpha),
        level,
    }
}

/// Percentile-bootstrap CI of the **median** (the paper's error bars).
///
/// # Examples
///
/// ```
/// use prebake_stats::bootstrap::median_ci;
/// use prebake_stats::summary::median;
///
/// let data: Vec<f64> = (0..200).map(|i| 100.0 + (i % 7) as f64).collect();
/// let ci = median_ci(&data, 1000, 0.95, 42);
/// assert!(ci.contains(median(&data)));
/// ```
pub fn median_ci(data: &[f64], resamples: usize, level: f64, seed: u64) -> ConfInterval {
    bootstrap_ci(data, median, resamples, level, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, n: usize, center: f64, spread: f64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| center + spread * (rng.gen::<f64>() - 0.5))
            .collect()
    }

    #[test]
    fn ci_contains_point_estimate() {
        let data = sample(1, 200, 100.0, 10.0);
        let ci = median_ci(&data, 2000, 0.95, 7);
        assert!(ci.contains(median(&data)), "{ci} vs {}", median(&data));
    }

    #[test]
    fn ci_is_deterministic_given_seed() {
        let data = sample(2, 100, 50.0, 5.0);
        let a = median_ci(&data, 500, 0.95, 9);
        let b = median_ci(&data, 500, 0.95, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let data = sample(3, 100, 10.0, 4.0);
        let narrow = median_ci(&data, 2000, 0.80, 5);
        let wide = median_ci(&data, 2000, 0.99, 5);
        assert!(wide.hi - wide.lo >= narrow.hi - narrow.lo);
    }

    #[test]
    fn degenerate_sample_gives_zero_width() {
        let data = vec![42.0; 50];
        let ci = median_ci(&data, 200, 0.95, 1);
        assert_eq!(ci.lo, 42.0);
        assert_eq!(ci.hi, 42.0);
    }

    #[test]
    fn interval_predicates() {
        let a = ConfInterval {
            lo: 1.0,
            hi: 3.0,
            level: 0.95,
        };
        let b = ConfInterval {
            lo: 2.5,
            hi: 4.0,
            level: 0.95,
        };
        let c = ConfInterval {
            lo: 3.5,
            hi: 4.0,
            level: 0.95,
        };
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert_eq!(a.to_string(), "(1.00;3.00)");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        median_ci(&[], 100, 0.95, 0);
    }

    #[test]
    fn custom_statistic_bootstrap() {
        let data = sample(8, 150, 5.0, 1.0);
        let mean = |d: &[f64]| d.iter().sum::<f64>() / d.len() as f64;
        let ci = bootstrap_ci(&data, mean, 1000, 0.95, 11);
        assert!(ci.contains(mean(&data)));
    }
}
