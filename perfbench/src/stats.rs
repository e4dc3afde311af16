//! The few statistics the benchmark reports: medians, the tail
//! percentile ladder, and the spread measures `repeat` gates on.

use prebake_stats::summary::quantile_sorted;

pub use prebake_stats::summary::median;

/// Sorts a sample ascending.
///
/// # Panics
///
/// Panics on NaN — no metric here can produce one.
pub fn sorted(data: &[f64]) -> Vec<f64> {
    let mut out = data.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    out
}

/// The rungs of the tail ladder, lowest first.
pub const LADDER: [f64; 4] = [0.75, 0.90, 0.99, 0.999];

/// Samples a tail percentile needs beyond it to count as measured.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile and how well supported it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The rung chosen, e.g. `0.99`.
    pub percentile: f64,
    /// The value at that rung.
    pub value: f64,
    /// Sample size.
    pub n: usize,
    /// Samples above the rung (`n × (1 − percentile)`, rounded down).
    pub beyond: usize,
}

impl Tail {
    /// Label such as `p99.9`.
    pub fn label(&self) -> String {
        format!("p{}", self.percentile * 100.0)
    }
}

fn beyond(n: usize, percentile: f64) -> usize {
    // The epsilon keeps exact products (100 × 0.1) from rounding down.
    (n as f64 * (1.0 - percentile) + 1e-9).floor() as usize
}

/// Picks the highest rung of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it. A sample too small for any rung gets the lowest
/// one, with `beyond < MIN_BEYOND` saying so.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let percentile = LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(LADDER[0]);
    Tail {
        percentile,
        value: quantile_sorted(sorted, percentile),
        n,
        beyond: beyond(n, percentile),
    }
}

/// Interquartile range over the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the exclusive method) —
/// the spread the benchmark contract gates on.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    (at(3) - at(1)) / med.abs()
}

/// `(max − min) / median`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn range_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn ladder_picks_the_highest_rung_with_ten_samples_beyond() {
        // 39 samples: p75 leaves 9 beyond — nothing qualifies.
        let t = tail(&ramp(39));
        assert_eq!((t.percentile, t.beyond, t.n), (0.75, 9, 39));
        // 40 samples: p75 leaves exactly 10.
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.beyond, t.n), (0.75, 10, 40));
        // 64 ops (a restore_gears run): p90 would leave 6.
        assert_eq!(tail(&ramp(64)).percentile, 0.75);
        // 100 samples: p90 leaves exactly 10, p99 leaves 1.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.beyond), (0.90, 10));
        assert!((t.value - 90.1).abs() < 1e-9, "type-7 p90 of 1..=100");
        // 1000 → p99; 10_000 → p99.9.
        assert_eq!(tail(&ramp(1000)).percentile, 0.99);
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.beyond, t.n), (0.999, 10, 10_000));
        assert_eq!(t.label(), "p99.9");
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let share = iqr_share(&ramp(10));
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
        assert!((iqr_share(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn range_share_is_max_minus_min_over_median() {
        assert!((range_share(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
    }
}
