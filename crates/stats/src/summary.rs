//! Descriptive statistics.

/// Sample median. Averages the two central order statistics for even `n`.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
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
}
