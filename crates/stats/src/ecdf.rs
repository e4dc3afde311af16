//! Empirical cumulative distribution functions.
//!
//! Figure 7 of the paper overlays service-time ECDFs for functions started
//! by the vanilla and prebaking techniques; the claim is that the curves
//! coincide (no post-restore penalty). [`Ecdf::ks_distance`] quantifies
//! "coincide" as the Kolmogorov–Smirnov statistic.

/// An empirical CDF over a sample.
///
/// # Examples
///
/// ```
/// use prebake_stats::ecdf::Ecdf;
///
/// let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.eval(0.5), 0.0);
/// assert_eq!(e.eval(2.0), 0.5);
/// assert_eq!(e.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains NaN.
    pub fn new(data: &[f64]) -> Ecdf {
        assert!(!data.is_empty(), "ECDF of empty sample");
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Ecdf { sorted }
    }

    /// Fraction of observations ≤ `x` (right-continuous step function).
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x when used
        // with this predicate.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The quantile function (inverse ECDF): smallest value `v` with
    /// `eval(v) >= p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn inverse(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "inverse ECDF needs p in (0,1]");
        let n = self.sorted.len();
        let k = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// The two-sample Kolmogorov–Smirnov statistic
    /// `sup_x |F_self(x) - F_other(x)|`.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut max_d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            let d = (self.eval(x) - other.eval(x)).abs();
            max_d = max_d.max(d);
        }
        max_d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_right_continuous_step() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]);
        assert_eq!(e.eval(0.99), 0.0);
        assert!((e.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(1.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(2.0), 1.0);
    }

    #[test]
    fn eval_is_monotone() {
        let e = Ecdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 / 10.0;
            let f = e.eval(x);
            assert!(f >= prev, "ECDF decreased at {x}");
            prev = f;
        }
    }

    #[test]
    fn inverse_round_trip() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.5), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        assert_eq!(e.inverse(0.51), 30.0);
    }

    #[test]
    #[should_panic(expected = "p in (0,1]")]
    fn inverse_rejects_zero() {
        Ecdf::new(&[1.0]).inverse(0.0);
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[3.0, 2.0, 1.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = Ecdf::new(&[1.0, 2.0]);
        let b = Ecdf::new(&[10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
        assert_eq!(b.ks_distance(&a), 1.0);
    }

    #[test]
    fn ks_distance_partial_overlap() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        let b = Ecdf::new(&[3.0, 4.0, 5.0, 6.0]);
        // At x=2: F_a=0.5, F_b=0 -> D >= 0.5
        assert!((a.ks_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Ecdf::new(&[]);
    }
}
