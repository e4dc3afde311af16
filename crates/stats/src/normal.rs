//! Standard-normal distribution helpers.
//!
//! Self-contained implementations (no external numerics crates): the
//! error function via Abramowitz & Stegun 7.1.26, and the inverse CDF via
//! Acklam's rational approximation — both accurate to well below the
//! tolerances the hypothesis tests need.

/// The error function, |error| ≤ 1.5e-7 (Abramowitz & Stegun 7.1.26).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (the quantile function), via Peter
/// Acklam's algorithm (relative error < 1.15e-9).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // No refinement step: Acklam's raw approximation (1.15e-9 relative
    // error) is already sharper than our erf-based CDF (1.5e-7), so a
    // Newton/Halley step against cdf() would *lose* accuracy.
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn cdf_known_values() {
        assert!((cdf(0.0) - 0.5).abs() < 1e-8);
        assert!((cdf(1.959963985) - 0.975).abs() < 1e-6);
        assert!((cdf(-1.959963985) - 0.025).abs() < 1e-6);
        assert!((cdf(1.0) - 0.8413447461).abs() < 1e-6);
    }

    #[test]
    fn quantile_known_values() {
        assert!((quantile(0.5)).abs() < 1e-7);
        assert!((quantile(0.975) - 1.959963985).abs() < 1e-6);
        assert!((quantile(0.025) + 1.959963985).abs() < 1e-6);
        assert!((quantile(0.8413447461) - 1.0).abs() < 1e-6);
        assert!((quantile(0.95) - 1.644853627).abs() < 1e-6);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = quantile(p);
            assert!((cdf(x) - p).abs() < 1e-7, "p={p}, cdf(q(p))={}", cdf(x));
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn quantile_rejects_zero() {
        quantile(0.0);
    }
}
