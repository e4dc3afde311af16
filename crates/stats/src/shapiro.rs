//! Shapiro–Wilk normality test (Royston's AS R94 algorithm).
//!
//! The paper runs Shapiro–Wilk on every start-up sample; because some
//! samples fail it, the comparison between techniques uses the
//! non-parametric Wilcoxon–Mann–Whitney test instead of a t-test. This
//! implementation follows Royston (1995), valid for `3 ≤ n ≤ 5000`.

use crate::normal;

/// Result of a Shapiro–Wilk test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapiroWilk {
    /// The W statistic in `(0, 1]`; values near 1 are consistent with
    /// normality.
    pub w: f64,
    /// Two-… one-sided p-value of the null hypothesis "the sample is
    /// normal" (small p rejects normality).
    pub p_value: f64,
}

/// Runs the Shapiro–Wilk test.
///
/// # Panics
///
/// Panics if `n < 3`, `n > 5000`, or the sample is constant (zero
/// variance) or contains NaN.
pub fn shapiro_wilk(data: &[f64]) -> ShapiroWilk {
    let n = data.len();
    assert!((3..=5000).contains(&n), "Shapiro-Wilk needs 3 <= n <= 5000");

    let mut x: Vec<f64> = data.to_vec();
    x.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    assert!(
        x[n - 1] > x[0],
        "Shapiro-Wilk is undefined for a constant sample"
    );

    // Expected normal order statistics (Blom scores).
    let m: Vec<f64> = (1..=n)
        .map(|i| normal::quantile((i as f64 - 0.375) / (n as f64 + 0.25)))
        .collect();
    let ssq_m: f64 = m.iter().map(|v| v * v).sum();

    // Royston's polynomial-corrected coefficients.
    let rsn = 1.0 / (n as f64).sqrt();
    let c_n = m[n - 1] / ssq_m.sqrt();
    let a_n = -2.706056 * rsn.powi(5) + 4.434685 * rsn.powi(4)
        - 2.071190 * rsn.powi(3)
        - 0.147981 * rsn.powi(2)
        + 0.221157 * rsn
        + c_n;

    let mut a = vec![0.0; n];
    if n <= 5 {
        let phi = (ssq_m - 2.0 * m[n - 1] * m[n - 1]) / (1.0 - 2.0 * a_n * a_n);
        a[n - 1] = a_n;
        a[0] = -a_n;
        for i in 1..n - 1 {
            a[i] = m[i] / phi.sqrt();
        }
    } else {
        let c_n1 = m[n - 2] / ssq_m.sqrt();
        let a_n1 = -3.582633 * rsn.powi(5) + 5.682633 * rsn.powi(4)
            - 1.752461 * rsn.powi(3)
            - 0.293762 * rsn.powi(2)
            + 0.042981 * rsn
            + c_n1;
        let phi = (ssq_m - 2.0 * m[n - 1] * m[n - 1] - 2.0 * m[n - 2] * m[n - 2])
            / (1.0 - 2.0 * a_n * a_n - 2.0 * a_n1 * a_n1);
        a[n - 1] = a_n;
        a[n - 2] = a_n1;
        a[0] = -a_n;
        a[1] = -a_n1;
        for i in 2..n - 2 {
            a[i] = m[i] / phi.sqrt();
        }
    }

    // W = (sum a_i x_(i))^2 / sum (x_i - mean)^2
    let mean = x.iter().sum::<f64>() / n as f64;
    let num: f64 = a.iter().zip(x.iter()).map(|(ai, xi)| ai * xi).sum();
    let den: f64 = x.iter().map(|xi| (xi - mean).powi(2)).sum();
    let w = ((num * num) / den).min(1.0);

    // p-value via Royston's normalising transforms.
    let p_value = if n == 3 {
        // Exact for n = 3.
        let pi6 = 6.0 / std::f64::consts::PI;
        let stqr = (0.75f64).sqrt().asin();
        (pi6 * (w.sqrt().asin() - stqr)).clamp(0.0, 1.0)
    } else if n <= 11 {
        let nf = n as f64;
        let gamma = -2.273 + 0.459 * nf;
        let mu = 0.5440 - 0.39978 * nf + 0.025054 * nf * nf - 0.0006714 * nf * nf * nf;
        let sigma = (1.3822 - 0.77857 * nf + 0.062767 * nf * nf - 0.0020322 * nf * nf * nf).exp();
        let z = (-((gamma - (1.0 - w).ln()).ln()) - mu) / sigma;
        1.0 - normal::cdf(z)
    } else {
        let l = (n as f64).ln();
        let mu = 0.0038915 * l * l * l - 0.083751 * l * l - 0.31082 * l - 1.5861;
        let sigma = (0.0030302 * l * l - 0.082676 * l - 0.4803).exp();
        let z = ((1.0 - w).ln() - mu) / sigma;
        1.0 - normal::cdf(z)
    };

    ShapiroWilk { w, p_value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn normal_sample(seed: u64, n: usize) -> Vec<f64> {
        // Box-Muller
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn normal_sample_not_rejected() {
        let data = normal_sample(42, 200);
        let r = shapiro_wilk(&data);
        assert!(r.w > 0.98, "W = {}", r.w);
        assert!(r.p_value > 0.05, "p = {}", r.p_value);
        assert!(r.p_value >= 0.05);
    }

    #[test]
    fn uniform_sample_rejected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let data: Vec<f64> = (0..200).map(|_| rng.gen::<f64>()).collect();
        let r = shapiro_wilk(&data);
        assert!(r.p_value < 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn exponential_sample_strongly_rejected() {
        let mut rng = SmallRng::seed_from_u64(2);
        let data: Vec<f64> = (0..200)
            .map(|_| -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln())
            .collect();
        let r = shapiro_wilk(&data);
        assert!(r.w < 0.95, "W = {}", r.w);
        assert!(r.p_value < 1e-4, "p = {}", r.p_value);
    }

    #[test]
    fn w_is_affine_invariant() {
        let data = normal_sample(7, 100);
        let shifted: Vec<f64> = data.iter().map(|x| 1000.0 + 3.5 * x).collect();
        let a = shapiro_wilk(&data);
        let b = shapiro_wilk(&shifted);
        assert!((a.w - b.w).abs() < 1e-10, "{} vs {}", a.w, b.w);
    }

    #[test]
    fn w_in_unit_interval() {
        for seed in 0..10 {
            let data = normal_sample(seed, 50);
            let r = shapiro_wilk(&data);
            assert!(r.w > 0.0 && r.w <= 1.0);
            assert!((0.0..=1.0).contains(&r.p_value));
        }
    }

    #[test]
    fn small_samples_supported() {
        for n in 3..=12 {
            let data = normal_sample(n as u64, n);
            let r = shapiro_wilk(&data);
            assert!(r.w > 0.0 && r.w <= 1.0, "n={n}, W={}", r.w);
        }
    }

    #[test]
    fn bimodal_sample_rejected() {
        let mut data = normal_sample(3, 100);
        data.extend(normal_sample(4, 100).iter().map(|x| x + 12.0));
        let r = shapiro_wilk(&data);
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
    }

    #[test]
    #[should_panic(expected = "3 <= n")]
    fn too_small_panics() {
        shapiro_wilk(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "constant sample")]
    fn constant_sample_panics() {
        shapiro_wilk(&[5.0; 10]);
    }
}
