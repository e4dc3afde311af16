//! Deterministic measurement noise.
//!
//! The paper's experiments repeat every treatment 200 times and run
//! bootstrap/Wilcoxon statistics over the resulting distributions. A
//! noiseless simulator would produce degenerate (constant) samples, so the
//! kernel perturbs every charged cost with a small multiplicative
//! log-normal factor drawn from a seeded RNG. Seeding makes whole
//! experiments reproducible bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// Multiplicative log-normal noise source.
///
/// Every call to `factor` returns `exp(sigma * z)` for a
/// standard-normal `z`, i.e. a factor centred slightly above 1.0 with
/// relative spread `sigma`. Typical configuration is `sigma = 0.02` (±2 %).
///
/// # Examples
///
/// ```
/// use prebake_sim::noise::Noise;
/// use prebake_sim::time::SimDuration;
///
/// let mut n = Noise::new(42, 0.02);
/// let jittered = n.jitter(SimDuration::from_millis(100));
/// // within a few percent of the base cost
/// assert!(jittered.as_millis_f64() > 90.0 && jittered.as_millis_f64() < 110.0);
/// ```
#[derive(Debug, Clone)]
pub struct Noise {
    rng: SmallRng,
    sigma: f64,
    /// Cached second Box-Muller variate.
    spare: Option<f64>,
}

impl Noise {
    /// Creates a noise source with the given seed and relative spread.
    ///
    /// `sigma` is clamped to `[0, 0.5]`; values above that would no longer
    /// model measurement jitter.
    pub fn new(seed: u64, sigma: f64) -> Self {
        Noise {
            rng: SmallRng::seed_from_u64(seed),
            sigma: sigma.clamp(0.0, 0.5),
            spare: None,
        }
    }

    /// Draws a standard-normal variate via Box-Muller.
    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box-Muller transform: two uniforms -> two independent normals.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws one multiplicative noise factor.
    pub(crate) fn factor(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        (self.sigma * self.standard_normal()).exp()
    }

    /// Applies one noise factor to a duration.
    pub fn jitter(&mut self, base: SimDuration) -> SimDuration {
        if self.sigma == 0.0 || base.is_zero() {
            return base;
        }
        base.mul_f64(self.factor())
    }

    /// Draws a uniform value in `[0, 1)`. Exposed for workload generators
    /// that want to share the kernel's deterministic stream.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Draws an exponentially distributed value with the given mean.
    ///
    /// Used by Poisson arrival processes in the platform layer.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_identity() {
        let mut n = Noise::new(0, 0.0);
        assert_eq!(n.factor(), 1.0);
        let d = SimDuration::from_millis(7);
        assert_eq!(n.jitter(d), d);
    }

    #[test]
    fn seeded_noise_is_deterministic() {
        let mut a = Noise::new(123, 0.05);
        let mut b = Noise::new(123, 0.05);
        for _ in 0..32 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Noise::new(1, 0.05);
        let mut b = Noise::new(2, 0.05);
        let same = (0..16).filter(|_| a.factor() == b.factor()).count();
        assert!(same < 16);
    }

    #[test]
    fn factor_mean_is_near_one() {
        let mut n = Noise::new(7, 0.02);
        let k = 10_000;
        let mean: f64 = (0..k).map(|_| n.factor()).sum::<f64>() / k as f64;
        // E[lognormal(0, s)] = exp(s^2/2) ~= 1.0002 for s=0.02
        assert!((mean - 1.0).abs() < 0.01, "mean factor was {mean}");
    }

    #[test]
    fn factor_spread_matches_sigma() {
        let mut n = Noise::new(9, 0.1);
        let k = 10_000;
        let logs: Vec<f64> = (0..k).map(|_| n.factor().ln()).collect();
        let mean = logs.iter().sum::<f64>() / k as f64;
        let var = logs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / k as f64;
        assert!((var.sqrt() - 0.1).abs() < 0.01, "sd was {}", var.sqrt());
    }

    #[test]
    fn sigma_is_clamped() {
        let n = Noise::new(0, 3.0);
        assert_eq!(n.sigma, 0.5);
        let n = Noise::new(0, -1.0);
        assert_eq!(n.sigma, 0.0);
    }

    #[test]
    fn jitter_zero_duration_stays_zero() {
        let mut n = Noise::new(5, 0.2);
        assert_eq!(n.jitter(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut n = Noise::new(11, 0.0);
        let k = 20_000;
        let mean: f64 = (0..k).map(|_| n.exponential(5.0)).sum::<f64>() / k as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut n = Noise::new(3, 0.0);
        for _ in 0..1000 {
            let u = n.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
