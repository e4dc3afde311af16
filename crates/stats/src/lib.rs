//! # prebake-stats
//!
//! The statistical machinery the paper's evaluation uses, implemented
//! from scratch:
//!
//! - [`summary`] — medians and quantiles (R type 7)
//! - [`bootstrap`] — percentile bootstrap CIs of the median (Efron &
//!   Tibshirani), seeded for determinism
//! - [`shapiro`] — the Shapiro–Wilk normality test (Royston AS R94)
//! - [`mannwhitney`] — the Wilcoxon–Mann–Whitney U test with tie and
//!   continuity corrections, plus the Hodges–Lehmann shift estimator
//! - [`ecdf`] — empirical CDFs and the Kolmogorov–Smirnov distance
//! - [`normal`] — standard-normal cdf/quantile primitives
//!
//! ## Example: the paper's Figure 3 analysis
//!
//! ```
//! use prebake_stats::{bootstrap::median_ci, mannwhitney::mann_whitney};
//!
//! let vanilla: Vec<f64> = (0..200).map(|i| 103.0 + (i % 9) as f64 * 0.3).collect();
//! let prebake: Vec<f64> = (0..200).map(|i| 62.0 + (i % 9) as f64 * 0.3).collect();
//!
//! let ci_v = median_ci(&vanilla, 1000, 0.95, 1);
//! let ci_p = median_ci(&prebake, 1000, 0.95, 2);
//! assert!(!ci_v.intersects(&ci_p), "visual hint: prebaking is faster");
//!
//! let test = mann_whitney(&vanilla, &prebake);
//! assert!(test.rejects_equality(0.05), "medians differ with 95% confidence");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod ecdf;
pub mod mannwhitney;
pub mod normal;
pub mod shapiro;
pub mod summary;
