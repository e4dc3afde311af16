//! Reproducibility guarantees: identical seeds must yield bit-identical
//! experiments, and different seeds must differ only in measurement
//! noise — the properties that make the statistical analysis meaningful.

use prebake_core::measure::{StartMode, TrialRunner};
use prebake_functions::FunctionSpec;
use prebake_stats::summary::median;

#[test]
fn identical_seeds_identical_trials() {
    for mode in [StartMode::Vanilla, StartMode::PrebakeNoWarmup] {
        let runner_a = TrialRunner::new(FunctionSpec::noop(), mode).unwrap();
        let runner_b = TrialRunner::new(FunctionSpec::noop(), mode).unwrap();
        for seed in [0u64, 7, 123456] {
            let a = runner_a.startup_trial(seed).unwrap();
            let b = runner_b.startup_trial(seed).unwrap();
            assert_eq!(a.startup_ms, b.startup_ms, "mode {mode:?} seed {seed}");
            assert_eq!(a.first_response_ms, b.first_response_ms);
            assert_eq!(a.phases.appinit.as_nanos(), b.phases.appinit.as_nanos());
        }
    }
}

#[test]
fn different_seeds_jitter_within_noise_band() {
    let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
    let samples: Vec<f64> = (0..20)
        .map(|s| runner.startup_trial(s).unwrap().startup_ms)
        .collect();
    let m = median(&samples);
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let sd = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    // Measurement noise is small (±1.5% per op) but strictly nonzero.
    assert!(sd > 0.0, "noise must produce variation");
    assert!(
        sd / m < 0.05,
        "relative spread {:.4} too large for measurement noise",
        sd / m
    );
    // No outliers beyond a few percent of the median.
    for &s in &samples {
        assert!((s - m).abs() / m < 0.10, "outlier {s} vs median {m}");
    }
}

#[test]
fn bake_is_deterministic() {
    let a = TrialRunner::new(FunctionSpec::markdown(), StartMode::PrebakeWarmup(1)).unwrap();
    let b = TrialRunner::new(FunctionSpec::markdown(), StartMode::PrebakeWarmup(1)).unwrap();
    assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
}

#[test]
fn function_specs_are_reproducible() {
    let a = FunctionSpec::synthetic(prebake_functions::SyntheticSize::Small);
    let b = FunctionSpec::synthetic(prebake_functions::SyntheticSize::Small);
    assert_eq!(a.archive().encode(), b.archive().encode());
}
