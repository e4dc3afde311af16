//! End-to-end span tracing of the start path: one traced cold start (plus
//! first request) per start mode × Fig. 5 synthetic function, exported as
//! Chrome trace-event JSON under `results/traces/` — load the files in
//! Perfetto or `chrome://tracing` to scrub through the start visually.
//!
//! Doubles as the tracing subsystem's acceptance harness: for every
//! trial, the Fig. 4 phases derived *from the span tree* must equal the
//! `PhaseTracker`'s probe-fold output exactly, or the run aborts.
//!
//! A quick run (`--quick`, or `--reps` below the full threshold) traces
//! the small function only; a full run sweeps all three sizes. Beyond
//! that `--reps` is ignored (one traced run per cell — span artifacts,
//! not statistics).

use prebake_bench::{hr, HarnessArgs};
use prebake_core::measure::{StartMode, TrialRunner};
use prebake_core::phases_from_span_tree;
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_sim::trace::{chrome_trace_json, TraceSummary};

const OUT_DIR: &str = "results/traces";

fn modes() -> [StartMode; 4] {
    [
        StartMode::Vanilla,
        StartMode::PrebakeWarmup(1),
        StartMode::PrebakeLazy,
        StartMode::PrebakeCow,
    ]
}

fn main() {
    let args = HarnessArgs::parse();
    let sizes: Vec<SyntheticSize> = if args.is_full() {
        SyntheticSize::all().to_vec()
    } else {
        vec![SyntheticSize::Small]
    };
    std::fs::create_dir_all(OUT_DIR).expect("create results/traces");

    println!("Span traces of the start path (seed {})", args.seed);
    hr();

    for size in &sizes {
        for mode in modes() {
            let spec = FunctionSpec::synthetic(*size);
            let runner = TrialRunner::new(spec, mode).expect("build runner");
            let (trial, spans) = runner.traced_trial(args.seed).expect("traced trial");

            // Acceptance gate: the span tree carries the whole phase
            // story, bit-for-bit.
            let from_spans = phases_from_span_tree(&spans).expect("trace has no startup root span");
            assert_eq!(
                from_spans,
                trial.phases,
                "{} {}: span-derived phases diverge from PhaseTracker",
                size.label(),
                mode.label()
            );

            let path = format!("{OUT_DIR}/{}-{}.json", size.label(), mode.label());
            std::fs::write(&path, chrome_trace_json(&spans)).expect("write trace");

            let summary = TraceSummary::from_spans(&spans);
            println!(
                "{} / {} — startup {:.2}ms, first response {:.2}ms, {} spans -> {}",
                size.label(),
                mode.label(),
                trial.startup_ms,
                trial.first_response_ms,
                spans.len(),
                path
            );
            println!(
                "  phases: clone {:.2}ms exec {:.2}ms rts {:.2}ms appinit {:.2}ms (spans agree exactly)",
                trial.phases.clone.as_millis_f64(),
                trial.phases.exec.as_millis_f64(),
                trial.phases.rts.as_millis_f64(),
                trial.phases.appinit.as_millis_f64(),
            );
            for line in summary.render().lines() {
                println!("  {line}");
            }
            hr();
        }
    }
    println!("all span-derived phase totals matched the probe fold");
}
