//! The span tree and the flat probe trace are two views of the same
//! start-up window, so the Fig. 4 phase decomposition derived from spans
//! must equal the `PhaseTracker` output *bit-for-bit* — same integer
//! nanoseconds in every phase, for every start mode. This is the
//! acceptance gate for the tracing subsystem: if a span drifts off its
//! probe instants by even one charge, these tests fail.

use prebake_core::measure::{StartMode, TrialRunner};
use prebake_core::phases_from_span_tree;
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_sim::trace::TraceSummary;

fn modes() -> [StartMode; 5] {
    [
        StartMode::Vanilla,
        StartMode::PrebakeWarmup(1),
        StartMode::PrebakeLazy,
        StartMode::PrebakePrefetch,
        StartMode::PrebakeCow,
    ]
}

#[test]
fn span_derived_phases_match_phase_tracker_exactly() {
    for mode in modes() {
        let runner = TrialRunner::new(FunctionSpec::noop(), mode).unwrap();
        let (trial, spans) = runner.traced_trial(7).unwrap();
        let from_spans = phases_from_span_tree(&spans)
            .unwrap_or_else(|| panic!("{}: no startup root span", mode.label()));
        assert_eq!(
            from_spans,
            trial.phases,
            "{}: span-derived phases diverge from the probe fold",
            mode.label()
        );
    }
}

#[test]
fn traced_trial_reports_the_same_timings_as_untraced() {
    // Span recording must not perturb the virtual timeline: the same
    // seed gives identical startup and first-response times with and
    // without the tracer.
    for mode in modes() {
        let runner = TrialRunner::new(FunctionSpec::noop(), mode).unwrap();
        let plain = runner.startup_trial(11).unwrap();
        let (traced, _) = runner.traced_trial(11).unwrap();
        assert_eq!(plain.startup_ms, traced.startup_ms, "{}", mode.label());
        assert_eq!(
            plain.first_response_ms,
            traced.first_response_ms,
            "{}",
            mode.label()
        );
        assert_eq!(plain.phases, traced.phases, "{}", mode.label());
    }
}

#[test]
fn startup_root_span_carries_the_measured_duration() {
    for mode in modes() {
        let runner = TrialRunner::new(FunctionSpec::synthetic(SyntheticSize::Small), mode).unwrap();
        let (trial, spans) = runner.traced_trial(3).unwrap();
        let root = spans
            .iter()
            .find(|s| s.name == "startup" && s.parent.is_none())
            .unwrap_or_else(|| panic!("{}: missing startup root", mode.label()));
        assert_eq!(
            root.duration().as_millis_f64(),
            trial.startup_ms,
            "{}: root span and trial disagree on startup time",
            mode.label()
        );

        // Both trees land in the artifact: the summary's wall is the
        // startup plus the first request.
        let summary = TraceSummary::from_spans(&spans);
        assert!(spans.iter().any(|s| s.name == "first_request"));
        assert!(summary.wall >= root.duration());
    }
}

#[test]
fn restore_modes_produce_their_signature_spans() {
    let expect = [
        (StartMode::PrebakeWarmup(1), "restore_eager_copy"),
        (StartMode::PrebakeLazy, "restore_lazy_register"),
        (StartMode::PrebakePrefetch, "restore_lazy_register"),
        (StartMode::PrebakeCow, "restore_cow_map"),
    ];
    for (mode, wanted) in expect {
        let runner = TrialRunner::new(FunctionSpec::noop(), mode).unwrap();
        let (_, spans) = runner.traced_trial(5).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(
            names.contains(&wanted),
            "{}: expected a {wanted:?} span, got {names:?}",
            mode.label()
        );
        for stage in ["criu_restore", "image_parse", "restore_vmas", "restore_fds"] {
            assert!(
                names.contains(&stage),
                "{}: missing {stage:?} in {names:?}",
                mode.label()
            );
        }
    }
}
