//! Golden tests for the deterministic text dashboard and the
//! exemplar-annotated Chrome-trace export: a hand-seeded recorder must
//! render to exactly these bytes. The strings double as the format
//! contract of both exports.

use prebake_obs::slo::SloEngine;
use prebake_obs::{
    chrome_trace_with_exemplars, dashboard, DashboardSpec, Objective, Recorder, RecorderConfig,
    SeriesKey,
};
use prebake_sim::proc::Pid;
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_sim::trace::Tracer;

fn at_secs(s: u64) -> SimInstant {
    SimInstant::EPOCH + SimDuration::from_secs(s)
}

/// Two 60s windows: a healthy window 0, then a breaching window 1 where
/// tenant "b" turns 3 of 5 requests bad and latency spikes into the
/// overflow bucket. Exemplars link the healthy observation to trace 3
/// and the spike to trace 7.
fn seeded_recorder() -> Recorder {
    let mut rec = Recorder::new(RecorderConfig {
        width: SimDuration::from_secs(60),
        capacity: 8,
        bounds: vec![10.0, 100.0, 1000.0],
    });
    rec.inc(at_secs(5), SeriesKey::new("req_total").tenant("a"), 8);
    rec.observe_exemplar(
        at_secs(5),
        SeriesKey::new("lat_ms").tenant("a"),
        4.0,
        Some(3),
    );
    rec.inc(at_secs(65), SeriesKey::new("req_total").tenant("b"), 5);
    rec.inc(at_secs(65), SeriesKey::new("bad_total").tenant("b"), 3);
    rec.observe_exemplar(
        at_secs(65),
        SeriesKey::new("lat_ms").tenant("b"),
        2500.0,
        Some(7),
    );
    rec
}

fn engine() -> SloEngine {
    SloEngine::new(vec![Objective::ratio(
        "bad-rate",
        "bad_total",
        "req_total",
        0.9,
    )])
}

#[test]
fn dashboard_matches_golden() {
    let rec = seeded_recorder();
    let report = engine().evaluate(&rec);
    let spec = DashboardSpec {
        counters: vec!["req_total".to_owned()],
        quantiles: vec![("lat_ms".to_owned(), 0.99)],
    };
    let text = dashboard(&rec, &report, &spec);
    let golden = concat!(
        "== prebake obs dashboard ==\n",
        "window 60.000s x 2 retained (0 rolled, 0 late drops)\n",
        "\n",
        "-- windows --\n",
        "   idx     t+s  req_total  lat_ms:p99  \n",
        "     0       0          8       10.00  \n",
        "     1      60          5         inf  \n",
        "\n",
        "-- objectives --\n",
        "bad-rate: good 76.92% target-bad 3/13 burn 2.31x  BREACH\n",
        "  worst: tenant \"b\" window 1 (t+60s) burn 6.00x (3/5)\n",
        "\n",
        "-- events --\n",
        "[t+60s w1] bad-rate tenant=\"b\" WINDOW_BREACH burn=6.00 (3/5)\n",
        "[t+60s w1] bad-rate tenant=\"b\" BURN_ALERT short=6.00 long=6.00\n",
    );
    assert_eq!(text, golden);
}

#[test]
fn exemplar_trace_export_matches_golden() {
    let rec = seeded_recorder();
    // One retained span tree whose root is trace id 7 — the request the
    // exemplar links to.
    let mut tracer = Tracer::new();
    tracer.set_enabled(true);
    let root = tracer.begin("sched_invocation", Pid(1), at_secs(65));
    tracer.attr(root, "id", "7");
    tracer.end(root, at_secs(67));
    let spans = tracer.take(at_secs(67));

    let json = chrome_trace_with_exemplars(&spans, &rec);
    let golden = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        "{\"name\":\"sched_invocation\",\"cat\":\"prebake\",\"ph\":\"X\",",
        "\"ts\":65000000.000,\"dur\":2000000.000,\"pid\":1,\"tid\":1,",
        "\"args\":{\"span\":1,\"parent\":0,\"id\":\"7\"}},",
        "{\"name\":\"exemplar:lat_ms\",\"cat\":\"exemplar\",\"ph\":\"i\",",
        "\"ts\":5000000.000,\"pid\":0,\"tid\":0,\"s\":\"g\",",
        "\"args\":{\"le\":\"10\",\"value_ms\":\"4.0000\",\"window\":\"0\",",
        "\"series\":\"tenant=\\\"a\\\"\",\"trace\":\"3\"}},",
        "{\"name\":\"exemplar:lat_ms\",\"cat\":\"exemplar\",\"ph\":\"i\",",
        "\"ts\":65000000.000,\"pid\":0,\"tid\":0,\"s\":\"g\",",
        "\"args\":{\"le\":\"+Inf\",\"value_ms\":\"2500.0000\",\"window\":\"1\",",
        "\"series\":\"tenant=\\\"b\\\"\",\"trace\":\"7\"}}",
        "]}"
    );
    assert_eq!(json, golden);
}

#[test]
fn renders_are_byte_stable_across_evaluations() {
    let rec = seeded_recorder();
    let spec = DashboardSpec {
        counters: vec!["req_total".to_owned(), "bad_total".to_owned()],
        quantiles: vec![("lat_ms".to_owned(), 0.5), ("lat_ms".to_owned(), 0.999)],
    };
    let once = dashboard(&rec, &engine().evaluate(&rec), &spec);
    let twice = dashboard(&rec, &engine().evaluate(&rec), &spec);
    assert_eq!(once, twice);
    assert_eq!(
        chrome_trace_with_exemplars(&[], &rec),
        chrome_trace_with_exemplars(&[], &rec)
    );
}
