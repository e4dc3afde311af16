//! Deterministic renderings: the text dashboard and the
//! exemplar-annotated Chrome-trace export.
//!
//! Both outputs are byte-stable for a given recorder/report state —
//! fixed field order, fixed float precision, BTreeMap-backed iteration —
//! so they can be golden-tested byte for byte exactly like the plain
//! span export.

use prebake_platform::metrics::fmt_le;
use prebake_sim::time::SimInstant;
use prebake_sim::trace::{chrome_trace_json, TraceSpan};

use crate::recorder::Recorder;
use crate::slo::{SloEventKind, SloReport};

/// Which columns the dashboard's per-window table shows.
#[derive(Debug, Clone, Default)]
pub struct DashboardSpec {
    /// Counter metrics, one column each (summed over label splits).
    pub counters: Vec<String>,
    /// Histogram metrics with a quantile, one column each
    /// (e.g. `("fleet_latency_ms", 0.99)`).
    pub quantiles: Vec<(String, f64)>,
}

/// Fixed-precision quantile label: `p99`, `p99.9`, `p50`.
fn quantile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct}")
    }
}

/// A quantile value cell (`inf` for the overflow bucket, `-` when the
/// window has no observations of the metric).
fn quantile_cell(w: &crate::recorder::WindowView<'_>, metric: &str, q: f64) -> String {
    match w.merged_histogram(metric, None) {
        None => "-".to_owned(),
        Some(h) => {
            let v = h.quantile(q);
            if v.is_infinite() {
                "inf".to_owned()
            } else {
                format!("{v:.2}")
            }
        }
    }
}

/// Renders the deterministic text dashboard: ring summary, a per-window
/// table of the requested columns, per-objective status lines with
/// worst-offender attribution, and the ordered SLO event log.
pub fn dashboard(rec: &Recorder, report: &SloReport, spec: &DashboardSpec) -> String {
    let mut out = String::new();
    out.push_str("== prebake obs dashboard ==\n");
    out.push_str(&format!(
        "window {:.3}s x {} retained ({} rolled, {} late drops)\n",
        rec.config().width.as_secs_f64(),
        rec.windows().count(),
        rec.windows_rolled,
        rec.late_drops,
    ));

    out.push_str("\n-- windows --\n");
    let mut headers = vec!["idx".to_owned(), "t+s".to_owned()];
    headers.extend(spec.counters.iter().cloned());
    headers.extend(
        spec.quantiles
            .iter()
            .map(|(m, q)| format!("{m}:{}", quantile_label(*q))),
    );
    let widths: Vec<usize> = headers.iter().map(|h| h.len().max(6)).collect();
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!("{h:>w$}  ", w = *w));
    }
    out.push('\n');
    for win in rec.windows() {
        let mut cells = vec![
            format!("{}", win.index),
            format!(
                "{:.0}",
                win.start
                    .saturating_duration_since(SimInstant::EPOCH)
                    .as_secs_f64()
            ),
        ];
        cells.extend(
            spec.counters
                .iter()
                .map(|m| format!("{}", win.counter_metric(m))),
        );
        cells.extend(
            spec.quantiles
                .iter()
                .map(|(m, q)| quantile_cell(&win, m, *q)),
        );
        for (c, w) in cells.iter().zip(&widths) {
            out.push_str(&format!("{c:>w$}  ", w = *w));
        }
        out.push('\n');
    }

    out.push_str("\n-- objectives --\n");
    if report.statuses.is_empty() {
        out.push_str("(none configured)\n");
    }
    for s in &report.statuses {
        let verdict = if s.burn > 1.0 { "BREACH" } else { "OK" };
        out.push_str(&format!(
            "{}: good {:.2}% target-bad {}/{} burn {:.2}x  {verdict}\n",
            s.name,
            s.good_fraction() * 100.0,
            s.bad,
            s.total,
            s.burn,
        ));
        if let Some(w) = &s.worst {
            out.push_str(&format!(
                "  worst: tenant \"{}\" window {} (t+{:.0}s) burn {:.2}x ({}/{})\n",
                w.tenant,
                w.window_index,
                w.window_start
                    .saturating_duration_since(SimInstant::EPOCH)
                    .as_secs_f64(),
                w.burn,
                w.bad,
                w.total,
            ));
        }
    }

    out.push_str("\n-- events --\n");
    if report.events.is_empty() {
        out.push_str("(none)\n");
    }
    for e in &report.events {
        let at = e
            .window_start
            .saturating_duration_since(SimInstant::EPOCH)
            .as_secs_f64();
        match &e.kind {
            SloEventKind::WindowBreach { burn, bad, total } => {
                out.push_str(&format!(
                    "[t+{at:.0}s w{}] {} tenant=\"{}\" WINDOW_BREACH burn={burn:.2} ({bad}/{total})\n",
                    e.window_index, e.objective, e.tenant,
                ));
            }
            SloEventKind::BurnAlert {
                short_burn,
                long_burn,
            } => {
                out.push_str(&format!(
                    "[t+{at:.0}s w{}] {} tenant=\"{}\" BURN_ALERT short={short_burn:.2} long={long_burn:.2}\n",
                    e.window_index, e.objective, e.tenant,
                ));
            }
        }
    }
    out
}

/// `ts` in trace-event microseconds with fixed 3-decimal precision
/// (mirrors the span exporter's formatting).
fn ts_micros(t: SimInstant) -> String {
    let nanos = t.saturating_duration_since(SimInstant::EPOCH).as_nanos();
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialises spans as Chrome trace-event JSON and appends one instant
/// event per histogram exemplar — the bucket→trace links. Exemplars are
/// emitted in (window, series, bucket) order after the span events, each
/// carrying the bucket (`le`), observed value, window index, series
/// labels, and the retained trace id, so a Perfetto user can jump from a
/// latency bucket to the trace that produced it. Output is byte-stable.
pub fn chrome_trace_with_exemplars(spans: &[TraceSpan], rec: &Recorder) -> String {
    let base = chrome_trace_json(spans);
    let exemplars = rec.exemplars();
    if exemplars.is_empty() {
        return base;
    }
    let mut events: Vec<String> = Vec::with_capacity(exemplars.len());
    for (w, key, bucket, ex) in exemplars {
        let bounds = match w.histogram(key) {
            Some(wh) => wh.hist.bounds(),
            None => continue,
        };
        let le = if bucket < bounds.len() {
            fmt_le(bounds[bucket])
        } else {
            "+Inf".to_owned()
        };
        events.push(format!(
            "{{\"name\":\"exemplar:{}\",\"cat\":\"exemplar\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"le\":\"{}\",\"value_ms\":\"{:.4}\",\"window\":\"{}\",\"series\":\"{}\",\"trace\":\"{}\"}}}}",
            json_escape(&key.metric),
            ts_micros(ex.at),
            json_escape(&le),
            ex.value_ms,
            w.index,
            json_escape(&key.labels()),
            ex.trace_id,
        ));
    }
    if events.is_empty() {
        return base;
    }
    let tail = "]}";
    let head = base
        .strip_suffix(tail)
        .expect("chrome_trace_json ends with ]}");
    let sep = if head.ends_with('[') { "" } else { "," };
    format!("{head}{sep}{}{tail}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{RecorderConfig, SeriesKey};
    use crate::slo::{Objective, SloEngine};
    use prebake_sim::proc::Pid;
    use prebake_sim::time::SimDuration;
    use prebake_sim::trace::Tracer;

    fn at_secs(s: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(s)
    }

    fn seeded_recorder() -> Recorder {
        let mut r = Recorder::new(RecorderConfig {
            width: SimDuration::from_secs(60),
            capacity: 16,
            bounds: vec![10.0, 100.0, 1000.0],
        });
        r.inc(at_secs(1), SeriesKey::new("req_total").tenant("a"), 10);
        r.inc(at_secs(61), SeriesKey::new("req_total").tenant("a"), 5);
        r.inc(at_secs(61), SeriesKey::new("bad_total").tenant("a"), 3);
        r.observe_exemplar(
            at_secs(1),
            SeriesKey::new("lat_ms").tenant("a"),
            42.0,
            Some(9),
        );
        r.observe(at_secs(61), SeriesKey::new("lat_ms").tenant("a"), 9000.0);
        r
    }

    #[test]
    fn dashboard_renders_and_is_stable() {
        let rec = seeded_recorder();
        let engine = SloEngine::new(vec![Objective::ratio(
            "bad-rate",
            "bad_total",
            "req_total",
            0.9,
        )]);
        let report = engine.evaluate(&rec);
        let spec = DashboardSpec {
            counters: vec!["req_total".to_owned()],
            quantiles: vec![("lat_ms".to_owned(), 0.99)],
        };
        let text = dashboard(&rec, &report, &spec);
        assert!(text.contains("== prebake obs dashboard =="));
        assert!(text.contains("window 60.000s x 2 retained"));
        assert!(text.contains("lat_ms:p99"));
        assert!(text.contains("WINDOW_BREACH"));
        assert!(text.contains("worst: tenant \"a\" window 1 (t+60s)"));
        assert_eq!(text, dashboard(&rec, &report, &spec), "byte-stable");
        // Window 1's p99 falls in the overflow bucket.
        assert!(text
            .lines()
            .any(|l| l.trim_start().starts_with('1') && l.contains("inf")));
    }

    #[test]
    fn quantile_label_formats() {
        assert_eq!(quantile_label(0.5), "p50");
        assert_eq!(quantile_label(0.99), "p99");
        assert_eq!(quantile_label(0.999), "p99.9");
    }

    #[test]
    fn exemplar_export_appends_linked_instants() {
        let rec = seeded_recorder();
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        let root = tracer.begin("request", Pid(1), at_secs(1));
        tracer.attr(root, "id", "9");
        tracer.end(root, at_secs(2));
        let spans = tracer.take(at_secs(2));

        let text = chrome_trace_with_exemplars(&spans, &rec);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"name\":\"exemplar:lat_ms\""));
        assert!(text.contains("\"le\":\"100\""));
        assert!(text.contains("\"trace\":\"9\""));
        assert!(text.contains("\"series\":\"tenant=\\\"a\\\"\""));
        // Exactly one exemplar event (the 9000ms observation had no trace).
        assert_eq!(text.matches("\"cat\":\"exemplar\"").count(), 1);
        // Still a single well-formed JSON object (balanced braces).
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn exemplar_export_with_no_spans_still_valid() {
        let rec = seeded_recorder();
        let text = chrome_trace_with_exemplars(&[], &rec);
        assert!(text.contains("\"traceEvents\":[{\"name\":\"exemplar:lat_ms\""));
        let no_exemplars = chrome_trace_with_exemplars(&[], &Recorder::default());
        assert_eq!(
            no_exemplars,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
