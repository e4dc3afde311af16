//! Golden test for the Chrome trace-event exporter: a hand-built span
//! tree must serialise to exactly these bytes, in this field order, with
//! non-decreasing `ts`. Perfetto and `chrome://tracing` both consume this
//! format, so the golden string doubles as the compatibility contract.

use prebake_sim::probe::{ProbeEvent, ProbeKind};
use prebake_sim::proc::Pid;
use prebake_sim::time::SimInstant;
use prebake_sim::trace::{chrome_trace_json, Tracer};

fn ns(n: u64) -> SimInstant {
    SimInstant::from_nanos(n)
}

/// The tree every assertion below runs against: a `startup` root with a
/// `sys_clone` child, bracketed by enter/exit probe annotations.
fn sample_tree() -> Vec<prebake_sim::trace::TraceSpan> {
    let mut t = Tracer::new();
    t.set_enabled(true);
    let root = t.begin("startup", Pid(1), ns(1_500));
    t.annotate(ProbeEvent {
        time: ns(2_000),
        pid: Pid(2),
        kind: ProbeKind::SyscallEnter("clone"),
    });
    let child = t.begin("sys_clone", Pid(2), ns(2_000));
    t.attr(child, "pages", "3");
    t.end(child, ns(4_500));
    t.annotate(ProbeEvent {
        time: ns(4_500),
        pid: Pid(2),
        kind: ProbeKind::SyscallExit("clone"),
    });
    t.end(root, ns(10_250));
    t.take(ns(10_250))
}

#[test]
fn chrome_trace_json_matches_golden() {
    let json = chrome_trace_json(&sample_tree());
    let golden = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        "{\"name\":\"startup\",\"cat\":\"prebake\",\"ph\":\"X\",",
        "\"ts\":1.500,\"dur\":8.750,\"pid\":1,\"tid\":1,",
        "\"args\":{\"span\":1,\"parent\":0}},",
        "{\"name\":\"enter:clone\",\"cat\":\"probe\",\"ph\":\"i\",",
        "\"ts\":2.000,\"pid\":2,\"tid\":2,\"s\":\"t\"},",
        "{\"name\":\"sys_clone\",\"cat\":\"prebake\",\"ph\":\"X\",",
        "\"ts\":2.000,\"dur\":2.500,\"pid\":2,\"tid\":2,",
        "\"args\":{\"span\":2,\"parent\":1,\"pages\":\"3\"}},",
        "{\"name\":\"exit:clone\",\"cat\":\"probe\",\"ph\":\"i\",",
        "\"ts\":4.500,\"pid\":2,\"tid\":2,\"s\":\"t\"}",
        "]}"
    );
    assert_eq!(json, golden);
}

#[test]
fn chrome_trace_json_is_structurally_valid() {
    // A dependency-free JSON well-formedness check: every brace/bracket
    // balances outside strings, and strings close. Enough to catch any
    // escaping or interpolation regression in the hand-rolled writer.
    let json = chrome_trace_json(&sample_tree());
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in {json}");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string");
    assert_eq!(depth, 0, "unbalanced braces");
}

#[test]
fn chrome_trace_json_ts_is_monotone() {
    let json = chrome_trace_json(&sample_tree());
    let mut last = f64::MIN;
    for part in json.split("\"ts\":").skip(1) {
        let end = part
            .find(|c: char| c != '.' && !c.is_ascii_digit())
            .unwrap_or(part.len());
        let ts: f64 = part[..end].parse().expect("ts parses as a number");
        assert!(ts >= last, "ts went backwards: {ts} after {last}");
        last = ts;
    }
    assert!(last > f64::MIN, "no ts fields found");
}

#[test]
fn chrome_trace_json_escapes_attribute_values() {
    let mut t = Tracer::new();
    t.set_enabled(true);
    let span = t.begin("startup", Pid(1), ns(0));
    t.attr(span, "note", "say \"hi\"\nback\\slash");
    t.end(span, ns(1_000));
    let json = chrome_trace_json(&t.take(ns(1_000)));
    assert!(json.contains("\"note\":\"say \\\"hi\\\"\\nback\\\\slash\""));
}

#[test]
fn empty_tree_exports_an_empty_event_list() {
    assert_eq!(
        chrome_trace_json(&[]),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
    );
}
