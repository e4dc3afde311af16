//! Property tests for the tracer: any interleaving of begin/end/annotate
//! /take driven by a monotone clock yields well-formed span trees —
//! unique non-zero ids, children nested inside their parents, events
//! timestamped inside their span — and the critical-path summary
//! conserves wall time exactly.
//!
//! The vendored proptest stub has no combinators, so an op sequence is
//! sampled as `(opcode, operand)` pairs and decoded in [`replay`]:
//! opcodes 0-2 begin a span, 3-5 end one, 6-7 annotate, 8 drains.

use proptest::prelude::*;

use prebake_sim::probe::{ProbeEvent, ProbeKind};
use prebake_sim::proc::Pid;
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_sim::trace::{chrome_trace_json, SpanId, TraceSpan, TraceSummary, Tracer};

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Replays an encoded op sequence against a tracer with a clock that
/// advances 1µs per step, returning every drained window.
fn replay(ops: &[(u8, usize)]) -> Vec<Vec<TraceSpan>> {
    let mut tracer = Tracer::new();
    tracer.set_enabled(true);
    let mut clock = 0u64;
    let mut now = move || {
        clock += 1_000;
        SimInstant::from_nanos(clock)
    };
    let mut ids: Vec<SpanId> = Vec::new();
    let mut windows = Vec::new();
    for &(opcode, operand) in ops {
        match opcode {
            0..=2 => {
                let t = now();
                ids.push(tracer.begin(NAMES[operand % NAMES.len()], Pid(1), t));
            }
            3..=5 => {
                // May pick an already-closed span: the tracer must treat
                // the second end as a no-op.
                if !ids.is_empty() {
                    let id = ids[operand % ids.len()];
                    let t = now();
                    tracer.end(id, t);
                }
            }
            6..=7 => {
                let t = now();
                tracer.annotate(ProbeEvent {
                    time: t,
                    pid: Pid(2),
                    kind: ProbeKind::Marker("tick".into()),
                });
            }
            _ => {
                let t = now();
                windows.push(tracer.take(t));
            }
        }
    }
    let t = now();
    windows.push(tracer.take(t));
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recorded_trees_are_well_formed(
        ops in prop::collection::vec((0u8..9, 0..64usize), 0..120),
    ) {
        let windows = replay(&ops);

        // Ids are unique and non-zero across *all* windows.
        let mut seen = std::collections::BTreeSet::new();
        for span in windows.iter().flatten() {
            prop_assert!(!span.id.is_none(), "recorded span with NONE id");
            prop_assert!(seen.insert(span.id.as_u64()), "duplicate id {}", span.id.as_u64());
        }

        for window in &windows {
            let by_id: std::collections::BTreeMap<u64, &TraceSpan> =
                window.iter().map(|s| (s.id.as_u64(), s)).collect();
            for span in window {
                prop_assert!(span.end >= span.start, "negative duration on {}", span.name);
                if let Some(parent) = span.parent {
                    let parent = by_id
                        .get(&parent.as_u64())
                        .ok_or_else(|| TestCaseError::fail("dangling parent id"))?;
                    prop_assert!(parent.start <= span.start, "child starts before parent");
                    prop_assert!(parent.end >= span.end, "child outlives parent");
                }
                for event in &span.events {
                    prop_assert!(
                        event.time >= span.start && event.time <= span.end,
                        "annotation outside its span"
                    );
                }
            }
        }
    }

    #[test]
    fn summary_conserves_wall_time(
        ops in prop::collection::vec((0u8..9, 0..64usize), 0..120),
    ) {
        // Under stack discipline with a monotone clock, sibling spans
        // never overlap, so per-stage self times must sum back to the
        // root wall time exactly — any drift means the attribution
        // double-counts or loses time.
        for window in replay(&ops) {
            let summary = TraceSummary::from_spans(&window);
            prop_assert_eq!(summary.self_total(), summary.wall);
            let counted: u64 = summary.stages.iter().map(|s| s.count).sum();
            prop_assert_eq!(counted as usize, window.len());
            if window.is_empty() {
                prop_assert_eq!(summary.wall, SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn exporter_stays_balanced_json(
        ops in prop::collection::vec((0u8..9, 0..64usize), 0..80),
    ) {
        for window in replay(&ops) {
            let json = chrome_trace_json(&window);
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
                        prop_assert!(depth >= 0);
                    }
                    _ => {}
                }
            }
            prop_assert!(!in_string);
            prop_assert_eq!(depth, 0);
        }
    }
}
