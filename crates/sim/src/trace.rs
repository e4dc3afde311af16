//! Structured span tracing over the virtual clock.
//!
//! The probe stream ([`crate::probe`]) reproduces the paper's `bpftrace`
//! instrumentation: a flat sequence of syscall/marker/fault events that
//! the `PhaseTracker` folds into Fig. 4's four phases. Spans add the
//! *tree* the flat stream lacks: every stage of the start path — clone,
//! exec, image parse, eager copy vs CoW map vs prefetch, fault service —
//! records a `[start, end]` interval nested under its caller, so one cold
//! start yields one tree from the root command down to individual fault
//! batches.
//!
//! The [`Tracer`] lives inside the kernel and is a zero-cost no-op while
//! disabled: [`Tracer::begin`] returns `SpanId::NONE` without
//! allocating, and every other operation on a `NONE` id returns
//! immediately. Probe events recorded while a span is open are attached
//! to the innermost open span as *annotations*, preserving the exact
//! event stream inside the tree.
//!
//! Two exporters consume a recorded tree:
//!
//! - [`chrome_trace_json`] — the Chrome trace-event format, loadable in
//!   Perfetto / `chrome://tracing`;
//! - [`TraceSummary`] — a critical-path table attributing total wall
//!   time to named stages by *self time* (span duration minus direct
//!   children).

use crate::probe::{ProbeEvent, ProbeKind};
use crate::proc::Pid;
use crate::time::{SimDuration, SimInstant};

/// Identifier of a recorded span.
///
/// `SpanId::NONE` (zero) is what [`Tracer::begin`] hands out while
/// tracing is disabled; every operation on it is a no-op, so callers can
/// bracket code unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The disabled-tracing sentinel.
    pub(crate) const NONE: SpanId = SpanId(0);

    /// Whether this is the disabled sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Raw id (0 for `SpanId::NONE`).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// A span id from its raw value — for renumbering spans when merging
    /// independently-traced batches (e.g. fleet shards) into one stream.
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }
}

/// One recorded interval of the start path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Unique id within one tracer session.
    pub id: SpanId,
    /// Enclosing span, if any (`None` for roots).
    pub parent: Option<SpanId>,
    /// Stage name (`"sys_clone"`, `"criu_restore"`, …).
    pub name: &'static str,
    /// Process the stage ran on behalf of.
    pub pid: Pid,
    /// When the stage began.
    pub start: SimInstant,
    /// When the stage ended. Spans still open when the tracer drains are
    /// closed at drain time, so `end >= start` always holds.
    pub end: SimInstant,
    /// Key/value attributes (`("pages", "512")`).
    pub attrs: Vec<(&'static str, String)>,
    /// Probe events observed while this span was innermost-open.
    pub events: Vec<ProbeEvent>,
}

impl TraceSpan {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Records nested spans against externally supplied clock readings.
///
/// The kernel owns one tracer and threads its virtual clock through
/// `begin`/`end`/`take`; the tracer itself is clock-agnostic so tests can
/// drive it with hand-picked instants.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<TraceSpan>,
    /// Indices into `spans` of currently open spans, outermost first.
    stack: Vec<usize>,
    next_id: u64,
}

impl Tracer {
    /// A disabled tracer (the kernel's initial state).
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Turning it off leaves already-recorded
    /// spans in place for a later [`Tracer::take`].
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span at `now`, nested under the innermost open span.
    /// Returns `SpanId::NONE` while disabled.
    pub fn begin(&mut self, name: &'static str, pid: Pid, now: SimInstant) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.next_id += 1;
        let id = SpanId(self.next_id);
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        self.stack.push(self.spans.len());
        self.spans.push(TraceSpan {
            id,
            parent,
            name,
            pid,
            start: now,
            end: now,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        id
    }

    /// Closes `id` at `now`. Any spans opened inside it that are still
    /// open are closed at the same instant, so the tree stays well-formed
    /// even when an error path skipped their own `end`. Unknown or
    /// already-closed ids (and `SpanId::NONE`) are ignored.
    pub fn end(&mut self, id: SpanId, now: SimInstant) {
        if id.is_none() {
            return;
        }
        let Some(pos) = self.stack.iter().rposition(|&i| self.spans[i].id == id) else {
            return;
        };
        for &idx in &self.stack[pos..] {
            self.spans[idx].end = now;
        }
        self.stack.truncate(pos);
    }

    /// Attaches an attribute to `id` (no-op for `SpanId::NONE` or an
    /// unknown id).
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: impl Into<String>) {
        if id.is_none() {
            return;
        }
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.attrs.push((key, value.into()));
        }
    }

    /// Attaches a probe event to the innermost open span. Events arriving
    /// while no span is open are dropped — the start path always runs
    /// under a root span, so this only loses out-of-window noise.
    pub fn annotate(&mut self, event: ProbeEvent) {
        if !self.enabled {
            return;
        }
        if let Some(&idx) = self.stack.last() {
            self.spans[idx].events.push(event);
        }
    }

    /// Number of spans currently open.
    pub(crate) fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Drains the recorded spans, closing any still open at `now`. Ids
    /// keep incrementing across drains, so spans from successive windows
    /// never collide.
    pub fn take(&mut self, now: SimInstant) -> Vec<TraceSpan> {
        for &idx in &self.stack {
            self.spans[idx].end = now;
        }
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Human/Perfetto-readable label for an annotation event.
pub(crate) fn probe_label(kind: &ProbeKind) -> String {
    match kind {
        ProbeKind::SyscallEnter(name) => format!("enter:{name}"),
        ProbeKind::SyscallExit(name) => format!("exit:{name}"),
        ProbeKind::Marker(name) => format!("marker:{name}"),
        ProbeKind::PageFault { major: true } => "fault:major".to_owned(),
        ProbeKind::PageFault { major: false } => "fault:minor".to_owned(),
        ProbeKind::CowBreak => "cow-break".to_owned(),
        ProbeKind::ExtentCopy { pages } => format!("extent:{pages}"),
        ProbeKind::FaultAround { pages } => format!("fault-around:{pages}"),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with fixed 3-decimal precision (the trace-event `ts`
/// unit), stable across platforms.
fn ts_micros(t: SimInstant) -> String {
    let nanos = t.saturating_duration_since(SimInstant::EPOCH).as_nanos();
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn dur_micros(d: SimDuration) -> String {
    format!("{}.{:03}", d.as_nanos() / 1_000, d.as_nanos() % 1_000)
}

/// Serialises a span tree in the Chrome trace-event JSON format
/// (loadable in Perfetto and `chrome://tracing`).
///
/// Spans become complete (`"ph":"X"`) events; their probe annotations
/// become instant (`"ph":"i"`) events. Events are emitted in
/// non-decreasing `ts` order with a fixed field order, so the output is
/// byte-stable for a given tree.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    // (ts_nanos, emission order) keys a stable sort so simultaneous
    // events keep tree order.
    let mut events: Vec<(u64, usize, String)> = Vec::new();
    for span in spans {
        let ts = span
            .start
            .saturating_duration_since(SimInstant::EPOCH)
            .as_nanos();
        let mut args = format!(
            "\"span\":{},\"parent\":{}",
            span.id.as_u64(),
            span.parent.map_or(0, SpanId::as_u64)
        );
        for (key, value) in &span.attrs {
            args.push_str(&format!(
                ",\"{}\":\"{}\"",
                json_escape(key),
                json_escape(value)
            ));
        }
        let order = events.len();
        events.push((
            ts,
            order,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"prebake\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                json_escape(span.name),
                ts_micros(span.start),
                dur_micros(span.duration()),
                span.pid.0,
                span.pid.0,
                args
            ),
        ));
        for event in &span.events {
            let ets = event
                .time
                .saturating_duration_since(SimInstant::EPOCH)
                .as_nanos();
            let order = events.len();
            events.push((
                ets,
                order,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"probe\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\"}}",
                    json_escape(&probe_label(&event.kind)),
                    ts_micros(event.time),
                    event.pid.0,
                    event.pid.0
                ),
            ));
        }
    }
    events.sort_by_key(|&(ts, order, _)| (ts, order));
    let body: Vec<String> = events.into_iter().map(|(_, _, json)| json).collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        body.join(",")
    )
}

/// Wall-time attribution of one stage name across a span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// Stage (span) name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations (includes time spent in children).
    pub total: SimDuration,
    /// Summed *self* time: duration minus direct children — the stage's
    /// own contribution to the critical path.
    pub(crate) self_time: SimDuration,
}

/// A critical-path summary over a recorded span tree: total wall time of
/// the root spans, attributed to stage names by self time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Summed durations of the tree's root spans.
    pub wall: SimDuration,
    /// Per-stage attribution, largest self time first (name-ordered on
    /// ties, so the table is deterministic).
    pub stages: Vec<StageTotal>,
}

impl TraceSummary {
    /// Folds a span tree into a summary.
    pub fn from_spans(spans: &[TraceSpan]) -> TraceSummary {
        use std::collections::BTreeMap;
        // Sum of direct children durations per parent id.
        let mut child_time: BTreeMap<u64, SimDuration> = BTreeMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                let slot = child_time.entry(parent.as_u64()).or_default();
                *slot = slot.saturating_add(span.duration());
            }
        }
        let mut stages: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
        let mut wall = SimDuration::ZERO;
        for span in spans {
            if span.parent.is_none() {
                wall = wall.saturating_add(span.duration());
            }
            let children = child_time
                .get(&span.id.as_u64())
                .copied()
                .unwrap_or(SimDuration::ZERO);
            let entry = stages.entry(span.name).or_insert(StageTotal {
                name: span.name,
                count: 0,
                total: SimDuration::ZERO,
                self_time: SimDuration::ZERO,
            });
            entry.count += 1;
            entry.total = entry.total.saturating_add(span.duration());
            entry.self_time = entry
                .self_time
                .saturating_add(span.duration().saturating_sub(children));
        }
        let mut stages: Vec<StageTotal> = stages.into_values().collect();
        stages.sort_by(|a, b| b.self_time.cmp(&a.self_time).then(a.name.cmp(b.name)));
        TraceSummary { wall, stages }
    }

    /// Summed self time across all stages. Equals [`TraceSummary::wall`]
    /// for a well-formed tree whose children never outlive their parents.
    pub fn self_total(&self) -> SimDuration {
        self.stages
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc.saturating_add(s.self_time))
    }

    /// Renders the attribution as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>6} {:>12} {:>12}\n",
            "stage", "count", "total ms", "self ms"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<24} {:>6} {:>12.3} {:>12.3}\n",
                s.name,
                s.count,
                s.total.as_millis_f64(),
                s.self_time.as_millis_f64()
            ));
        }
        out.push_str(&format!(
            "{:<24} {:>6} {:>12.3} {:>12.3}\n",
            "(wall)",
            "",
            self.wall.as_millis_f64(),
            self.self_total().as_millis_f64()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimInstant {
        SimInstant::from_nanos(us * 1_000)
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let mut t = Tracer::new();
        assert!(!t.enabled());
        let id = t.begin("x", Pid(1), at(0));
        assert!(id.is_none());
        t.attr(id, "k", "v");
        t.annotate(ProbeEvent {
            time: at(1),
            pid: Pid(1),
            kind: ProbeKind::CowBreak,
        });
        t.end(id, at(2));
        assert!(t.take(at(3)).is_empty());
    }

    #[test]
    fn nesting_and_ids() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("root", Pid(1), at(0));
        let child = t.begin("child", Pid(2), at(1));
        assert_ne!(root, child);
        t.end(child, at(3));
        t.end(root, at(5));
        let spans = t.take(at(5));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].duration(), SimDuration::from_micros(2));
    }

    #[test]
    fn ending_a_parent_closes_open_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("root", Pid(1), at(0));
        let child = t.begin("child", Pid(1), at(1));
        t.end(root, at(4)); // child never explicitly ended
        let spans = t.take(at(9));
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].end, at(4), "auto-closed with the parent");
        // Double-end of the child is ignored.
    }

    #[test]
    fn take_closes_open_spans() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.begin("open", Pid(1), at(2));
        let spans = t.take(at(7));
        assert_eq!(spans[0].end, at(7));
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn annotations_attach_to_innermost_open_span() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("root", Pid(1), at(0));
        let ev = |us| ProbeEvent {
            time: at(us),
            pid: Pid(2),
            kind: ProbeKind::Marker("m".into()),
        };
        t.annotate(ev(1));
        let child = t.begin("child", Pid(1), at(2));
        t.annotate(ev(3));
        t.end(child, at(4));
        t.annotate(ev(5));
        t.end(root, at(6));
        let spans = t.take(at(6));
        assert_eq!(spans[0].events.len(), 2);
        assert_eq!(spans[1].events.len(), 1);
    }

    #[test]
    fn summary_attributes_self_time() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("root", Pid(1), at(0));
        let a = t.begin("stage-a", Pid(1), at(1));
        t.end(a, at(4));
        let b = t.begin("stage-b", Pid(1), at(4));
        t.end(b, at(9));
        t.end(root, at(10));
        let summary = TraceSummary::from_spans(&t.take(at(10)));
        let stage = |name| summary.stages.iter().find(|s| s.name == name).unwrap();
        assert_eq!(summary.wall, SimDuration::from_micros(10));
        assert_eq!(
            stage("root").self_time,
            SimDuration::from_micros(2),
            "10 total minus 3+5 in children"
        );
        assert_eq!(stage("stage-b").total, SimDuration::from_micros(5));
        assert_eq!(summary.self_total(), summary.wall);
        assert_eq!(summary.stages[0].name, "stage-b", "largest self first");
        let table = summary.render();
        assert!(table.contains("stage-a"), "{table}");
    }

    #[test]
    fn probe_labels() {
        assert_eq!(
            probe_label(&ProbeKind::SyscallEnter("clone")),
            "enter:clone"
        );
        assert_eq!(probe_label(&ProbeKind::SyscallExit("clone")), "exit:clone");
        assert_eq!(
            probe_label(&ProbeKind::Marker("ready".into())),
            "marker:ready"
        );
        assert_eq!(
            probe_label(&ProbeKind::PageFault { major: true }),
            "fault:major"
        );
        assert_eq!(
            probe_label(&ProbeKind::PageFault { major: false }),
            "fault:minor"
        );
        assert_eq!(probe_label(&ProbeKind::CowBreak), "cow-break");
        assert_eq!(
            probe_label(&ProbeKind::ExtentCopy { pages: 64 }),
            "extent:64"
        );
        assert_eq!(
            probe_label(&ProbeKind::FaultAround { pages: 3 }),
            "fault-around:3"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
