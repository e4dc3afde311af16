//! Host-time spans around the calls perfbench makes into each crate.
//!
//! The benchmark touches no first-party source, so a span is recorded
//! from *outside*: `begin` before a call into a layer, `end` after it.
//! Spans nest (an op span holds its layer-call spans), stay in memory
//! for the whole run, and are written out as Chrome trace-event JSON at
//! exit. With tracing off, `begin`/`end` do nothing but read a flag —
//! the end-to-end pass runs that way, and the difference between the
//! two passes is reported as `perfbench.trace_overhead_share`.

use std::time::Instant;

use crate::alloc::AllocSnapshot;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `read_images`.
    pub name: &'static str,
    /// The crate directory the call went into (`perfbench` for the
    /// harness's own op and round spans).
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this call belongs to (spans of one op share it).
    pub op: u64,
    /// Allocator calls made while the span was open.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall duration, ms.
    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is
/// off, so an untraced pass carries no per-span state.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has no duration"]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the allocator reading at open.
    stack: Vec<(usize, AllocSnapshot)>,
    op: u64,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts the next op: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span around a call into `layer`.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().map(|&(i, _)| i),
            op: self.op,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push((index, AllocSnapshot::now()));
        Open(Some(index))
    }

    /// Closes a span. Spans close innermost-first.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span — a bug in the
    /// calling workload.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let (top, at_open) = self.stack.pop().expect("end without begin");
        assert_eq!(top, index, "spans must close innermost-first");
        let delta = AllocSnapshot::now().since(at_open);
        let now = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = now;
        span.allocs = delta.allocs;
        span.alloc_bytes = delta.bytes;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The op most recently started.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Durations (ms) of every span with this layer and name recorded
    /// by ops numbered `from_op` or later.
    pub fn durations_ms(&self, layer: &str, name: &str, from_op: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && s.op >= from_op)
            .map(Span::duration_ms)
            .collect()
    }
}

/// Self time of every span, ns: its duration minus the part of that
/// interval its direct children cover. Summed over a tree, self times
/// give back the root's duration exactly.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if end > start {
                covered[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut covered)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut child_ns = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    child_ns += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - child_ns
        })
        .collect()
}

/// Total self time per layer, ns, in first-appearance order.
pub fn self_ns_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(layer, _)| *layer == span.layer) {
            Some((_, total)) => *total += self_ns,
            None => out.push((span.layer, self_ns)),
        }
    }
    out
}

/// Renders the spans as Chrome trace-event JSON (complete `"X"` events,
/// microsecond timestamps) — opens in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (span, self_ns)) in spans.iter().zip(&self_ns).enumerate() {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\
             \"self_us\":{:.3},\"allocs\":{},\"alloc_bytes\":{}}}}}{}\n",
            span.name,
            span.layer,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.op,
            *self_ns as f64 / 1e3,
            span.allocs,
            span.alloc_bytes,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(tracer: &mut Tracer, layer: &'static str, name: &'static str, spins: u64) {
        let open = tracer.begin(layer, name);
        let mut x = 0u64;
        for i in 0..spins {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        tracer.end(open);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut tracer = Tracer::new(true);
        tracer.next_op();
        let root = tracer.begin("perfbench", "op");
        busy(&mut tracer, "criu", "read_images", 20_000);
        let mid = tracer.begin("core", "start");
        busy(&mut tracer, "criu", "restore_set", 10_000);
        busy(&mut tracer, "runtime", "attach", 10_000);
        tracer.end(mid);
        busy(&mut tracer, "runtime", "handle", 5_000);
        tracer.end(root);

        let spans = tracer.spans();
        assert_eq!(spans.len(), 6);
        let total: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(
            total,
            spans[0].duration_ns(),
            "self times partition the root"
        );
        let by_layer: u64 = self_ns_by_layer(spans).iter().map(|&(_, ns)| ns).sum();
        assert_eq!(by_layer, spans[0].duration_ns());
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.op == 1));
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let span = |start_ns, end_ns, parent| Span {
            name: "x",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            op: 0,
            allocs: 0,
            alloc_bytes: 0,
        };
        // Children cover [10,60) and [40,80) of a [0,100) parent.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::new(false);
        busy(&mut tracer, "criu", "read_images", 10);
        assert!(tracer.spans().is_empty());
        assert!(!tracer.on());
    }

    #[test]
    fn spans_carry_allocation_deltas() {
        let mut tracer = Tracer::new(true);
        let open = tracer.begin("perfbench", "alloc");
        let v: Vec<u8> = vec![1; 4096];
        tracer.end(open);
        assert_eq!(v.len(), 4096);
        let span = &tracer.spans()[0];
        assert!(span.allocs >= 1 && span.alloc_bytes >= 4096);
    }

    #[test]
    fn chrome_trace_parses_as_json() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("perfbench", "op");
        busy(&mut tracer, "criu", "read_images", 100);
        tracer.end(root);
        let json = chrome_trace_json(tracer.spans());
        let doc = prebake_bench::json::parse(&json).expect("valid json");
        let Some(prebake_bench::json::Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("cat"),
            Some(&prebake_bench::json::Value::Str("criu".to_owned()))
        );
    }
}
