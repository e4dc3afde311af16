//! Prometheus-style platform metrics.
//!
//! OpenFaaS scales on alerts fired from gateway metrics; this module
//! provides the counters/gauges/histograms the autoscaler and the
//! experiment reports consume, plus a text rendering in the Prometheus
//! exposition format.

use std::collections::BTreeMap;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A simple latency histogram with fixed millisecond buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&[
            1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
        ])
    }
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation (milliseconds).
    pub fn observe(&mut self, value_ms: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value_ms <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value_ms;
        self.total += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The configured bucket upper bounds (exclusive of `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// overflow bucket, so the slice is one longer than
    /// [`Histogram::bounds`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Folds another histogram's observations into this one, so per-trial
    /// histograms aggregate into run totals without re-observing raw
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms were built with different bucket
    /// bounds — merging those would silently misbucket observations.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.total += other.total;
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Approximate quantile from bucket boundaries (upper bound of the
    /// bucket containing the quantile).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    f64::INFINITY
                };
            }
        }
        f64::INFINITY
    }
}

/// Per-function metrics.
#[derive(Debug, Clone, Default)]
pub struct FunctionMetrics {
    /// Requests routed to the function.
    pub requests: Counter,
    /// Requests that had to wait for a cold start.
    pub cold_starts: Counter,
    /// Replicas started.
    pub replicas_started: Counter,
    /// Replicas garbage-collected after idling.
    pub replicas_reaped: Counter,
    /// Replicas that crashed and were replaced by the watchdog.
    pub(crate) replica_failures: Counter,
    /// Requests that completed with an application error (HTTP 5xx).
    pub(crate) request_errors: Counter,
    /// End-to-end latency (queueing + service), ms.
    pub latency: Histogram,
    /// Cold-start start-up time, ms.
    pub startup: Histogram,
    /// Start-up time of prebake (restore-path) cold starts only, ms —
    /// the `prebake_restore_ms` series.
    pub(crate) restore_ms: Histogram,
    /// Major page faults observed during restore-path start windows.
    pub(crate) restore_major_faults: Counter,
    /// Minor page faults observed during restore-path start windows.
    pub(crate) restore_minor_faults: Counter,
    /// Copy-on-write breaks observed during restore-path start windows.
    pub(crate) restore_cow_breaks: Counter,
    /// Extent runs vectored in during restore-path start windows
    /// (scatter-gather copies, CoW run maps, prefetch runs).
    pub(crate) restore_extents: Counter,
    /// Page faults avoided by fault-around batching during restore-path
    /// start windows (neighbour pages serviced without their own trap).
    pub(crate) restore_faults_avoided: Counter,
    /// Install shards restore-path cold starts ran with (1 per serial
    /// restore; parallel restores add their fan-out).
    pub restore_shards: Counter,
    /// Payload bytes the prefetch read streamed instead of seeking for,
    /// summed over restore-path cold starts (non-zero once images are
    /// laid out in fault order).
    pub(crate) restore_seek_bytes_avoided: Counter,
    /// Stored pages restores found compacted into the fallback layer,
    /// summed over restore-path cold starts.
    pub(crate) restore_pages_compacted: Counter,
}

/// The platform metric registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    functions: BTreeMap<String, FunctionMetrics>,
}

impl Metrics {
    /// Creates an empty registry.
    pub(crate) fn new() -> Metrics {
        Metrics::default()
    }

    /// Metrics for `name`, created on first use.
    pub(crate) fn function(&mut self, name: &str) -> &mut FunctionMetrics {
        self.functions.entry(name.to_owned()).or_default()
    }

    /// Read-only view, if the function has metrics.
    pub fn get(&self, name: &str) -> Option<&FunctionMetrics> {
        self.functions.get(name)
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// counters as single samples, histograms as full expositions —
    /// cumulative `_bucket{le="..."}` rows up to `le="+Inf"`, then
    /// `_sum` and `_count`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.functions {
            out.push_str(&format!(
                "faas_requests_total{{function=\"{name}\"}} {}\n",
                m.requests.get()
            ));
            out.push_str(&format!(
                "faas_cold_starts_total{{function=\"{name}\"}} {}\n",
                m.cold_starts.get()
            ));
            out.push_str(&format!(
                "faas_replicas_started_total{{function=\"{name}\"}} {}\n",
                m.replicas_started.get()
            ));
            out.push_str(&format!(
                "faas_replicas_reaped_total{{function=\"{name}\"}} {}\n",
                m.replicas_reaped.get()
            ));
            out.push_str(&format!(
                "faas_replica_failures_total{{function=\"{name}\"}} {}\n",
                m.replica_failures.get()
            ));
            out.push_str(&format!(
                "faas_request_errors_total{{function=\"{name}\"}} {}\n",
                m.request_errors.get()
            ));
            out.push_str(&format!(
                "faas_latency_ms_mean{{function=\"{name}\"}} {:.3}\n",
                m.latency.mean()
            ));
            let labels = format!("function=\"{name}\"");
            render_histogram(&mut out, "faas_latency_ms", &labels, &m.latency);
            render_histogram(&mut out, "faas_startup_ms", &labels, &m.startup);
            render_histogram(&mut out, "prebake_restore_ms", &labels, &m.restore_ms);
            out.push_str(&format!(
                "prebake_restore_major_faults_total{{function=\"{name}\"}} {}\n",
                m.restore_major_faults.get()
            ));
            out.push_str(&format!(
                "prebake_restore_minor_faults_total{{function=\"{name}\"}} {}\n",
                m.restore_minor_faults.get()
            ));
            out.push_str(&format!(
                "prebake_restore_cow_breaks_total{{function=\"{name}\"}} {}\n",
                m.restore_cow_breaks.get()
            ));
            out.push_str(&format!(
                "prebake_restore_extents_total{{function=\"{name}\"}} {}\n",
                m.restore_extents.get()
            ));
            out.push_str(&format!(
                "prebake_restore_faults_avoided_total{{function=\"{name}\"}} {}\n",
                m.restore_faults_avoided.get()
            ));
            out.push_str(&format!(
                "prebake_restore_shards_total{{function=\"{name}\"}} {}\n",
                m.restore_shards.get()
            ));
            out.push_str(&format!(
                "prebake_restore_seek_bytes_avoided_total{{function=\"{name}\"}} {}\n",
                m.restore_seek_bytes_avoided.get()
            ));
            out.push_str(&format!(
                "prebake_restore_pages_compacted_total{{function=\"{name}\"}} {}\n",
                m.restore_pages_compacted.get()
            ));
        }
        out
    }
}

/// Formats a bucket bound the way Prometheus clients conventionally do:
/// integral bounds without a trailing `.0` (`le="100"`), fractional ones
/// as-is (`le="0.5"`).
pub fn fmt_le(bound: f64) -> String {
    if bound == bound.trunc() {
        format!("{}", bound as i64)
    } else {
        format!("{bound}")
    }
}

/// Appends one histogram's full exposition: cumulative buckets including
/// `+Inf`, then `_sum` and `_count` (which equals the `+Inf` bucket).
///
/// `labels` is the pre-rendered label pairs without braces (e.g.
/// `function="echo"` or `tenant="a",node="0"`); pass `""` for an
/// unlabelled series. This is the one histogram encoder shared by the
/// platform gateway, the fleet scheduler, and the obs recorder so every
/// exposition in the workspace agrees on bucket/`le` formatting.
pub fn render_histogram(out: &mut String, metric: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let brace = |inner: &str| -> String {
        if labels.is_empty() && inner.is_empty() {
            String::new()
        } else if inner.is_empty() {
            format!("{{{labels}}}")
        } else {
            format!("{{{labels}{sep}{inner}}}")
        }
    };
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds().iter().zip(h.bucket_counts()) {
        cumulative += count;
        out.push_str(&format!(
            "{metric}_bucket{} {cumulative}\n",
            brace(&format!("le=\"{}\"", fmt_le(*bound)))
        ));
    }
    out.push_str(&format!(
        "{metric}_bucket{} {}\n",
        brace("le=\"+Inf\""),
        h.count()
    ));
    out.push_str(&format!("{metric}_sum{} {:.3}\n", brace(""), h.sum()));
    out.push_str(&format!("{metric}_count{} {}\n", brace(""), h.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_behaviour() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_mean_and_count() {
        let mut h = Histogram::default();
        for v in [10.0, 20.0, 30.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_bracket() {
        let mut h = Histogram::new(&[10.0, 100.0, 1000.0]);
        for _ in 0..90 {
            h.observe(5.0);
        }
        for _ in 0..10 {
            h.observe(500.0);
        }
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(0.99), 1000.0);
        assert_eq!(h.quantile(0.0), 10.0);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(99.0);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        Histogram::new(&[5.0, 1.0]);
    }

    #[test]
    fn merge_folds_counts_sum_and_total() {
        let mut a = Histogram::new(&[10.0, 100.0]);
        let mut b = Histogram::new(&[10.0, 100.0]);
        a.observe(5.0);
        b.observe(50.0);
        b.observe(500.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
        assert!((a.sum() - 555.0).abs() < 1e-9);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new(&[10.0, 100.0]));
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    /// Parses `metric_bucket{...,le="..."} value` rows of one series out
    /// of an exposition.
    fn buckets_of<'t>(text: &'t str, metric: &str, function: &str) -> Vec<(&'t str, u64)> {
        let prefix = format!("{metric}_bucket{{function=\"{function}\",le=\"");
        text.lines()
            .filter_map(|line| {
                let rest = line.strip_prefix(&prefix)?;
                let (le, value) = rest.split_once("\"} ")?;
                Some((le, value.parse().ok()?))
            })
            .collect()
    }

    fn series_value(text: &str, series: &str) -> Option<f64> {
        text.lines()
            .find_map(|l| l.strip_prefix(series).and_then(|r| r.trim().parse().ok()))
    }

    #[test]
    fn render_is_valid_prometheus_histogram_exposition() {
        let mut m = Metrics::new();
        {
            let f = m.function("fn");
            for v in [0.5, 7.0, 30.0, 30.0, 5000.0] {
                f.latency.observe(v);
            }
            f.startup.observe(42.0);
            f.restore_ms.observe(13.0);
            f.request_errors.inc();
        }
        let text = m.render();

        for (metric, expected_count) in [
            ("faas_latency_ms", 5),
            ("faas_startup_ms", 1),
            ("prebake_restore_ms", 1),
        ] {
            let buckets = buckets_of(&text, metric, "fn");
            assert!(!buckets.is_empty(), "{metric} has bucket rows");
            assert_eq!(buckets.last().unwrap().0, "+Inf");
            // Bucket counts are cumulative (non-decreasing).
            assert!(
                buckets.windows(2).all(|w| w[0].1 <= w[1].1),
                "{metric} buckets cumulative: {buckets:?}"
            );
            // `le` bounds carry no trailing `.0` (integral formatting).
            assert!(
                buckets.iter().all(|(le, _)| !le.ends_with(".0")),
                "{metric} le formatting: {buckets:?}"
            );
            // `_count` equals the `+Inf` bucket.
            let count = series_value(&text, &format!("{metric}_count{{function=\"fn\"}}"))
                .expect("count rendered");
            assert_eq!(count as u64, buckets.last().unwrap().1);
            assert_eq!(count as u64, expected_count);
            assert!(
                series_value(&text, &format!("{metric}_sum{{function=\"fn\"}}")).is_some(),
                "{metric}_sum rendered"
            );
        }
        assert!(
            (series_value(&text, "faas_latency_ms_sum{function=\"fn\"}").unwrap() - 5067.5).abs()
                < 1e-6
        );
        assert!(text.contains("faas_request_errors_total{function=\"fn\"} 1"));
        assert!(text.contains("prebake_restore_major_faults_total{function=\"fn\"} 0"));

        // Every line is `name{labels} value` with a parseable value.
        for line in text.lines() {
            let (_, value) = line.rsplit_once(' ').expect("space-separated sample");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        }
    }

    #[test]
    fn extent_restore_counters_render() {
        let mut m = Metrics::new();
        m.function("fn").restore_extents.add(5);
        m.function("fn").restore_faults_avoided.add(12);
        let text = m.render();
        assert!(text.contains("prebake_restore_extents_total{function=\"fn\"} 5"));
        assert!(text.contains("prebake_restore_faults_avoided_total{function=\"fn\"} 12"));
    }

    #[test]
    fn parallel_and_layout_counters_render() {
        let mut m = Metrics::new();
        m.function("fn").restore_shards.add(4);
        m.function("fn").restore_seek_bytes_avoided.add(1 << 20);
        m.function("fn").restore_pages_compacted.add(7);
        let text = m.render();
        assert!(text.contains("prebake_restore_shards_total{function=\"fn\"} 4"));
        assert!(text.contains("prebake_restore_seek_bytes_avoided_total{function=\"fn\"} 1048576"));
        assert!(text.contains("prebake_restore_pages_compacted_total{function=\"fn\"} 7"));
    }

    #[test]
    fn shared_encoder_handles_unlabelled_and_multi_label_series() {
        let mut h = Histogram::new(&[1.0, 2.5]);
        h.observe(0.5);
        h.observe(2.0);

        let mut bare = String::new();
        render_histogram(&mut bare, "m_ms", "", &h);
        assert!(bare.contains("m_ms_bucket{le=\"1\"} 1\n"));
        assert!(bare.contains("m_ms_bucket{le=\"2.5\"} 2\n"));
        assert!(bare.contains("m_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(bare.contains("m_ms_sum 2.500\n"));
        assert!(bare.contains("m_ms_count 2\n"));

        let mut labelled = String::new();
        render_histogram(&mut labelled, "m_ms", "tenant=\"a\",node=\"0\"", &h);
        assert!(labelled.contains("m_ms_bucket{tenant=\"a\",node=\"0\",le=\"1\"} 1\n"));
        assert!(labelled.contains("m_ms_sum{tenant=\"a\",node=\"0\"} 2.500\n"));
        assert!(labelled.contains("m_ms_count{tenant=\"a\",node=\"0\"} 2\n"));
    }

    #[test]
    fn render_prometheus_format() {
        let mut m = Metrics::new();
        m.function("noop").requests.add(3);
        m.function("noop").latency.observe(12.0);
        let text = m.render();
        assert!(text.contains("faas_requests_total{function=\"noop\"} 3"));
        assert!(text.contains("faas_latency_ms_count{function=\"noop\"} 1"));
        assert!(m.get("noop").is_some());
        assert!(m.get("ghost").is_none());
    }
}
