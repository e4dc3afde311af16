//! Fleet-level Prometheus metrics.
//!
//! Reuses the platform's [`Counter`]/[`Histogram`] primitives so fleet
//! series render in the same exposition format the gateway exports.

use prebake_platform::metrics::{render_histogram, Counter, Histogram};

use crate::profile::Gear;

/// Scheduler-level counters and latency distributions.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Requests admitted to the fleet.
    pub requests: Counter,
    /// Admitted requests that waited on a cold start.
    pub cold_starts: Counter,
    /// Arrivals shed by admission control (queue over capacity).
    pub shed: Counter,
    /// Idle replicas evicted early under memory pressure.
    pub evictions: Counter,
    /// Idle replicas expired by their keep-alive TTL.
    pub expirations: Counter,
    /// Replicas started predictively by the pre-warm policy.
    pub prewarm_starts: Counter,
    /// Replica starts of any kind.
    pub replicas_started: Counter,
    /// Bytes pulled from the snapshot registry over the network.
    pub registry_egress_bytes: Counter,
    /// Bytes satisfied node-locally instead of fetched (frame dedup +
    /// whole-image cache hits).
    pub registry_dedup_bytes: Counter,
    /// Image pulls fully satisfied by the node cache.
    pub pull_cache_hits: Counter,
    /// Images pushed to predicted nodes ahead of demand.
    pub prepulls: Counter,
    /// Arrival → dispatch queueing delay, ms.
    pub queue_delay: Histogram,
    /// Arrival → completion latency, ms.
    pub latency: Histogram,
    /// Arrival → completion latency split by serving gear, ms. One
    /// pre-registered slot per [`Gear::ALL`] entry (indexed by
    /// `Gear::index`), so the serve path never allocates or probes a
    /// map to find its histogram.
    pub latency_by_gear: [Histogram; Gear::ALL.len()],
    /// Arrival → completion latency of cold-served requests only, ms —
    /// the distribution scale runs read cold-start p99 from without
    /// retaining per-request rows.
    pub cold_latency: Histogram,
    /// Cold-start time spent waiting on registry pulls, ms.
    pub pull_wait: Histogram,
}

/// Latency buckets wide enough for cold starts behind deep queues.
/// Shared with the obs recorder so windowed series merge with fleet
/// aggregates without rebucketing.
pub const LATENCY_BOUNDS_MS: [f64; 12] = [
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0,
];

impl Default for FleetMetrics {
    fn default() -> Self {
        FleetMetrics {
            requests: Counter::default(),
            cold_starts: Counter::default(),
            shed: Counter::default(),
            evictions: Counter::default(),
            expirations: Counter::default(),
            prewarm_starts: Counter::default(),
            replicas_started: Counter::default(),
            registry_egress_bytes: Counter::default(),
            registry_dedup_bytes: Counter::default(),
            pull_cache_hits: Counter::default(),
            prepulls: Counter::default(),
            queue_delay: Histogram::new(&LATENCY_BOUNDS_MS),
            latency: Histogram::new(&LATENCY_BOUNDS_MS),
            latency_by_gear: std::array::from_fn(|_| Histogram::new(&LATENCY_BOUNDS_MS)),
            cold_latency: Histogram::new(&LATENCY_BOUNDS_MS),
            pull_wait: Histogram::new(&LATENCY_BOUNDS_MS),
        }
    }
}

impl FleetMetrics {
    /// Records one served request: aggregate + per-gear latency, and the
    /// cold-only split when the request waited on a cold start. The gear
    /// slot is pre-registered, so this is allocation-free.
    pub(crate) fn observe_latency(&mut self, gear: Gear, latency_ms: f64, cold: bool) {
        self.latency.observe(latency_ms);
        self.latency_by_gear[gear.index()].observe(latency_ms);
        if cold {
            self.cold_latency.observe(latency_ms);
        }
    }

    /// Folds another metrics block into this one — the shard-merge path.
    /// Counters add; histograms merge bucket-wise (shared bounds).
    pub(crate) fn merge(&mut self, other: &FleetMetrics) {
        self.requests.add(other.requests.get());
        self.cold_starts.add(other.cold_starts.get());
        self.shed.add(other.shed.get());
        self.evictions.add(other.evictions.get());
        self.expirations.add(other.expirations.get());
        self.prewarm_starts.add(other.prewarm_starts.get());
        self.replicas_started.add(other.replicas_started.get());
        self.registry_egress_bytes
            .add(other.registry_egress_bytes.get());
        self.registry_dedup_bytes
            .add(other.registry_dedup_bytes.get());
        self.pull_cache_hits.add(other.pull_cache_hits.get());
        self.prepulls.add(other.prepulls.get());
        self.queue_delay.merge(&other.queue_delay);
        self.latency.merge(&other.latency);
        for (mine, theirs) in self.latency_by_gear.iter_mut().zip(&other.latency_by_gear) {
            mine.merge(theirs);
        }
        self.cold_latency.merge(&other.cold_latency);
        self.pull_wait.merge(&other.pull_wait);
    }

    /// Fraction of admitted requests that waited on a cold start.
    pub fn cold_fraction(&self) -> f64 {
        if self.requests.get() == 0 {
            0.0
        } else {
            self.cold_starts.get() as f64 / self.requests.get() as f64
        }
    }

    /// Renders the fleet series in the Prometheus text exposition format;
    /// `worker_high_water` adds one gauge row per worker.
    pub(crate) fn render(&self, worker_high_water: &[u64]) -> String {
        let mut out = String::new();
        for (name, value) in [
            ("fleet_requests_total", self.requests.get()),
            ("fleet_cold_starts_total", self.cold_starts.get()),
            ("fleet_shed_total", self.shed.get()),
            ("fleet_evictions_total", self.evictions.get()),
            ("fleet_expirations_total", self.expirations.get()),
            ("fleet_prewarm_starts_total", self.prewarm_starts.get()),
            ("fleet_replicas_started_total", self.replicas_started.get()),
            (
                "fleet_registry_egress_bytes_total",
                self.registry_egress_bytes.get(),
            ),
            (
                "fleet_registry_dedup_bytes_total",
                self.registry_dedup_bytes.get(),
            ),
            ("fleet_pull_cache_hits_total", self.pull_cache_hits.get()),
            ("fleet_prepulls_total", self.prepulls.get()),
        ] {
            out.push_str(&format!("{name} {value}\n"));
        }
        render_histogram(&mut out, "fleet_queue_delay_ms", "", &self.queue_delay);
        render_histogram(&mut out, "fleet_latency_ms", "", &self.latency);
        for (gear, h) in Gear::ALL.iter().zip(&self.latency_by_gear) {
            if h.count() > 0 {
                let labels = format!("gear=\"{}\"", gear.label());
                render_histogram(&mut out, "fleet_gear_latency_ms", &labels, h);
            }
        }
        render_histogram(&mut out, "fleet_cold_latency_ms", "", &self.cold_latency);
        render_histogram(&mut out, "fleet_pull_wait_ms", "", &self.pull_wait);
        for (worker, hw) in worker_high_water.iter().enumerate() {
            out.push_str(&format!(
                "fleet_worker_mem_high_water_bytes{{worker=\"{worker}\"}} {hw}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_fraction_handles_empty() {
        let m = FleetMetrics::default();
        assert_eq!(m.cold_fraction(), 0.0);
    }

    #[test]
    fn observe_latency_feeds_gear_and_cold_splits() {
        let mut m = FleetMetrics::default();
        m.observe_latency(Gear::Cow, 12.0, true);
        m.observe_latency(Gear::Cow, 3.0, false);
        m.observe_latency(Gear::Vanilla, 700.0, true);
        assert_eq!(m.latency.count(), 3);
        assert_eq!(m.latency_by_gear[Gear::Cow.index()].count(), 2);
        assert_eq!(m.latency_by_gear[Gear::Vanilla.index()].count(), 1);
        assert_eq!(m.cold_latency.count(), 2);
        let text = m.render(&[]);
        assert!(text.contains("fleet_gear_latency_ms_count{gear=\"cow\"} 2"));
        assert!(text.contains("fleet_gear_latency_ms_count{gear=\"vanilla\"} 1"));
        assert!(!text.contains("gear=\"lazy\""), "empty gears stay silent");
        assert!(text.contains("fleet_cold_latency_ms_count 2"));
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = FleetMetrics::default();
        a.requests.add(2);
        a.observe_latency(Gear::Eager, 5.0, false);
        let mut b = FleetMetrics::default();
        b.requests.add(3);
        b.cold_starts.add(1);
        b.observe_latency(Gear::Eager, 50.0, true);
        b.queue_delay.observe(1.0);
        a.merge(&b);
        assert_eq!(a.requests.get(), 5);
        assert_eq!(a.cold_starts.get(), 1);
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency_by_gear[Gear::Eager.index()].count(), 2);
        assert_eq!(a.cold_latency.count(), 1);
        assert_eq!(a.queue_delay.count(), 1);
    }

    #[test]
    fn render_includes_every_series() {
        let mut m = FleetMetrics::default();
        m.requests.add(10);
        m.cold_starts.add(3);
        m.queue_delay.observe(2.0);
        m.latency.observe(120.0);
        m.registry_egress_bytes.add(7);
        let text = m.render(&[512, 1024]);
        assert!(text.contains("fleet_requests_total 10"));
        assert!(text.contains("fleet_cold_starts_total 3"));
        assert!(text.contains("fleet_latency_ms_count 1"));
        assert!(text.contains("fleet_queue_delay_ms_bucket{le=\"+Inf\"} 1"));
        // Byte counters carry the `_total` suffix (unit before suffix) and
        // the shared encoder renders integral bounds without `.0`.
        assert!(text.contains("fleet_registry_egress_bytes_total 7"));
        assert!(text.contains("fleet_registry_dedup_bytes_total 0"));
        assert!(text.contains("fleet_queue_delay_ms_bucket{le=\"2.5\"} 1"));
        assert!(text.contains("fleet_latency_ms_bucket{le=\"250\"} 1"));
        assert!(text.contains("fleet_worker_mem_high_water_bytes{worker=\"0\"} 512"));
        assert!(text.contains("fleet_worker_mem_high_water_bytes{worker=\"1\"} 1024"));
        assert!((m.cold_fraction() - 0.3).abs() < 1e-9);
        // Every line parses as `name{labels} value`.
        for line in text.lines() {
            let (_, value) = line.rsplit_once(' ').expect("space-separated sample");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        }
    }
}
