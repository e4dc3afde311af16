//! Gateway-level Prometheus metrics.
//!
//! The `gateway_*` series: admission outcomes, result-cache outcomes,
//! queue-depth and time-to-first-chunk distributions. Reuses the
//! platform's [`Counter`]/[`Histogram`] primitives so everything
//! renders in the same exposition format, and merges per-shard blocks
//! the way [`FleetMetrics`] does.
//!
//! [`FleetMetrics`]: ../prebake_fleet/metrics/struct.FleetMetrics.html

use std::collections::BTreeMap;

use prebake_platform::metrics::{render_histogram, Counter, Histogram};

/// TTFC / cached-path buckets: finer than the fleet latency bounds
/// below 10ms, because the cached path and the prefetch first chunk
/// both live there.
pub(crate) const GATEWAY_BOUNDS_MS: [f64; 14] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1_000.0, 10_000.0,
];

/// Queue-depth buckets (entries, not milliseconds).
pub(crate) const QUEUE_DEPTH_BOUNDS: [f64; 10] =
    [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1_024.0, 4_096.0];

/// Counters and distributions for one gateway (or one fleet shard's
/// gateway frontier; shards merge at fold).
#[derive(Debug, Clone)]
pub struct GatewayMetrics {
    /// Everything offered to the gateway.
    pub arrivals: Counter,
    /// Arrivals admitted to the backend (immediately or after queueing).
    pub admitted: Counter,
    /// Arrivals that waited in the admission queue before admission.
    pub deferred: Counter,
    /// Arrivals shed at the gateway (admission queue full).
    pub shed_backpressure: Counter,
    /// Admitted arrivals the backend refused (downstream queue cap);
    /// reclassified as shed.
    pub shed_downstream: Counter,
    /// Cache lookups answered at the edge.
    pub cache_hits: Counter,
    /// Cache lookups that found nothing.
    pub cache_misses: Counter,
    /// Cache lookups that found an expired entry.
    pub cache_stale: Counter,
    /// Values stored in the cache.
    pub cache_insertions: Counter,
    /// Entries evicted by the capacity bound.
    pub cache_evictions: Counter,
    /// Response chunks streamed.
    pub chunks: Counter,
    /// Admission-queue depth sampled at each arrival.
    pub queue_depth: Histogram,
    /// Time to first chunk, backend-served requests, ms.
    pub ttfc_ms: Histogram,
    /// Time to first chunk, cold backend-served requests only, ms — the
    /// split the gear comparison reads (warm TTFC is gear-independent).
    pub ttfc_cold_ms: Histogram,
    /// Time to first chunk split by serving gear, ms. Keyed by gear
    /// label so this crate stays independent of the fleet's gear enum.
    pub ttfc_by_gear: BTreeMap<&'static str, Histogram>,
    /// Edge-serve latency of cache hits, ms.
    pub cached_serve_ms: Histogram,
    /// Slowest cache hit observed, ms — the `<10ms cached path`
    /// assertion reads this directly.
    pub cached_serve_max_ms: f64,
}

impl Default for GatewayMetrics {
    fn default() -> Self {
        GatewayMetrics {
            arrivals: Counter::default(),
            admitted: Counter::default(),
            deferred: Counter::default(),
            shed_backpressure: Counter::default(),
            shed_downstream: Counter::default(),
            cache_hits: Counter::default(),
            cache_misses: Counter::default(),
            cache_stale: Counter::default(),
            cache_insertions: Counter::default(),
            cache_evictions: Counter::default(),
            chunks: Counter::default(),
            queue_depth: Histogram::new(&QUEUE_DEPTH_BOUNDS),
            ttfc_ms: Histogram::new(&GATEWAY_BOUNDS_MS),
            ttfc_cold_ms: Histogram::new(&GATEWAY_BOUNDS_MS),
            ttfc_by_gear: BTreeMap::new(),
            cached_serve_ms: Histogram::new(&GATEWAY_BOUNDS_MS),
            cached_serve_max_ms: 0.0,
        }
    }
}

impl GatewayMetrics {
    /// Records one backend-served first chunk: aggregate, cold split,
    /// and the per-gear histogram (created on first use per label).
    pub fn observe_ttfc(&mut self, gear: &'static str, ttfc_ms: f64, cold: bool) {
        self.ttfc_ms.observe(ttfc_ms);
        if cold {
            self.ttfc_cold_ms.observe(ttfc_ms);
        }
        self.ttfc_by_gear
            .entry(gear)
            .or_insert_with(|| Histogram::new(&GATEWAY_BOUNDS_MS))
            .observe(ttfc_ms);
    }

    /// Records one edge-served cache hit.
    pub fn observe_cached(&mut self, serve_ms: f64) {
        self.cached_serve_ms.observe(serve_ms);
        if serve_ms > self.cached_serve_max_ms {
            self.cached_serve_max_ms = serve_ms;
        }
    }

    /// Total shed (backpressure + downstream).
    pub fn shed(&self) -> u64 {
        self.shed_backpressure.get() + self.shed_downstream.get()
    }

    /// Hits over cacheable lookups (hits + misses + stale); 0 when the
    /// cache saw no traffic.
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits.get() + self.cache_misses.get() + self.cache_stale.get();
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits.get() as f64 / lookups as f64
        }
    }

    /// Folds another block into this one — the shard-merge path.
    pub fn merge(&mut self, other: &GatewayMetrics) {
        self.arrivals.add(other.arrivals.get());
        self.admitted.add(other.admitted.get());
        self.deferred.add(other.deferred.get());
        self.shed_backpressure.add(other.shed_backpressure.get());
        self.shed_downstream.add(other.shed_downstream.get());
        self.cache_hits.add(other.cache_hits.get());
        self.cache_misses.add(other.cache_misses.get());
        self.cache_stale.add(other.cache_stale.get());
        self.cache_insertions.add(other.cache_insertions.get());
        self.cache_evictions.add(other.cache_evictions.get());
        self.chunks.add(other.chunks.get());
        self.queue_depth.merge(&other.queue_depth);
        self.ttfc_ms.merge(&other.ttfc_ms);
        self.ttfc_cold_ms.merge(&other.ttfc_cold_ms);
        for (gear, h) in &other.ttfc_by_gear {
            self.ttfc_by_gear
                .entry(gear)
                .or_insert_with(|| Histogram::new(&GATEWAY_BOUNDS_MS))
                .merge(h);
        }
        self.cached_serve_ms.merge(&other.cached_serve_ms);
        if other.cached_serve_max_ms > self.cached_serve_max_ms {
            self.cached_serve_max_ms = other.cached_serve_max_ms;
        }
    }

    /// Renders the `gateway_*` series in the Prometheus text exposition
    /// format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in [
            ("gateway_arrivals_total", self.arrivals.get()),
            ("gateway_admitted_total", self.admitted.get()),
            ("gateway_deferred_total", self.deferred.get()),
            ("gateway_cache_hits_total", self.cache_hits.get()),
            ("gateway_cache_misses_total", self.cache_misses.get()),
            ("gateway_cache_stale_total", self.cache_stale.get()),
            (
                "gateway_cache_insertions_total",
                self.cache_insertions.get(),
            ),
            ("gateway_cache_evictions_total", self.cache_evictions.get()),
            ("gateway_chunks_total", self.chunks.get()),
        ] {
            out.push_str(&format!("{name} {value}\n"));
        }
        out.push_str(&format!(
            "gateway_shed_total{{reason=\"backpressure\"}} {}\n",
            self.shed_backpressure.get()
        ));
        out.push_str(&format!(
            "gateway_shed_total{{reason=\"downstream\"}} {}\n",
            self.shed_downstream.get()
        ));
        render_histogram(&mut out, "gateway_queue_depth", "", &self.queue_depth);
        render_histogram(&mut out, "gateway_ttfc_ms", "", &self.ttfc_ms);
        render_histogram(&mut out, "gateway_ttfc_cold_ms", "", &self.ttfc_cold_ms);
        for (gear, h) in &self.ttfc_by_gear {
            if h.count() > 0 {
                let labels = format!("gear=\"{gear}\"");
                render_histogram(&mut out, "gateway_gear_ttfc_ms", &labels, h);
            }
        }
        render_histogram(
            &mut out,
            "gateway_cached_serve_ms",
            "",
            &self.cached_serve_ms,
        );
        out.push_str(&format!(
            "gateway_cached_serve_max_ms {}\n",
            self.cached_serve_max_ms
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_ttfc_feeds_cold_and_gear_splits() {
        let mut m = GatewayMetrics::default();
        m.observe_ttfc("prefetch", 4.0, true);
        m.observe_ttfc("prefetch", 0.4, false);
        m.observe_ttfc("eager", 60.0, true);
        assert_eq!(m.ttfc_ms.count(), 3);
        assert_eq!(m.ttfc_cold_ms.count(), 2);
        assert_eq!(m.ttfc_by_gear["prefetch"].count(), 2);
        assert_eq!(m.ttfc_by_gear["eager"].count(), 1);
    }

    #[test]
    fn cached_max_tracks_and_merges() {
        let mut a = GatewayMetrics::default();
        a.observe_cached(0.5);
        a.observe_cached(0.2);
        assert_eq!(a.cached_serve_max_ms, 0.5);
        let mut b = GatewayMetrics::default();
        b.observe_cached(0.9);
        b.observe_ttfc("lazy", 2.0, true);
        a.merge(&b);
        assert_eq!(a.cached_serve_max_ms, 0.9);
        assert_eq!(a.cached_serve_ms.count(), 3);
        assert_eq!(a.ttfc_by_gear["lazy"].count(), 1);
    }

    #[test]
    fn hit_ratio_counts_only_cacheable_lookups() {
        let mut m = GatewayMetrics::default();
        assert_eq!(m.cache_hit_ratio(), 0.0);
        m.cache_hits.add(3);
        m.cache_misses.add(1);
        m.cache_stale.add(1);
        assert!((m.cache_hit_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn render_includes_every_series_and_parses() {
        let mut m = GatewayMetrics::default();
        m.arrivals.add(10);
        m.admitted.add(8);
        m.shed_backpressure.add(2);
        m.queue_depth.observe(3.0);
        m.observe_ttfc("vanilla", 120.0, true);
        m.observe_cached(0.5);
        let text = m.render();
        assert!(text.contains("gateway_arrivals_total 10"));
        assert!(text.contains("gateway_shed_total{reason=\"backpressure\"} 2"));
        assert!(text.contains("gateway_shed_total{reason=\"downstream\"} 0"));
        assert!(text.contains("gateway_ttfc_ms_count 1"));
        assert!(text.contains("gateway_gear_ttfc_ms_count{gear=\"vanilla\"} 1"));
        assert!(text.contains("gateway_cached_serve_max_ms 0.5"));
        for line in text.lines() {
            let (_, value) = line.rsplit_once(' ').expect("space-separated sample");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        }
    }
}
