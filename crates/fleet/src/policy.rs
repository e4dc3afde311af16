//! The pluggable policy engine: keep-alive × start selection.
//!
//! Keep-alive decides *how long* an idle replica survives (and whether
//! expiry triggers a predictive pre-warm); start selection decides *which
//! restore gear* a cold start uses. The two axes compose freely — the
//! `ablation_fleet` bench sweeps their cross product against the
//! vanilla-TTL baseline the "How Low Can You Go?" keep-alive literature
//! measures real platforms with.

use prebake_platform::metrics::Histogram;
use prebake_sim::time::{SimDuration, SimInstant};

use crate::profile::{FunctionProfile, Gear};

/// How long idle replicas are kept warm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeepAlive {
    /// Evict any replica idle longer than the fixed TTL (the
    /// OpenWhisk-style baseline).
    FixedTtl(SimDuration),
    /// Fixed TTL, but when a placement fails for lack of memory the
    /// worker may evict its least-recently-used idle replicas early.
    LruPressure {
        /// Idle TTL before normal expiry.
        ttl: SimDuration,
    },
    /// Per-function adaptive TTL: keep an idle replica for the given
    /// quantile of the function's observed inter-arrival distribution,
    /// clamped to `[floor, cap]` (the histogram policy of Shahrad et
    /// al.'s serverless-in-the-wild scheduler).
    Histogram {
        /// Lower clamp for the adaptive TTL.
        floor: SimDuration,
        /// Upper clamp for the adaptive TTL.
        cap: SimDuration,
        /// Inter-arrival quantile to keep alive for (e.g. 0.99).
        quantile: f64,
        /// Re-start a replica just before the predicted next arrival when
        /// expiry left the function scaled to zero.
        prewarm: bool,
    },
}

impl KeepAlive {
    /// Short label used in reports.
    pub(crate) fn label(&self) -> String {
        match self {
            KeepAlive::FixedTtl(ttl) => format!("ttl{}s", ttl.as_millis() / 1000),
            KeepAlive::LruPressure { ttl } => {
                format!("lru-ttl{}s", ttl.as_millis() / 1000)
            }
            KeepAlive::Histogram { prewarm, .. } => {
                if *prewarm {
                    "hist-prewarm".to_owned()
                } else {
                    "hist".to_owned()
                }
            }
        }
    }

    /// Whether memory pressure may evict idle replicas before their TTL.
    pub(crate) fn evicts_under_pressure(&self) -> bool {
        matches!(self, KeepAlive::LruPressure { .. })
    }

    /// Whether expiry-to-zero schedules a predictive pre-warm.
    pub(crate) fn prewarms(&self) -> bool {
        matches!(self, KeepAlive::Histogram { prewarm: true, .. })
    }
}

/// Which gear cold starts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartSelection {
    /// Always start with one gear.
    Fixed(Gear),
    /// Pick the gear with the lowest observed start-to-first-response
    /// latency from the function's profile.
    Adaptive,
}

impl StartSelection {
    /// Resolves the gear for one function.
    pub(crate) fn gear_for(&self, profile: &FunctionProfile) -> Gear {
        match self {
            StartSelection::Fixed(g) => *g,
            StartSelection::Adaptive => profile.best_gear(),
        }
    }

    /// Short label used in reports.
    pub(crate) fn label(&self) -> String {
        match self {
            StartSelection::Fixed(g) => g.label().to_owned(),
            StartSelection::Adaptive => "adaptive".to_owned(),
        }
    }
}

/// One point in the keep-alive × start-selection grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Idle-replica lifetime policy.
    pub keep_alive: KeepAlive,
    /// Cold-start gear policy.
    pub start: StartSelection,
}

impl Policy {
    /// The sweep's baseline: fixed TTL, vanilla starts.
    pub fn vanilla_baseline(ttl: SimDuration) -> Policy {
        Policy {
            keep_alive: KeepAlive::FixedTtl(ttl),
            start: StartSelection::Fixed(Gear::Vanilla),
        }
    }

    /// `keepalive×gear` label used in tables and JSON.
    pub fn label(&self) -> String {
        format!("{}x{}", self.keep_alive.label(), self.start.label())
    }
}

/// Observed inter-arrival statistics for one function: drives the
/// histogram keep-alive policy and the pre-warm predictor.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalStats {
    gaps_ms: Histogram,
    last_arrival: Option<SimInstant>,
}

/// Log-spaced gap buckets, 1 ms .. ~17 min.
const GAP_BOUNDS_MS: [f64; 11] = [
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
    1_000.0,
    4_000.0,
    16_000.0,
    64_000.0,
    256_000.0,
    1_024_000.0,
];

impl Default for ArrivalStats {
    fn default() -> Self {
        ArrivalStats::new()
    }
}

impl ArrivalStats {
    /// Empty statistics.
    pub(crate) fn new() -> ArrivalStats {
        ArrivalStats {
            gaps_ms: Histogram::new(&GAP_BOUNDS_MS),
            last_arrival: None,
        }
    }

    /// Records one arrival at `now`.
    pub(crate) fn observe(&mut self, now: SimInstant) {
        if let Some(last) = self.last_arrival {
            self.gaps_ms
                .observe(now.saturating_duration_since(last).as_millis_f64());
        }
        self.last_arrival = Some(now);
    }

    /// The idle TTL the policy grants a replica of this function.
    ///
    /// Fixed policies return their TTL; the histogram policy returns the
    /// configured inter-arrival quantile clamped to `[floor, cap]`
    /// (falling back to `cap` while fewer than two arrivals have been
    /// seen — new functions get the benefit of the doubt).
    pub(crate) fn keep_alive_for(&self, policy: &KeepAlive) -> SimDuration {
        match policy {
            KeepAlive::FixedTtl(ttl) | KeepAlive::LruPressure { ttl } => *ttl,
            KeepAlive::Histogram {
                floor,
                cap,
                quantile,
                ..
            } => {
                if self.gaps_ms.count() == 0 {
                    return *cap;
                }
                let q = self.gaps_ms.quantile(*quantile);
                if !q.is_finite() {
                    return *cap;
                }
                SimDuration::from_millis_f64(q).max(*floor).min(*cap)
            }
        }
    }

    /// Predicted instant of the next arrival: the last arrival plus the
    /// mean observed gap (the histogram tracks its sum and count exactly,
    /// so the mean has no bucket-resolution error). `None` until two
    /// arrivals have been seen.
    pub(crate) fn predicted_next_arrival(&self) -> Option<SimInstant> {
        let last = self.last_arrival?;
        if self.gaps_ms.count() == 0 {
            return None;
        }
        let gap = self.gaps_ms.mean();
        if !gap.is_finite() || gap <= 0.0 {
            return None;
        }
        Some(last + SimDuration::from_millis_f64(gap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::GearCost;

    fn stats_with_gaps(gaps_ms: &[u64]) -> ArrivalStats {
        let mut s = ArrivalStats::new();
        let mut t = SimInstant::EPOCH;
        s.observe(t);
        for &g in gaps_ms {
            t += SimDuration::from_millis(g);
            s.observe(t);
        }
        s
    }

    #[test]
    fn labels_compose() {
        let p = Policy::vanilla_baseline(SimDuration::from_secs(60));
        assert_eq!(p.label(), "ttl60sxvanilla");
        let p = Policy {
            keep_alive: KeepAlive::Histogram {
                floor: SimDuration::from_secs(1),
                cap: SimDuration::from_secs(600),
                quantile: 0.99,
                prewarm: true,
            },
            start: StartSelection::Adaptive,
        };
        assert_eq!(p.label(), "hist-prewarmxadaptive");
        let p = Policy {
            keep_alive: KeepAlive::LruPressure {
                ttl: SimDuration::from_secs(30),
            },
            start: StartSelection::Fixed(Gear::Cow),
        };
        assert_eq!(p.label(), "lru-ttl30sxcow");
        assert!(p.keep_alive.evicts_under_pressure());
        assert!(!p.keep_alive.prewarms());
    }

    #[test]
    fn fixed_ttl_ignores_observations() {
        let stats = stats_with_gaps(&[10, 10, 10]);
        let ttl = SimDuration::from_secs(60);
        assert_eq!(stats.keep_alive_for(&KeepAlive::FixedTtl(ttl)), ttl);
        assert_eq!(stats.keep_alive_for(&KeepAlive::LruPressure { ttl }), ttl);
    }

    #[test]
    fn histogram_ttl_adapts_and_clamps() {
        let policy = KeepAlive::Histogram {
            floor: SimDuration::from_millis(500),
            cap: SimDuration::from_secs(120),
            quantile: 0.99,
            prewarm: false,
        };
        // No history yet: optimistic cap.
        assert_eq!(
            ArrivalStats::new().keep_alive_for(&policy),
            SimDuration::from_secs(120)
        );
        // Tight 10ms gaps adapt down, clamped at the floor.
        let fast = stats_with_gaps(&[10; 20]);
        assert_eq!(fast.keep_alive_for(&policy), SimDuration::from_millis(500));
        // Minute-scale gaps adapt up toward (bucketised) minutes.
        let slow = stats_with_gaps(&[60_000; 20]);
        let ttl = slow.keep_alive_for(&policy);
        assert!(
            ttl >= SimDuration::from_secs(60) && ttl <= SimDuration::from_secs(120),
            "adaptive ttl {ttl}"
        );
        // Gaps beyond every bucket clamp to the cap, not +Inf.
        let huge = stats_with_gaps(&[2_000_000; 4]);
        assert_eq!(huge.keep_alive_for(&policy), SimDuration::from_secs(120));
    }

    #[test]
    fn prediction_needs_two_arrivals() {
        assert!(ArrivalStats::new().predicted_next_arrival().is_none());
        let mut one = ArrivalStats::new();
        one.observe(SimInstant::EPOCH);
        assert!(one.predicted_next_arrival().is_none());
        assert_eq!(one.gaps_ms.count(), 0);

        let stats = stats_with_gaps(&[1000, 1000, 1000]);
        let predicted = stats.predicted_next_arrival().unwrap();
        // Last arrival was t=3s; the median bucketised gap predicts t+1s.
        assert_eq!(predicted, SimInstant::EPOCH + SimDuration::from_secs(4));
        assert_eq!(stats.gaps_ms.count(), 3);
    }

    #[test]
    fn start_selection_resolves_gears() {
        let cheap_lazy = FunctionProfile::synthetic(
            "f",
            &[
                (
                    Gear::Vanilla,
                    GearCost {
                        cold_ms: 200.0,
                        first_service_ms: 10.0,
                        warm_service_ms: 1.0,
                        replica_mem_bytes: 1,
                        image_bytes: 0,
                    },
                ),
                (
                    Gear::Prefetch,
                    GearCost {
                        cold_ms: 20.0,
                        first_service_ms: 5.0,
                        warm_service_ms: 1.0,
                        replica_mem_bytes: 1,
                        image_bytes: 1,
                    },
                ),
            ],
        );
        assert_eq!(
            StartSelection::Fixed(Gear::Vanilla).gear_for(&cheap_lazy),
            Gear::Vanilla
        );
        assert_eq!(
            StartSelection::Adaptive.gear_for(&cheap_lazy),
            Gear::Prefetch
        );
        assert_eq!(StartSelection::Adaptive.label(), "adaptive");
    }
}
