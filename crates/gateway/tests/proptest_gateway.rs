//! Property tests for the gateway's two ledgers: admission conservation
//! under arbitrary offer/release/abort schedules, and result-cache
//! hit-within-TTL / miss-after-expiry behaviour against a reference
//! model.

use std::collections::BTreeMap;

use proptest::prelude::*;

use prebake_gateway::{
    AdmissionController, AdmissionOutcome, CacheConfig, CacheLookup, ResultCache,
};
use prebake_sim::time::{SimDuration, SimInstant};

/// One step of an arbitrary admission schedule, decoded from a sampled
/// byte with a 3:2:1 offer/release/abort weighting. Abort is only
/// meaningful with something in flight (the production callers abort
/// strictly after an admit); the test skips it otherwise.
#[derive(Debug, Clone, Copy)]
enum AdmissionOp {
    Offer,
    Release,
    Abort,
}

impl AdmissionOp {
    fn decode(raw: u8) -> AdmissionOp {
        match raw {
            0..=2 => AdmissionOp::Offer,
            3..=4 => AdmissionOp::Release,
            _ => AdmissionOp::Abort,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `offered == admitted + shed + queued` after every step of any
    /// interleaving, releases promote strictly FIFO, and the final
    /// ledger balances against an independent count of the outcomes.
    #[test]
    fn admission_conserves_every_arrival(
        max_inflight in 1usize..6,
        queue_cap in 0usize..6,
        raw_ops in prop::collection::vec(0u8..6, 1..200),
    ) {
        let mut ac: AdmissionController<u64> = AdmissionController::new(max_inflight, queue_cap);
        let mut seq = 0u64;
        let (mut admitted, mut shed) = (0u64, 0u64);
        let mut inflight = 0usize;
        let mut last_promoted: Option<u64> = None;
        for op in raw_ops.into_iter().map(AdmissionOp::decode) {
            match op {
                AdmissionOp::Offer => {
                    seq += 1;
                    match ac.offer(seq) {
                        AdmissionOutcome::Admitted(v) => {
                            prop_assert_eq!(v, seq, "offer hands the payload back");
                            admitted += 1;
                            inflight += 1;
                        }
                        AdmissionOutcome::Queued { depth } => {
                            prop_assert!(depth >= 1 && depth <= queue_cap);
                        }
                        AdmissionOutcome::Shed(v) => {
                            prop_assert_eq!(v, seq);
                            shed += 1;
                        }
                    }
                }
                AdmissionOp::Release => {
                    inflight = inflight.saturating_sub(1);
                    if let Some(v) = ac.release() {
                        admitted += 1;
                        inflight += 1;
                        if let Some(prev) = last_promoted {
                            prop_assert!(v > prev, "promotion must be FIFO");
                        }
                        last_promoted = Some(v);
                    }
                }
                AdmissionOp::Abort => {
                    if inflight > 0 {
                        ac.abort();
                        inflight -= 1;
                        admitted -= 1;
                        shed += 1;
                    }
                }
            }
            prop_assert!(ac.conserved(), "conservation broke: {:?}", ac.stats());
            prop_assert!(inflight <= max_inflight);
            prop_assert!(ac.stats().peak_inflight <= max_inflight);
            prop_assert!(ac.queue_depth() <= queue_cap);
        }
        let stats = ac.stats();
        prop_assert_eq!(stats.offered, seq);
        prop_assert_eq!(stats.admitted, admitted);
        prop_assert_eq!(stats.shed, shed);
        prop_assert_eq!(
            stats.offered,
            stats.admitted + stats.shed + ac.queue_depth() as u64
        );
    }

    /// The cache agrees with a reference expiry map on every lookup of
    /// any schedule: hit strictly within the TTL, stale exactly once at
    /// or past it, miss afterwards. Capacity is left at its (large)
    /// default so eviction never interferes with the model.
    #[test]
    fn cache_hits_within_ttl_and_misses_after(
        ttl_ms in 1u64..5_000,
        ops in prop::collection::vec((0u64..10_000, 0u8..6, any::<bool>()), 1..200),
    ) {
        let mut cache: ResultCache<u64> = ResultCache::new(CacheConfig {
            default_ttl: Some(SimDuration::from_millis(ttl_ms)),
            ..CacheConfig::default()
        });
        let mut model: BTreeMap<u8, SimInstant> = BTreeMap::new();
        let mut now = SimInstant::EPOCH;
        let mut value = 0u64;
        for (advance_ms, key_id, insert) in ops {
            now += SimDuration::from_millis(advance_ms);
            let key = format!("k{key_id}");
            if insert {
                value += 1;
                cache.insert(&key, "f", value, now);
                model.insert(key_id, now);
            } else {
                let ttl = SimDuration::from_millis(ttl_ms);
                let expected_live = model
                    .get(&key_id)
                    .is_some_and(|&inserted| now < inserted + ttl);
                match cache.lookup(&key, "f", now) {
                    CacheLookup::Hit { .. } => {
                        prop_assert!(expected_live, "hit past the TTL at {:?}", now);
                    }
                    CacheLookup::Stale { .. } => {
                        prop_assert!(model.contains_key(&key_id) && !expected_live);
                        model.remove(&key_id);
                    }
                    CacheLookup::Miss => {
                        // A live-in-model miss is impossible; an expired
                        // entry misses only after its stale removal.
                        prop_assert!(!model.contains_key(&key_id), "missed a live entry");
                    }
                    CacheLookup::Bypass => prop_assert!(false, "default TTL is set"),
                }
            }
        }
    }
}
