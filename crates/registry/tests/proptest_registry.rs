//! Property tests for the registry tier: pull-through cache accounting
//! must be conservation-safe for arbitrary image mixtures — every pull
//! accounts for the full image as fetched-or-deduped bytes, a repeat
//! pull on the same node is free, eviction releases exactly what
//! admission charged, and the whole pipeline is deterministic per seed.

use std::collections::BTreeSet;

use proptest::prelude::*;

use prebake_registry::{ImageManifest, NodeCache, PullMode, RegistryCost, SnapshotRegistry};
use prebake_sim::mem::PAGE_SIZE;

/// Builds a fleet of synthetic manifests with varied sizes and shared
/// fractions, plus a pull order over them (with repeats).
fn build_fleet(
    shapes: &[(u64, f64)],
    order_raw: &[usize],
    seed: u64,
) -> (Vec<ImageManifest>, Vec<usize>) {
    let manifests: Vec<ImageManifest> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(pages, shared))| {
            ImageManifest::synthetic(
                format!("fn-{i}"),
                pages * PAGE_SIZE as u64 + (seed % PAGE_SIZE as u64),
                shared,
                seed,
            )
        })
        .collect();
    let order = order_raw.iter().map(|ix| ix % manifests.len()).collect();
    (manifests, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: under every mode, every pull accounts for the full
    /// image — bytes fetched + bytes deduped == the manifest's total —
    /// and frames split the same way.
    #[test]
    fn every_pull_conserves_the_image(
        shapes in prop::collection::vec((1u64..200, 0.0f64..1.0), 1..8),
        order_raw in prop::collection::vec(any::<usize>(), 1..24),
        seed in any::<u64>(),
    ) {
        let (manifests, order) = build_fleet(&shapes, &order_raw, seed);
        for mode in [PullMode::Naive, PullMode::PullThrough, PullMode::DedupPullThrough] {
            let mut reg = SnapshotRegistry::new(RegistryCost::default());
            for m in &manifests {
                reg.publish(m.clone());
            }
            let mut node = NodeCache::new();
            let mut fetched = 0u64;
            let mut deduped = 0u64;
            for &i in &order {
                let m = &manifests[i];
                let receipt = reg.pull(m.id(), &mut node, mode).unwrap();
                prop_assert_eq!(
                    receipt.stats.total_bytes(),
                    m.total_bytes(),
                    "pull of {} under {:?} lost bytes",
                    m.id(),
                    mode
                );
                prop_assert_eq!(
                    receipt.stats.frames_fetched + receipt.stats.frames_deduped,
                    m.frame_count() as u64
                );
                // The clock charge follows the fetched bytes exactly.
                prop_assert_eq!(
                    receipt.wait,
                    reg.cost().pull_time(receipt.stats.bytes_fetched)
                );
                fetched += receipt.stats.bytes_fetched;
                deduped += receipt.stats.bytes_deduped;
            }
            // Registry-side accounting mirrors the per-pull receipts.
            prop_assert_eq!(reg.egress_bytes(), fetched);
            prop_assert_eq!(reg.dedup_bytes(), deduped);
            let total: u64 = order.iter().map(|&i| manifests[i].total_bytes()).sum();
            prop_assert_eq!(fetched + deduped, total);
        }
    }

    /// Under the caching modes a second pull of the same image on the
    /// same node is a hit and fetches zero bytes; naive mode re-fetches
    /// everything every time.
    #[test]
    fn repeat_pulls_on_a_node_are_free(
        shapes in prop::collection::vec((1u64..200, 0.0f64..1.0), 1..8),
        order_raw in prop::collection::vec(any::<usize>(), 1..24),
        seed in any::<u64>(),
    ) {
        let (manifests, order) = build_fleet(&shapes, &order_raw, seed);
        for mode in [PullMode::PullThrough, PullMode::DedupPullThrough] {
            let mut reg = SnapshotRegistry::new(RegistryCost::default());
            for m in &manifests {
                reg.publish(m.clone());
            }
            let mut node = NodeCache::new();
            let mut seen = BTreeSet::new();
            for &i in &order {
                let m = &manifests[i];
                let receipt = reg.pull(m.id(), &mut node, mode).unwrap();
                if seen.contains(&i) {
                    prop_assert!(receipt.stats.cache_hit);
                    prop_assert_eq!(receipt.stats.bytes_fetched, 0);
                    prop_assert_eq!(receipt.wait, prebake_sim::time::SimDuration::ZERO);
                } else {
                    prop_assert!(!receipt.stats.cache_hit);
                    seen.insert(i);
                }
            }
        }
        let mut reg = SnapshotRegistry::new(RegistryCost::default());
        for m in &manifests {
            reg.publish(m.clone());
        }
        let mut node = NodeCache::new();
        for &i in &order {
            let receipt = reg.pull(manifests[i].id(), &mut node, PullMode::Naive).unwrap();
            prop_assert_eq!(receipt.stats.bytes_fetched, manifests[i].total_bytes());
            prop_assert!(!receipt.stats.cache_hit);
        }
        for m in &manifests {
            let missing = node.missing_bytes(m, PullMode::PullThrough);
            prop_assert_eq!(missing, m.total_bytes(), "naive mode never caches");
        }
    }

    /// The same seed reproduces the same manifests and the same pull
    /// accounting, bit for bit.
    #[test]
    fn pull_accounting_is_deterministic_per_seed(
        shapes in prop::collection::vec((1u64..200, 0.0f64..1.0), 1..8),
        order_raw in prop::collection::vec(any::<usize>(), 1..24),
        seed in any::<u64>(),
        shared in 0.0f64..1.0,
    ) {
        let (manifests, order) = build_fleet(&shapes, &order_raw, seed);
        // Manifest synthesis itself is a pure function of its inputs.
        for m in &manifests {
            let rebuilt = ImageManifest::synthetic(m.id(), m.total_bytes(), shared, seed);
            let again = ImageManifest::synthetic(m.id(), m.total_bytes(), shared, seed);
            prop_assert_eq!(rebuilt, again);
        }
        let run = || {
            let mut reg = SnapshotRegistry::new(RegistryCost::default());
            for m in &manifests {
                reg.publish(m.clone());
            }
            let mut node = NodeCache::new();
            let mut log = Vec::new();
            for &i in &order {
                let r = reg
                    .pull(manifests[i].id(), &mut node, PullMode::DedupPullThrough)
                    .unwrap();
                log.push((r.stats.bytes_fetched, r.stats.bytes_deduped, r.wait.as_nanos()));
            }
            (log, reg.egress_bytes())
        };
        prop_assert_eq!(run(), run());
    }
}
