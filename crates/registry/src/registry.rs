//! The registry tier: published manifests, a network charging model,
//! and fleet-wide egress accounting.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use prebake_sim::time::SimDuration;

use crate::cache::{NodeCache, PullMode, PullStats};
use crate::manifest::ImageManifest;

/// What moving bytes out of the registry costs over the virtual clock:
/// one round-trip latency per fetch plus a per-byte bandwidth charge.
/// Cache hits (zero bytes) cost nothing — the node never leaves its own
/// disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryCost {
    /// Round-trip latency of a non-empty fetch.
    pub latency: SimDuration,
    /// Transfer time per byte, nanoseconds.
    pub ns_per_byte: f64,
}

impl RegistryCost {
    /// A cost model from link bandwidth in gigabits per second.
    pub(crate) fn from_gbps(latency: SimDuration, gbps: f64) -> RegistryCost {
        assert!(gbps > 0.0, "bandwidth must be positive");
        RegistryCost {
            latency,
            ns_per_byte: 8.0 / gbps,
        }
    }

    /// Wall time a fetch of `bytes` charges. Zero bytes → zero time.
    pub fn pull_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.latency + SimDuration::from_nanos_f64(bytes as f64 * self.ns_per_byte)
    }
}

impl Default for RegistryCost {
    /// A same-region object store over a 10 Gbit/s NIC with ~12 ms of
    /// request latency — the regime vHive measures for remote snapshot
    /// fetch.
    fn default() -> Self {
        RegistryCost::from_gbps(SimDuration::from_millis(12), 10.0)
    }
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A pull named an image no manifest was published for.
    UnknownImage(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownImage(id) => {
                write!(f, "no manifest published for image {id:?}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// One completed pull, as the fleet observes it: transfer accounting
/// plus the virtual time the pulling node waited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PullReceipt {
    /// Frame/byte accounting of the transfer.
    pub stats: PullStats,
    /// Wall time the pull charged (zero on a cache hit).
    pub wait: SimDuration,
}

/// The snapshot registry: published manifests plus cumulative
/// egress/pull accounting across every node that pulls from it.
///
/// The manifest store is `Arc`-shared so [`SnapshotRegistry::fork`] can
/// hand each fleet shard a re-entrant pull handle without copying
/// manifests; publishing after a fork copies-on-write.
#[derive(Debug, Clone, Default)]
pub struct SnapshotRegistry {
    cost: RegistryCost,
    manifests: Arc<BTreeMap<String, ImageManifest>>,
    egress_bytes: u64,
    dedup_bytes: u64,
    pulls: u64,
    cache_hits: u64,
}

impl SnapshotRegistry {
    /// An empty registry with the given charging model.
    pub fn new(cost: RegistryCost) -> SnapshotRegistry {
        SnapshotRegistry {
            cost,
            ..SnapshotRegistry::default()
        }
    }

    /// The charging model.
    pub fn cost(&self) -> &RegistryCost {
        &self.cost
    }

    /// Publishes a manifest under its id, replacing (and returning) any
    /// previous version.
    pub fn publish(&mut self, manifest: ImageManifest) -> Option<ImageManifest> {
        Arc::make_mut(&mut self.manifests).insert(manifest.id().to_owned(), manifest)
    }

    /// A shard-local pull handle: shares this registry's manifest store
    /// (no copy) under the same cost model, with fresh zeroed
    /// accounting, so independent shards can pull concurrently and
    /// their traffic can be summed back with
    /// [`SnapshotRegistry::absorb`].
    pub fn fork(&self) -> SnapshotRegistry {
        SnapshotRegistry {
            cost: self.cost,
            manifests: Arc::clone(&self.manifests),
            egress_bytes: 0,
            dedup_bytes: 0,
            pulls: 0,
            cache_hits: 0,
        }
    }

    /// Folds a forked handle's accounting back into this registry; the
    /// manifest store is untouched.
    pub fn absorb(&mut self, other: &SnapshotRegistry) {
        self.egress_bytes += other.egress_bytes;
        self.dedup_bytes += other.dedup_bytes;
        self.pulls += other.pulls;
        self.cache_hits += other.cache_hits;
    }

    /// Looks up a published manifest.
    pub fn manifest(&self, id: &str) -> Option<&ImageManifest> {
        self.manifests.get(id)
    }

    /// Pulls `id` into `node` under `mode`: admits the image to the
    /// node cache, charges the transfer, and returns the receipt.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownImage`] if no manifest is published.
    pub fn pull(
        &mut self,
        id: &str,
        node: &mut NodeCache,
        mode: PullMode,
    ) -> Result<PullReceipt, RegistryError> {
        let manifest = self
            .manifests
            .get(id)
            .ok_or_else(|| RegistryError::UnknownImage(id.to_owned()))?;
        let stats = node.admit(manifest, mode);
        self.pulls += 1;
        self.egress_bytes += stats.bytes_fetched;
        self.dedup_bytes += stats.bytes_deduped;
        if stats.cache_hit {
            self.cache_hits += 1;
        }
        Ok(PullReceipt {
            stats,
            wait: self.cost.pull_time(stats.bytes_fetched),
        })
    }

    /// Total bytes served over the network across all pulls.
    pub fn egress_bytes(&self) -> u64 {
        self.egress_bytes
    }

    /// Total bytes satisfied node-locally instead of over the network.
    pub fn dedup_bytes(&self) -> u64 {
        self.dedup_bytes
    }

    /// Pulls served (hits included).
    pub fn pulls(&self) -> u64 {
        self.pulls
    }

    /// Pulls that were node-cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_sim::mem::PAGE_SIZE;

    #[test]
    fn cost_model_charges_latency_plus_bandwidth() {
        let cost = RegistryCost::from_gbps(SimDuration::from_millis(10), 8.0);
        // 8 Gbit/s = 1 ns/byte: 1 MB ≈ 1 ms on the wire.
        let t = cost.pull_time(1_000_000);
        assert_eq!(t, SimDuration::from_millis(11));
        assert_eq!(cost.pull_time(0), SimDuration::ZERO, "hits are free");
        let fast = RegistryCost::from_gbps(SimDuration::from_millis(10), 80.0);
        assert!(fast.pull_time(1_000_000) < t);
    }

    #[test]
    fn unknown_image_is_rejected() {
        let mut reg = SnapshotRegistry::new(RegistryCost::default());
        let mut node = NodeCache::new();
        assert_eq!(
            reg.pull("ghost", &mut node, PullMode::Naive).unwrap_err(),
            RegistryError::UnknownImage("ghost".to_owned())
        );
        assert_eq!(reg.pulls(), 0);
    }

    #[test]
    fn pull_accounting_accumulates_across_nodes() {
        let mut reg = SnapshotRegistry::new(RegistryCost::default());
        let m = ImageManifest::new("f", [1, 2, 3], 100);
        let total = m.total_bytes();
        assert!(reg.publish(m).is_none());
        assert_eq!(reg.manifests.len(), 1);

        let mut node_a = NodeCache::new();
        let mut node_b = NodeCache::new();
        let first = reg
            .pull("f", &mut node_a, PullMode::DedupPullThrough)
            .unwrap();
        assert_eq!(first.stats.bytes_fetched, total);
        assert!(first.wait > SimDuration::ZERO);

        // Same node again: hit, free, instant.
        let again = reg
            .pull("f", &mut node_a, PullMode::DedupPullThrough)
            .unwrap();
        assert!(again.stats.cache_hit);
        assert_eq!(again.wait, SimDuration::ZERO);

        // A different node pays the full transfer: caches are per-node.
        let other = reg
            .pull("f", &mut node_b, PullMode::DedupPullThrough)
            .unwrap();
        assert_eq!(other.stats.bytes_fetched, total);

        assert_eq!(reg.pulls(), 3);
        assert_eq!(reg.cache_hits(), 1);
        assert_eq!(reg.egress_bytes(), 2 * total);
        assert_eq!(reg.dedup_bytes(), total);
    }

    #[test]
    fn fork_shares_manifests_and_absorb_sums_accounting() {
        let mut reg = SnapshotRegistry::new(RegistryCost::default());
        let m = ImageManifest::new("f", [1, 2, 3], 100);
        let total = m.total_bytes();
        reg.publish(m);

        let mut shard_a = reg.fork();
        let mut shard_b = reg.fork();
        assert_eq!(shard_a.manifests.len(), 1, "manifests shared, not copied");

        let mut node_a = NodeCache::new();
        let mut node_b = NodeCache::new();
        shard_a
            .pull("f", &mut node_a, PullMode::DedupPullThrough)
            .unwrap();
        shard_a
            .pull("f", &mut node_a, PullMode::DedupPullThrough)
            .unwrap();
        shard_b
            .pull("f", &mut node_b, PullMode::DedupPullThrough)
            .unwrap();

        // Forks account independently; the parent stays untouched...
        assert_eq!(reg.pulls(), 0);
        assert_eq!(shard_a.pulls(), 2);
        assert_eq!(shard_a.cache_hits(), 1);
        assert_eq!(shard_b.egress_bytes(), total);

        // ...until absorbed back in shard order.
        reg.absorb(&shard_a);
        reg.absorb(&shard_b);
        assert_eq!(reg.pulls(), 3);
        assert_eq!(reg.cache_hits(), 1);
        assert_eq!(reg.egress_bytes(), 2 * total);
        assert_eq!(reg.dedup_bytes(), total);

        // Publishing after a fork copies-on-write: forks keep the old view.
        reg.publish(ImageManifest::new("g", [7], 0));
        assert_eq!(reg.manifests.len(), 2);
        assert_eq!(shard_a.manifests.len(), 1);
    }

    #[test]
    fn republish_replaces_the_manifest() {
        let mut reg = SnapshotRegistry::default();
        reg.publish(ImageManifest::new("f", [1], 0));
        let old = reg.publish(ImageManifest::new("f", [1, 2], 0)).unwrap();
        assert_eq!(old.frame_count(), 1);
        assert_eq!(reg.manifest("f").unwrap().frame_count(), 2);
        assert_eq!(
            reg.manifest("f").unwrap().total_bytes(),
            2 * PAGE_SIZE as u64
        );
    }
}
