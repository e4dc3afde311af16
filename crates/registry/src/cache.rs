//! Per-node pull-through image caches.
//!
//! A [`NodeCache`] tracks which images — and, frame-granularly, which
//! page frames — are already resident on one worker node. Admission is
//! dedup-aware with the same accounting the host-side
//! `prebake_criu::ImageCache` charges its residents with: each
//! distinct frame is charged once node-wide no matter how many resident
//! images reference it, so cross-function sharing translates directly
//! into bytes that never cross the network.

use std::collections::{BTreeSet, HashSet};

use crate::manifest::ImageManifest;

/// How a node satisfies an image pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullMode {
    /// Fetch the full image from the registry on every pull; nothing is
    /// cached on the node (the "pull full image every placement"
    /// baseline).
    Naive,
    /// Cache whole images: a resident image re-pulls for free, but a
    /// miss fetches every byte even when another image on the node
    /// already holds most of its frames.
    PullThrough,
    /// Frame-granular pull-through: a miss fetches only the frames no
    /// resident image already holds, plus the image metadata.
    DedupPullThrough,
}

/// Outcome of one image pull against a node cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PullStats {
    /// Bytes that crossed the network (registry egress).
    pub bytes_fetched: u64,
    /// Bytes the node already held (frames shared with resident images,
    /// or the whole image on a cache hit).
    pub bytes_deduped: u64,
    /// Frames transferred.
    pub frames_fetched: u64,
    /// Frames satisfied locally.
    pub frames_deduped: u64,
    /// Whether the image was already resident (no registry round-trip).
    pub cache_hit: bool,
}

impl PullStats {
    /// Conservation check: every pull accounts for the full image.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_fetched + self.bytes_deduped
    }
}

/// One node's pull-through image cache.
#[derive(Debug, Clone, Default)]
pub struct NodeCache {
    /// Hashes of the resident frames. Unordered: the hashes are spread
    /// uniformly, so in an ordered set consecutive probes of one
    /// manifest's sorted hashes land on different nodes, and placement
    /// probes this set for every candidate worker.
    frames: HashSet<u64>,
    images: BTreeSet<String>,
}

impl NodeCache {
    /// An empty cache.
    pub fn new() -> NodeCache {
        NodeCache::default()
    }

    /// Whether `image_id` is resident.
    pub(crate) fn contains(&self, image_id: &str) -> bool {
        self.images.contains(image_id)
    }

    /// Bytes a pull of `manifest` under `mode` would fetch from the
    /// registry — the placement affinity signal ("schedule where the
    /// image is warm").
    pub fn missing_bytes(&self, manifest: &ImageManifest, mode: PullMode) -> u64 {
        match mode {
            PullMode::Naive => manifest.total_bytes(),
            PullMode::PullThrough => {
                if self.contains(manifest.id()) {
                    0
                } else {
                    manifest.total_bytes()
                }
            }
            PullMode::DedupPullThrough => {
                if self.contains(manifest.id()) {
                    return 0;
                }
                let missing = manifest
                    .frame_hashes()
                    .iter()
                    .filter(|h| !self.frames.contains(h))
                    .count();
                manifest.metadata_bytes() + (missing * prebake_sim::mem::PAGE_SIZE) as u64
            }
        }
    }

    /// Pulls `manifest` through the cache: computes what must be
    /// fetched, then (except under [`PullMode::Naive`], which never
    /// caches) makes the image resident. Pulling a resident image is a
    /// hit and fetches nothing.
    pub(crate) fn admit(&mut self, manifest: &ImageManifest, mode: PullMode) -> PullStats {
        let total_frames = manifest.frame_count() as u64;
        if mode != PullMode::Naive && self.contains(manifest.id()) {
            return PullStats {
                bytes_fetched: 0,
                bytes_deduped: manifest.total_bytes(),
                frames_fetched: 0,
                frames_deduped: total_frames,
                cache_hit: true,
            };
        }
        let stats = match mode {
            PullMode::Naive => PullStats {
                bytes_fetched: manifest.total_bytes(),
                frames_fetched: total_frames,
                ..PullStats::default()
            },
            PullMode::PullThrough => PullStats {
                bytes_fetched: manifest.total_bytes(),
                frames_fetched: total_frames,
                ..PullStats::default()
            },
            PullMode::DedupPullThrough => {
                let missing = manifest
                    .frame_hashes()
                    .iter()
                    .filter(|h| !self.frames.contains(h))
                    .count() as u64;
                PullStats {
                    bytes_fetched: manifest.metadata_bytes()
                        + missing * prebake_sim::mem::PAGE_SIZE as u64,
                    bytes_deduped: (total_frames - missing) * prebake_sim::mem::PAGE_SIZE as u64,
                    frames_fetched: missing,
                    frames_deduped: total_frames - missing,
                    cache_hit: false,
                }
            }
        };
        if mode != PullMode::Naive {
            self.frames.extend(manifest.frame_hashes());
            self.images.insert(manifest.id().to_owned());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_sim::mem::PAGE_SIZE;

    const PG: u64 = PAGE_SIZE as u64;

    fn manifest(id: &str, hashes: &[u64], metadata: u64) -> ImageManifest {
        ImageManifest::new(id, hashes.iter().copied(), metadata)
    }

    #[test]
    fn naive_always_fetches_and_never_caches() {
        let mut cache = NodeCache::new();
        let m = manifest("f", &[1, 2, 3], 100);
        for _ in 0..2 {
            let s = cache.admit(&m, PullMode::Naive);
            assert_eq!(s.bytes_fetched, 100 + 3 * PG);
            assert_eq!(s.bytes_deduped, 0);
            assert!(!s.cache_hit);
        }
        assert!(!cache.contains("f"));
    }

    #[test]
    fn pull_through_hits_on_the_second_pull() {
        let mut cache = NodeCache::new();
        let m = manifest("f", &[1, 2, 3], 100);
        let first = cache.admit(&m, PullMode::PullThrough);
        assert_eq!(first.bytes_fetched, m.total_bytes());
        let second = cache.admit(&m, PullMode::PullThrough);
        assert_eq!(second.bytes_fetched, 0);
        assert_eq!(second.bytes_deduped, m.total_bytes());
        assert!(second.cache_hit);
    }

    #[test]
    fn pull_through_does_not_dedup_across_images() {
        let mut cache = NodeCache::new();
        cache.admit(&manifest("f", &[1, 2, 3], 0), PullMode::PullThrough);
        let s = cache.admit(&manifest("g", &[1, 2, 4], 0), PullMode::PullThrough);
        assert_eq!(s.bytes_fetched, 3 * PG, "whole image re-fetched");
        // The node still holds each distinct frame once.
        assert_eq!(cache.frames.len(), 4);
    }

    #[test]
    fn dedup_fetches_only_missing_frames() {
        let mut cache = NodeCache::new();
        let f = manifest("f", &[1, 2, 3], 50);
        let g = manifest("g", &[2, 3, 4, 5], 70);
        let first = cache.admit(&f, PullMode::DedupPullThrough);
        assert_eq!(first.bytes_fetched, 50 + 3 * PG);
        assert_eq!(first.total_bytes(), f.total_bytes());

        let second = cache.admit(&g, PullMode::DedupPullThrough);
        assert_eq!(second.bytes_fetched, 70 + 2 * PG, "frames 2,3 ride free");
        assert_eq!(second.bytes_deduped, 2 * PG);
        assert_eq!(second.frames_deduped, 2);
        assert_eq!(second.total_bytes(), g.total_bytes());
        assert_eq!(cache.frames.len(), 5);
    }

    #[test]
    fn missing_bytes_matches_admit() {
        let cache = NodeCache::new();
        let f = manifest("f", &[1, 2, 3], 50);
        let g = manifest("g", &[3, 4], 10);
        for mode in [PullMode::PullThrough, PullMode::DedupPullThrough] {
            let mut c = cache.clone();
            assert_eq!(c.missing_bytes(&f, mode), c.admit(&f, mode).bytes_fetched);
            assert_eq!(c.missing_bytes(&g, mode), c.admit(&g, mode).bytes_fetched);
            assert_eq!(c.missing_bytes(&g, mode), 0);
        }
        assert_eq!(
            cache.missing_bytes(&f, PullMode::Naive),
            f.total_bytes(),
            "naive ignores residency"
        );
    }
}
