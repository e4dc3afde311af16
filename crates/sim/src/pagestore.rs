//! Machine-level shared page store — the content-addressed pool of
//! physical frames behind copy-on-write restore.
//!
//! Real CRIU restores into anonymous private memory, paying a byte copy
//! per page per replica. The dedup optimisation (Ustiugov et al.,
//! "Benchmarking, Analysis, and Optimization of Serverless Function
//! Snapshots") instead backs identical pages with *one* physical frame —
//! a memfd/KSM-style pool — and maps it into each replica
//! copy-on-write. This module is that pool: frames are keyed by a
//! content hash, handed out as [`Arc<Page>`] clones, and released
//! automatically when every mapping referencing them is torn down
//! (munmap, exec, exit). `Arc::strong_count - 1` *is* the frame's
//! mapcount, so leak tests reduce to reference counting.

use std::collections::HashMap;
use std::sync::Arc;

use crate::mem::{Page, PAGE_SIZE};

/// A content-addressed pool of shared page frames.
#[derive(Debug, Clone, Default)]
pub struct SharedPageStore {
    /// Frames by content hash. Only looked up, counted and filtered,
    /// never iterated in order, so no result depends on the map's order.
    frames: HashMap<u64, Arc<Page>>,
}

impl SharedPageStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        SharedPageStore::default()
    }

    /// Returns the frame for `hash`, inserting it from `make` on first
    /// use. Identical content dedups to one frame machine-wide.
    pub(crate) fn get_or_insert(&mut self, hash: u64, make: impl FnOnce() -> Page) -> Arc<Page> {
        Arc::clone(self.frames.entry(hash).or_insert_with(|| Arc::new(make())))
    }

    /// Bytes of unique page content resident in the pool.
    pub fn resident_bytes(&self) -> u64 {
        (self.frames.len() * PAGE_SIZE) as u64
    }

    /// Total mappings of pool frames across all address spaces: the sum
    /// of per-frame mapcounts (`strong_count - 1` excludes the pool's
    /// own reference).
    pub fn external_refs(&self) -> u64 {
        self.frames
            .values()
            .map(|f| (Arc::strong_count(f) - 1) as u64)
            .sum()
    }

    /// Drops frames no mapping references any more, returning how many
    /// were reclaimed. The kernel runs this after process teardown so
    /// an idle machine holds no snapshot memory.
    pub(crate) fn reclaim(&mut self) -> usize {
        let before = self.frames.len();
        self.frames.retain(|_, f| Arc::strong_count(f) > 1);
        before - self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Page {
        Page::from_bytes(&[fill; PAGE_SIZE])
    }

    #[test]
    fn identical_hashes_share_one_frame() {
        let mut store = SharedPageStore::new();
        let a = store.get_or_insert(42, || page(1));
        let b = store.get_or_insert(42, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.frames.len(), 1);
        assert_eq!(store.resident_bytes(), PAGE_SIZE as u64);
        assert_eq!(store.external_refs(), 2);
    }

    #[test]
    fn reclaim_drops_only_unreferenced_frames() {
        let mut store = SharedPageStore::new();
        let held = store.get_or_insert(1, || page(1));
        let dropped = store.get_or_insert(2, || page(2));
        drop(dropped);
        assert_eq!(store.frames.len(), 2);
        assert_eq!(store.reclaim(), 1);
        assert_eq!(store.frames.len(), 1);
        assert!(store.frames.contains_key(&1));
        assert!(!store.frames.contains_key(&2));
        drop(held);
        assert_eq!(store.reclaim(), 1);
        assert!(store.frames.is_empty());
        assert_eq!(store.external_refs(), 0);
    }
}
