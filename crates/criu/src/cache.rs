//! In-memory image cache — the paper's §7 future-work optimisation
//! ("experiment with in-memory optimization on CRIU to speed-up snapshot
//! restore", citing the fast in-memory CRIU work \[26\]).
//!
//! Keeping the parsed [`ImageSet`] resident skips the image-file reads at
//! restore time, which Table 1's calibration prices at ≈0.3 ms/MiB of
//! snapshot — a substantial share for large snapshots like the Image
//! Resizer's 99 MB. The `ablation_memcache` bench quantifies exactly this.
//!
//! The cache can be bounded to a byte budget; inserts then evict
//! least-recently-used snapshots until the charged size of everything
//! resident — *including* recorded working-set images (`ws.img`) — fits
//! the bound.
//!
//! Accounting is dedup-aware. A snapshot carrying a page store
//! (`pagestore.img`) is charged its metadata plus each *distinct* page
//! frame once; frames shared between resident snapshots — two replicas
//! of one function, or different functions with identical runtime pages
//! — are charged once cache-wide, mirroring how a memfd-backed host
//! pool would hold them. Snapshots without a store (incremental dumps,
//! pre-dedup images) are charged their full encoded size.

use std::collections::{HashMap, HashSet};

use prebake_sim::error::SysResult;
use prebake_sim::kernel::Kernel;
use prebake_sim::mem::PAGE_SIZE;
use prebake_sim::proc::Pid;

use crate::dump::read_images;
use crate::image::ImageSet;
use crate::restore::{restore_set, RestoreOptions, RestoreStats};

/// A host-resident cache of checkpoint images, keyed by snapshot name.
#[derive(Debug, Default)]
pub struct ImageCache {
    sets: HashMap<String, ImageSet>,
    /// Names ordered least- to most-recently used.
    recency: Vec<String>,
    capacity_bytes: Option<u64>,
}

impl ImageCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        ImageCache::default()
    }

    /// Raw encoded bytes of everything resident, `ws.img` and
    /// `pagestore.img` included — what the snapshots would occupy
    /// *without* cross-snapshot dedup. The byte budget is enforced
    /// against [`ImageCache::charged_bytes`] instead.
    pub fn total_bytes(&self) -> u64 {
        self.sets.values().map(ImageSet::total_bytes).sum()
    }

    /// Bytes actually charged against the budget: per-snapshot metadata
    /// (everything but page payload) plus one [`PAGE_SIZE`] charge per
    /// distinct page frame across all resident page stores. Snapshots
    /// without a store are charged their full encoded size.
    pub fn charged_bytes(&self) -> u64 {
        let mut frames: HashSet<u64> = HashSet::new();
        let mut total = 0u64;
        for set in self.sets.values() {
            match &set.pagestore {
                Some(store) => {
                    total += set.non_payload_bytes();
                    frames.extend(store.hashes.iter().copied());
                }
                None => total += set.total_bytes(),
            }
        }
        total + (frames.len() * PAGE_SIZE) as u64
    }

    /// What one snapshot would be charged standing alone: its dedup-aware
    /// footprint, before any cross-snapshot frame sharing.
    pub(crate) fn standalone_bytes(set: &ImageSet) -> u64 {
        match &set.pagestore {
            Some(store) => set.non_payload_bytes() + store.unique_bytes(),
            None => set.total_bytes(),
        }
    }

    /// Inserts a snapshot under `name`, returning the names evicted to
    /// honour the byte budget (oldest first). A snapshot whose
    /// standalone (dedup-aware) footprint exceeds the whole budget is
    /// refused: it comes back as the sole "evicted" name without
    /// displacing anything resident.
    pub fn insert(&mut self, name: impl Into<String>, set: ImageSet) -> Vec<String> {
        let name = name.into();
        if let Some(cap) = self.capacity_bytes {
            if ImageCache::standalone_bytes(&set) > cap {
                return vec![name];
            }
        }
        self.touch(&name);
        self.sets.insert(name, set);
        self.enforce_capacity()
    }

    /// Loads image files from the guest filesystem into the cache
    /// (charged once; subsequent restores skip the read entirely).
    /// Returns the names evicted to honour the byte budget.
    ///
    /// # Errors
    ///
    /// Propagates image-read errors.
    pub fn preload(
        &mut self,
        kernel: &mut Kernel,
        name: impl Into<String>,
        images_dir: &str,
    ) -> SysResult<Vec<String>> {
        let span = kernel.span_begin("cache_preload", prebake_sim::kernel::INIT_PID);
        let set = read_images(kernel, images_dir);
        kernel.span_end(span);
        let evicted = self.insert(name, set?);
        kernel.span_attr(span, "evicted", evicted.len().to_string());
        Ok(evicted)
    }

    /// Restores directly from the cache, skipping all image-file I/O.
    /// The snapshot becomes the most recently used.
    ///
    /// # Errors
    ///
    /// [`prebake_sim::Errno::Enoent`] if the snapshot is not cached;
    /// otherwise as [`restore_set`].
    pub fn restore_cached(
        &mut self,
        kernel: &mut Kernel,
        requester: Pid,
        name: &str,
        opts: &RestoreOptions,
    ) -> SysResult<RestoreStats> {
        let span = kernel.span_begin("cache_lookup", requester);
        let Some(set) = self.sets.get(name) else {
            kernel.span_attr(span, "result", "miss");
            kernel.span_end(span);
            return Err(prebake_sim::Errno::Enoent);
        };
        kernel.span_attr(span, "result", "hit");
        let stats = restore_set(kernel, requester, set, opts);
        kernel.span_end(span);
        let stats = stats?;
        self.touch(name);
        Ok(stats)
    }

    /// Removes a snapshot, returning it if present.
    pub fn evict(&mut self, name: &str) -> Option<ImageSet> {
        self.recency.retain(|n| n != name);
        self.sets.remove(name)
    }

    fn touch(&mut self, name: &str) {
        self.recency.retain(|n| n != name);
        self.recency.push(name.to_owned());
    }

    fn enforce_capacity(&mut self) -> Vec<String> {
        let Some(cap) = self.capacity_bytes else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.charged_bytes() > cap && self.recency.len() > 1 {
            let victim = self.recency.remove(0);
            self.sets.remove(&victim);
            evicted.push(victim);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{dump, DumpOptions};
    use crate::image::WsImage;
    use prebake_sim::cost::CostModel;
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::{Prot, VmaKind, PAGE_SIZE};
    use prebake_sim::noise::Noise;

    /// An empty cache bounded to `capacity_bytes`.
    fn bounded(capacity_bytes: u64) -> ImageCache {
        ImageCache {
            capacity_bytes: Some(capacity_bytes),
            ..ImageCache::default()
        }
    }

    fn kernel_with_snapshot() -> (Kernel, Pid) {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let a = k
            .sys_mmap(
                target,
                512 * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        k.mem_write(target, a, &vec![3u8; 512 * PAGE_SIZE]).unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        (k, tracer)
    }

    #[test]
    fn cached_restore_is_faster_than_fs_restore() {
        let (mut k, tracer) = kernel_with_snapshot();
        let opts = RestoreOptions::new("/img");

        let t0 = k.now();
        let via_fs = crate::restore::restore(&mut k, tracer, &opts).unwrap();
        let fs_time = k.now() - t0;

        let mut cache = ImageCache::new();
        cache.preload(&mut k, "fn", "/img").unwrap();
        let t1 = k.now();
        let via_cache = cache.restore_cached(&mut k, tracer, "fn", &opts).unwrap();
        let cache_time = k.now() - t1;

        assert_eq!(via_fs.pages_installed, via_cache.pages_installed);
        assert!(cache_time < fs_time, "cache {cache_time} vs fs {fs_time}");
    }

    #[test]
    fn missing_snapshot_is_enoent() {
        let (mut k, tracer) = kernel_with_snapshot();
        let mut cache = ImageCache::new();
        assert!(cache.sets.is_empty());
        assert_eq!(
            cache
                .restore_cached(&mut k, tracer, "nope", &RestoreOptions::new("/img"))
                .unwrap_err(),
            prebake_sim::Errno::Enoent
        );
    }

    #[test]
    fn evict_removes_entry() {
        let (mut k, _) = kernel_with_snapshot();
        let mut cache = ImageCache::new();
        cache.preload(&mut k, "fn", "/img").unwrap();
        assert_eq!(cache.sets.len(), 1);
        assert!(cache.sets.contains_key("fn"));
        assert!(cache.evict("fn").is_some());
        assert!(cache.evict("fn").is_none());
        assert!(cache.sets.is_empty());
    }

    /// Dumps a snapshot whose pages are all distinct from each other
    /// *and* from any other `tag`'s pages, so cross-snapshot dedup
    /// shares nothing between different tags.
    fn distinct_snapshot(k: &mut Kernel, tag: u8, pages: u64) -> ImageSet {
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let dir = format!("/img-{tag}");
        let a = k
            .sys_mmap(
                target,
                pages * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        for i in 0..pages {
            k.mem_write(target, a.add(i * PAGE_SIZE as u64), &[tag, i as u8, 1])
                .unwrap();
        }
        dump(k, tracer, &DumpOptions::new(target, &dir)).unwrap();
        read_images(k, &dir).unwrap()
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let sets: Vec<ImageSet> = (1u8..=3)
            .map(|t| distinct_snapshot(&mut k, t, 64))
            .collect();
        let one = ImageCache::standalone_bytes(&sets[0]);

        // Room for two unrelated snapshots, not three.
        let mut cache = bounded(2 * one + one / 2);
        assert!(cache.insert("a", sets[0].clone()).is_empty());
        assert!(cache.insert("b", sets[1].clone()).is_empty());
        assert_eq!(cache.charged_bytes(), 2 * one);

        // "a" is refreshed, so inserting "c" evicts "b".
        cache.touch("a");
        let evicted = cache.insert("c", sets[2].clone());
        assert_eq!(evicted, vec!["b".to_owned()]);
        assert!(cache.sets.contains_key("a"));
        assert!(cache.sets.contains_key("c"));
        assert!(cache.charged_bytes() <= cache.capacity_bytes.unwrap());
    }

    #[test]
    fn ws_image_bytes_count_toward_the_bound() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let plain = distinct_snapshot(&mut k, 1, 64);
        let mut with_ws = distinct_snapshot(&mut k, 2, 64);
        with_ws.ws = Some(WsImage::from_fault_log((0..4096).collect()));
        assert!(
            ImageCache::standalone_bytes(&with_ws) > ImageCache::standalone_bytes(&plain),
            "ws.img bytes are charged"
        );

        // Bound fits two plain-size sets but not plain + ws-augmented:
        // the ws.img bytes must tip it over and evict the older entry.
        let cap = ImageCache::standalone_bytes(&plain) * 2 + 16;
        let mut cache = bounded(cap);
        assert!(cache.insert("plain", plain).is_empty());
        let evicted = cache.insert("with-ws", with_ws);
        assert_eq!(evicted, vec!["plain".to_owned()]);

        // A snapshot bigger than the whole budget is refused outright.
        let mut tiny = bounded(8);
        let huge = cache.evict("with-ws").unwrap();
        assert_eq!(tiny.insert("huge", huge), vec!["huge".to_owned()]);
        assert!(tiny.sets.is_empty());
    }

    #[test]
    fn identical_snapshots_do_not_double_charge_the_cap() {
        // Regression: eviction accounting used raw per-set totals, so two
        // byte-identical snapshots charged twice and the second insert
        // evicted the first even though their frames are shared.
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let a = distinct_snapshot(&mut k, 1, 64);
        let b = a.clone();
        let one = ImageCache::standalone_bytes(&a);

        // The budget fits one-and-a-half standalone snapshots: under
        // additive accounting the pair would not fit.
        let mut cache = bounded(one + one / 2);
        assert!(cache.insert("a", a).is_empty());
        assert!(
            cache.insert("b", b).is_empty(),
            "identical twin shares every frame; nothing to evict"
        );
        assert_eq!(cache.sets.len(), 2);

        // Charged: two metadata bases + ONE copy of the shared frames.
        let base = cache.sets.get("a").unwrap().non_payload_bytes();
        let unique = cache
            .sets
            .get("a")
            .unwrap()
            .pagestore
            .as_ref()
            .unwrap()
            .unique_bytes();
        assert_eq!(cache.charged_bytes(), 2 * base + unique);
        assert!(cache.charged_bytes() < 2 * one);
        assert!(
            cache.total_bytes() > cache.charged_bytes(),
            "raw total still reports the undeduped footprint"
        );
    }

    #[test]
    fn extent_table_charges_exactly_its_encoded_size() {
        // Regression: the extent table is restore metadata, so the cache
        // must charge it — but a coalesced image may never charge more
        // than its per-page twin plus the table's encoded bytes.
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let coalesced = distinct_snapshot(&mut k, 1, 64);
        assert!(coalesced.extents.is_some(), "dump emits the extent table");
        let mut per_page = coalesced.clone();
        per_page.extents = None;

        let table_bytes = coalesced.extents.as_ref().unwrap().encode().len() as u64;
        let with = ImageCache::standalone_bytes(&coalesced);
        let without = ImageCache::standalone_bytes(&per_page);
        assert!(with > without, "the table counts toward the budget");
        assert_eq!(with, without + table_bytes, "and no more than its size");

        // The cache-wide charge obeys the same bound.
        let mut cache = ImageCache::new();
        cache.insert("coalesced", coalesced);
        let mut twin = ImageCache::new();
        twin.insert("per-page", per_page);
        assert_eq!(cache.charged_bytes(), twin.charged_bytes() + table_bytes);
    }

    #[test]
    fn cow_restore_straight_from_the_cache() {
        use crate::restore::RestoreMode;
        let (mut k, tracer) = kernel_with_snapshot();
        let mut cache = ImageCache::new();
        cache.preload(&mut k, "fn", "/img").unwrap();
        let opts = RestoreOptions::with_mode("/img", RestoreMode::Cow);
        let s1 = cache.restore_cached(&mut k, tracer, "fn", &opts).unwrap();
        let s2 = cache.restore_cached(&mut k, tracer, "fn", &opts).unwrap();
        assert_eq!(s1.pages_cow, 512);
        assert_eq!(s2.pages_cow, 512);
        // 512 identical 3u8 pages dedup to ONE machine frame, mapped 1024
        // times across the two replicas.
        assert_eq!(k.page_store().frame_count(), 1);
        assert_eq!(k.page_store().external_refs(), 1024);
    }
}
