//! In-memory image cache — the paper's §7 future-work optimisation
//! ("experiment with in-memory optimization on CRIU to speed-up snapshot
//! restore", citing the fast in-memory CRIU work \[26\]).
//!
//! Keeping the parsed [`ImageSet`] resident skips the image-file reads at
//! restore time, which Table 1's calibration prices at ≈0.3 ms/MiB of
//! snapshot — a substantial share for large snapshots like the Image
//! Resizer's 99 MB. The `ablation_memcache` bench quantifies exactly this.
//!
//! Accounting is dedup-aware, and covers everything resident —
//! *including* recorded working-set images (`ws.img`). A snapshot
//! carrying a page store (`pagestore.img`) is charged its metadata plus
//! each *distinct* page frame once; frames shared between resident
//! snapshots — two replicas of one function, or different functions
//! with identical runtime pages — are charged once cache-wide,
//! mirroring how a memfd-backed host pool would hold them. Snapshots without a store (incremental dumps,
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
}

impl ImageCache {
    /// An empty cache.
    pub fn new() -> Self {
        ImageCache::default()
    }

    /// Raw encoded bytes of everything resident, `ws.img` and
    /// `pagestore.img` included — what the snapshots would occupy
    /// *without* cross-snapshot dedup; [`ImageCache::charged_bytes`]
    /// is the deduplicated footprint.
    pub fn total_bytes(&self) -> u64 {
        self.sets.values().map(ImageSet::total_bytes).sum()
    }

    /// Bytes the cache actually holds: per-snapshot metadata
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

    /// Inserts a snapshot under `name`, replacing any snapshot already
    /// there.
    pub fn insert(&mut self, name: impl Into<String>, set: ImageSet) {
        self.sets.insert(name.into(), set);
    }

    /// Loads image files from the guest filesystem into the cache
    /// (charged once; subsequent restores skip the read entirely).
    ///
    /// # Errors
    ///
    /// Propagates image-read errors.
    pub fn preload(
        &mut self,
        kernel: &mut Kernel,
        name: impl Into<String>,
        images_dir: &str,
    ) -> SysResult<()> {
        let span = kernel.span_begin("cache_preload", prebake_sim::kernel::INIT_PID);
        let set = read_images(kernel, images_dir);
        kernel.span_end(span);
        self.insert(name, set?);
        Ok(())
    }

    /// Restores directly from the cache, skipping all image-file I/O.
    ///
    /// # Errors
    ///
    /// [`prebake_sim::Errno::Enoent`] if the snapshot is not cached;
    /// otherwise as [`restore_set`].
    pub fn restore_cached(
        &self,
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
        stats
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

    fn kernel_with_snapshot() -> (Kernel, Pid) {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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
        let cache = ImageCache::new();
        assert!(cache.sets.is_empty());
        assert_eq!(
            cache
                .restore_cached(&mut k, tracer, "nope", &RestoreOptions::new("/img"))
                .unwrap_err(),
            prebake_sim::Errno::Enoent
        );
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

    /// What `set` charges as the cache's only resident.
    fn charged_alone(set: ImageSet) -> u64 {
        let mut cache = ImageCache::new();
        cache.insert("only", set);
        cache.charged_bytes()
    }

    #[test]
    fn ws_image_bytes_count_toward_the_bound() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let plain = distinct_snapshot(&mut k, 1, 64);
        let mut with_ws = plain.clone();
        let ws = WsImage::from_fault_log((0..4096).collect());
        let ws_bytes = ws.encode().len() as u64;
        with_ws.ws = Some(ws);
        assert_eq!(
            charged_alone(with_ws),
            charged_alone(plain) + ws_bytes,
            "ws.img bytes are charged in full"
        );
    }

    #[test]
    fn identical_snapshots_do_not_double_charge_the_cap() {
        // Regression: accounting used raw per-set totals, so two
        // byte-identical snapshots were charged twice even though their
        // frames are shared.
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let a = distinct_snapshot(&mut k, 1, 64);
        let b = a.clone();
        let base = a.non_payload_bytes();
        let unique = (a.pagestore.as_ref().unwrap().unique_pages() * PAGE_SIZE) as u64;
        let mut cache = ImageCache::new();
        cache.insert("a", a);
        cache.insert("b", b);
        assert_eq!(cache.sets.len(), 2);

        // Charged: two metadata bases + ONE copy of the shared frames.
        assert_eq!(cache.charged_bytes(), 2 * base + unique);
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
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let coalesced = distinct_snapshot(&mut k, 1, 64);
        assert!(coalesced.extents.is_some(), "dump emits the extent table");
        let mut per_page = coalesced.clone();
        per_page.extents = None;

        let table_bytes = coalesced.extents.as_ref().unwrap().encode().len() as u64;
        assert!(table_bytes > 0, "the table counts toward the charge");
        assert_eq!(
            charged_alone(coalesced),
            charged_alone(per_page) + table_bytes,
            "and no more than its size"
        );
    }

    #[test]
    fn eager_replicas_share_host_pages_but_never_a_write() {
        let mut k = Kernel::free(9);
        let set = distinct_snapshot(&mut k, 7, 8);
        let fs_before = k.fs_read_file("/img-7/pages.img").unwrap().to_vec();
        let payload_before = set.pages.payload().to_vec();
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let mut cache = ImageCache::new();
        cache.insert("fn", set.clone());
        let opts = RestoreOptions::new("/img-7");
        let replicas = [
            restore_set(&mut k, tracer, &set, &opts).unwrap().pid,
            restore_set(&mut k, tracer, &set, &opts).unwrap().pid,
            cache
                .restore_cached(&mut k, tracer, "fn", &opts)
                .unwrap()
                .pid,
            cache
                .restore_cached(&mut k, tracer, "fn", &opts)
                .unwrap()
                .pid,
        ];
        let heap = set.mm.vmas[0].start;
        assert_eq!(set.mm.vmas[0].kind, VmaKind::RuntimeHeap);
        let len = 8 * PAGE_SIZE as u64;
        let host_page = |k: &mut Kernel, pid| k.mem_view(pid, heap, 1).unwrap()[0].as_ptr();
        let first = host_page(&mut k, replicas[0]);
        assert_eq!(first, set.pages.payload().as_ptr(), "a view of the image");
        for &pid in &replicas[1..] {
            assert_eq!(host_page(&mut k, pid), first, "every replica shares it");
        }

        let mut expected: Vec<Vec<u8>> = replicas
            .iter()
            .map(|&pid| k.mem_read(pid, heap, len).unwrap())
            .collect();
        for (i, &writer) in replicas.iter().enumerate() {
            let at = heap.add(i as u64 * PAGE_SIZE as u64 + 1);
            let stats = k.process_mut(writer).unwrap().mem.write(at, &[0xEE; 2]);
            let stats = stats.unwrap();
            assert_eq!((stats.cow_broken, stats.pages_materialized), (0, 0));
            let off = i * PAGE_SIZE + 1;
            expected[i][off..off + 2].copy_from_slice(&[0xEE; 2]);
            for (&pid, want) in replicas.iter().zip(&expected) {
                assert_eq!(&k.mem_read(pid, heap, len).unwrap(), want);
            }
        }
        assert_ne!(host_page(&mut k, replicas[0]), first, "the writer unshared");
        assert_eq!(set.pages.payload(), &payload_before[..]);
        assert_eq!(cache.sets["fn"].pages.payload(), &payload_before[..]);
        assert_eq!(k.fs_read_file("/img-7/pages.img").unwrap(), fs_before);
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
        assert_eq!(k.page_store().resident_bytes(), PAGE_SIZE as u64);
        assert_eq!(k.page_store().external_refs(), 1024);
    }
}
