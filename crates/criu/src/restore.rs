//! The restore pipeline: image read → task re-creation → memory
//! reinstatement → descriptor re-opening → resume.
//!
//! Mirrors CRIU's restore as the paper describes it: "the CRIU tool
//! process transmutes itself into the checkpointed process — it reads the
//! dump files and restores the process's state, recreates all namespaces
//! and opened files, and finally the checkpointed memory is remapped."
//! Restore is a privileged operation (`CAP_CHECKPOINT_RESTORE`); the
//! OpenFaaS integration (paper §5) models `docker run --privileged` by
//! granting that capability to the watchdog.

use prebake_sim::cost::per_byte;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::mem::{AddressSpace, Page, PAGE_SIZE};
use prebake_sim::proc::{FdEntry, FdTable, Pid, ProcState, Thread, ThreadState};
use prebake_sim::time::SimDuration;

use prebake_sim::uffd::UffdBackend;

use crate::costs::CriuCosts;
use crate::dump::{read_images, read_images_lazy};
use crate::image::ImageSet;

/// How the restored process's pid is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestorePid {
    /// Re-create the exact dumped pid (CRIU's default; requires the pid to
    /// be free, as it is inside a fresh pid namespace).
    Same,
    /// Let the kernel pick a fresh pid (models pid-namespace translation
    /// when restoring many replicas on one host).
    #[default]
    Fresh,
}

/// How memory is reinstated at restore.
///
/// `Eager` is CRIU's default (`criu restore` copies every dumped page
/// before resuming). The other three model `--lazy-pages` as REAP
/// (ASPLOS '21) refined it: the address space is mapped with its payload
/// *withheld* behind the fault handler, so the process resumes after
/// only metadata work and pages arrive on first touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestoreMode {
    /// Install every dumped page before resume.
    #[default]
    Eager,
    /// Map everything missing; serve each page on first touch (pure
    /// demand paging — worst-case fault count, minimal restore latency).
    Lazy,
    /// As [`RestoreMode::Lazy`], additionally recording the ordered
    /// first-touch working set so it can be persisted as `ws.img`.
    Record,
    /// As [`RestoreMode::Lazy`], but first bulk-load the recorded
    /// working set (`ws.img`) in one batched copy; only residual pages
    /// outside the working set fault.
    Prefetch,
    /// Map every stored page copy-on-write from the machine's shared
    /// frame pool instead of byte-copying it. Replicas restored from the
    /// same snapshot (or any snapshot sharing page content) reference
    /// one physical frame per distinct page; the copy is deferred to
    /// first *write*. Requires `pagestore.img`.
    Cow,
    /// As [`RestoreMode::Cow`] for the recorded working set, with the
    /// residual stored pages left behind the fault handler as in
    /// [`RestoreMode::Prefetch`]. Requires `pagestore.img` and `ws.img`.
    CowPrefetch,
}

impl RestoreMode {
    /// Whether this mode defers page payload behind a mapping instead of
    /// reading it up front (every mode but eager: the image payload is
    /// mmapped, not copied, at restore).
    pub fn is_lazy(self) -> bool {
        !matches!(self, RestoreMode::Eager)
    }

    /// Whether this mode maps shared frames copy-on-write.
    pub fn is_cow(self) -> bool {
        matches!(self, RestoreMode::Cow | RestoreMode::CowPrefetch)
    }

    /// Whether this mode consumes a recorded working set (`ws.img`) —
    /// builders must run the record pass before shipping such images.
    pub fn needs_ws(self) -> bool {
        matches!(self, RestoreMode::Prefetch | RestoreMode::CowPrefetch)
    }
}

/// Options for a restore.
#[derive(Debug, Clone)]
pub struct RestoreOptions {
    /// Guest directory holding the image files.
    pub images_dir: String,
    /// Pid policy.
    pub pid: RestorePid,
    /// Memory reinstatement policy.
    pub mode: RestoreMode,
    /// Cost table.
    pub costs: CriuCosts,
    /// Reinstate memory run-at-a-time from the image's extent table
    /// (scatter-gather copies, run-granular CoW maps, vectored
    /// prefetch) instead of page-at-a-time. The page-granular path pays
    /// [`CriuCosts::restore_page_op`] per page where the vectored path
    /// pays one [`prebake_sim::cost::CostModel::extent_setup`] per run.
    pub vectored: bool,
    /// Fault-around window for uffd-backed modes: one trap services up
    /// to this many consecutive withheld pages in a single batch.
    /// Values below 1 behave as 1 (no fault-around).
    pub fault_around: usize,
    /// Restorer worker threads for the sharded parallel install. The
    /// extent table is partitioned into contiguous shards over disjoint
    /// page ranges; each worker streams and installs its own shard, so
    /// the wall cost is the slowest shard plus a
    /// [`CriuCosts::shard_spawn`] tax per worker instead of the serial
    /// sum. Values below 2 take the serial path bit-for-bit.
    pub threads: usize,
}

impl RestoreOptions {
    /// Paper-calibrated options with fresh-pid policy, eager memory and
    /// the vectored extent path on.
    pub fn new(images_dir: impl Into<String>) -> RestoreOptions {
        RestoreOptions {
            images_dir: images_dir.into(),
            pid: RestorePid::Fresh,
            mode: RestoreMode::Eager,
            costs: CriuCosts::paper_calibrated(),
            vectored: true,
            fault_around: 1,
            threads: 1,
        }
    }

    /// Same, with an explicit memory mode.
    pub fn with_mode(images_dir: impl Into<String>, mode: RestoreMode) -> RestoreOptions {
        RestoreOptions {
            mode,
            ..RestoreOptions::new(images_dir)
        }
    }
}

/// Statistics of a completed restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreStats {
    /// Pid of the restored process.
    pub pid: Pid,
    /// Mappings re-created.
    pub vmas: usize,
    /// Non-zero pages installed.
    pub pages_installed: usize,
    /// Zero pages satisfied by demand-zero mappings.
    pub zero_pages: usize,
    /// Pages left withheld behind the fault handler at resume (lazy
    /// modes; zero for eager).
    pub pages_lazy: usize,
    /// Working-set pages bulk-loaded before resume
    /// ([`RestoreMode::Prefetch`] only).
    pub pages_prefetched: usize,
    /// Pages mapped copy-on-write from the shared frame pool
    /// ([`RestoreMode::Cow`]/[`RestoreMode::CowPrefetch`] only).
    pub pages_cow: usize,
    /// Extent runs vectored in during restore (eager scatter-gather
    /// copies and run-granular CoW maps; zero on the page-granular
    /// path). Working-set prefetch runs surface as
    /// [`prebake_sim::probe::ProbeKind::ExtentCopy`] events instead.
    pub extents: usize,
    /// File descriptors re-opened.
    pub fds: usize,
    /// Parallel shards the memory install ran as (1 on the serial path
    /// and in modes with no install work to shard).
    pub shards: usize,
    /// Payload bytes the prefetch loader streamed sequentially instead
    /// of seeking for — non-zero only under [`RestoreMode::Prefetch`],
    /// and maximised by a fault-order (`criu repack`) image layout.
    pub seek_bytes_avoided: u64,
    /// Pages served from the compaction fallback layer's image rather
    /// than the hot working-set image (zero without `repack --compact`).
    pub pages_compacted: usize,
    /// Virtual time the restore took.
    pub elapsed: SimDuration,
}

/// Restores a process from image files on the guest filesystem (the
/// `criu restore` entry point).
///
/// # Errors
///
/// [`Errno::Eperm`] if `requester` lacks a checkpoint-capable capability,
/// [`Errno::Eexist`] if [`RestorePid::Same`] finds the pid taken,
/// [`Errno::Eaddrinuse`] if a dumped listener's port is bound, plus image
/// errors as [`Errno::Einval`].
pub fn restore(
    kernel: &mut Kernel,
    requester: Pid,
    opts: &RestoreOptions,
) -> SysResult<RestoreStats> {
    let t0 = kernel.now();
    let span = kernel.span_begin("criu_restore", requester);
    let parse = kernel.span_begin("image_parse", requester);
    // A sharded eager restore streams the payload from inside its
    // workers (each shard prices its own slice of the read), so it maps
    // the image like the lazy modes do instead of paying one serial
    // up-front read.
    let set = if opts.mode.is_lazy() || opts.threads > 1 {
        read_images_lazy(kernel, &opts.images_dir)
    } else {
        read_images(kernel, &opts.images_dir)
    };
    kernel.span_end(parse);
    let result = set.and_then(|set| restore_set(kernel, requester, &set, opts));
    kernel.span_end(span);
    let mut stats = result?;
    // Account the image read too: `elapsed` is the full `criu restore`
    // wall time, which is what lazy modes shrink by deferring the
    // payload read.
    stats.elapsed = kernel.now() - t0;
    Ok(stats)
}

/// Restores a process from an already-loaded [`ImageSet`] (the in-memory
/// cache path — the paper's §7 future-work optimisation).
///
/// # Errors
///
/// As [`restore`], minus the filesystem reads.
pub fn restore_set(
    kernel: &mut Kernel,
    requester: Pid,
    set: &ImageSet,
    opts: &RestoreOptions,
) -> SysResult<RestoreStats> {
    let t0 = kernel.now();
    if !kernel.process(requester)?.caps.can_checkpoint() {
        return Err(Errno::Eperm);
    }
    let span = kernel.span_begin("criu_restore_set", requester);
    kernel.charge(opts.costs.restore_base);

    // Task re-creation.
    let pid = match opts.pid {
        RestorePid::Same => kernel.sys_clone_with_pid(requester, set.core.pid)?,
        RestorePid::Fresh => kernel.sys_clone(requester)?,
    };

    // Memory: rebuild the address space exactly as dumped.
    let vma_span = kernel.span_begin("restore_vmas", pid);
    kernel.span_attr(vma_span, "vmas", set.mm.vmas.len().to_string());
    kernel.charge(opts.costs.restore_per_vma * set.mm.vmas.len() as u64);
    {
        let proc = kernel.process_mut(pid)?;
        proc.mem = AddressSpace::new();
        for vma in &set.mm.vmas {
            proc.mem
                .mmap_fixed(vma.start, vma.len, vma.prot, vma.kind.clone())?;
        }
    }
    kernel.span_end(vma_span);
    let mut installed = 0usize;
    let mut pages_lazy = 0usize;
    let mut pages_prefetched = 0usize;
    let mut pages_cow = 0usize;
    let mut extents = 0usize;
    let mut shards = 1usize;
    let mut seek_bytes_avoided = 0u64;

    // Compaction fallback layer (`criu repack --compact`): pages outside
    // the recorded hot set ride in a separate image pair that every mode
    // parks behind the fault handler. A touch outside the working set
    // falls through to the full image at the kernel's `fault_fallback`
    // penalty instead of restoring a hole.
    let fallback_pages: Vec<(u64, Page)> = match &set.fallback {
        Some(fb) => {
            let mut pages = Vec::with_capacity(fb.stored_pages());
            for (page_index, source) in fb.iter_pages() {
                match source {
                    crate::image::PageSource::Bytes(bytes) => pages.push((
                        page_index,
                        Page::from_bytes(bytes.try_into().map_err(|_| Errno::Einval)?),
                    )),
                    crate::image::PageSource::Zero => {}
                    crate::image::PageSource::Parent => return Err(Errno::Einval),
                }
            }
            pages
        }
        None => Vec::new(),
    };
    let pages_compacted = fallback_pages.len();
    match opts.mode {
        RestoreMode::Cow | RestoreMode::CowPrefetch => {
            // Map stored pages copy-on-write from the machine's shared
            // frame pool: one PTE per page, no payload copy. The dedup
            // view tells us each page's content hash, which keys the
            // pool — replicas of the same snapshot resolve to the same
            // physical frames. Zero pages stay demand-zero.
            let store = set.pagestore.as_ref().ok_or(Errno::Einval)?;
            let mode_span = kernel.span_begin("restore_cow_map", pid);
            let ws_filter: Option<std::collections::BTreeSet<u64>> =
                if opts.mode == RestoreMode::CowPrefetch {
                    let ws = set.ws.as_ref().ok_or(Errno::Einval)?;
                    Some(ws.pages.iter().copied().collect())
                } else {
                    None
                };
            let mut backend = UffdBackend::new();
            if opts.vectored && opts.threads > 1 {
                // Sharded CoW map: coalesce in-set refs into runs, then
                // split the run list into contiguous shards mapped by
                // concurrent workers. Frame decoding happens on real
                // host threads; the per-shard mapping charges are
                // measured serially and overlapped below.
                // (start page index, per-page (content hash, payload)).
                type CowRun<'a> = (u64, Vec<(u64, &'a [u8])>);
                let mut runs: Vec<CowRun<'_>> = Vec::new();
                for (page_index, hash, bytes) in store.iter_refs() {
                    if bytes.len() != PAGE_SIZE {
                        return Err(Errno::Einval);
                    }
                    let in_ws = ws_filter.as_ref().is_none_or(|ws| ws.contains(&page_index));
                    if !in_ws {
                        let frame: &[u8; PAGE_SIZE] =
                            bytes.try_into().map_err(|_| Errno::Einval)?;
                        backend.insert_page(page_index, Page::from_bytes(frame));
                        continue;
                    }
                    match runs.last_mut() {
                        Some((start, run)) if *start + run.len() as u64 == page_index => {
                            run.push((hash, bytes));
                        }
                        _ => runs.push((page_index, vec![(hash, bytes)])),
                    }
                    pages_cow += 1;
                }
                let weights: Vec<usize> = runs.iter().map(|(_, r)| r.len()).collect();
                let ranges = partition_by_weight(&weights, opts.threads);
                let decoded = decode_shards(&runs, &ranges, |(start, run)| {
                    let frames: Vec<(u64, Page)> = run
                        .iter()
                        .map(|(hash, bytes)| {
                            (
                                *hash,
                                Page::from_bytes((*bytes).try_into().expect("page-sized")),
                            )
                        })
                        .collect();
                    (*start, frames)
                });
                shards = decoded.len().max(1);
                let mut waves = Vec::with_capacity(decoded.len());
                for (shard_id, shard) in decoded.iter().enumerate() {
                    let (shard_pages, cost) = kernel.uncharged(|k| {
                        let before = k.now();
                        let mut shard_pages = 0usize;
                        for (start, frames) in shard {
                            k.cow_map_extent(pid, *start, frames)?;
                            shard_pages += frames.len();
                        }
                        k.charge(opts.costs.restore_per_cow_page * shard_pages as u64);
                        Ok((shard_pages, k.now() - before))
                    })?;
                    extents += shard.len();
                    waves.push((shard_id, shard_pages, cost));
                }
                charge_overlapped_shards(kernel, pid, &opts.costs, waves);
            } else {
                // Run accumulator for the vectored path: consecutive
                // in-set refs map as one scatter-gather CoW operation.
                let mut run_start = 0u64;
                let mut run: Vec<(u64, Page)> = Vec::new();
                for (page_index, hash, bytes) in store.iter_refs() {
                    let frame: &[u8; PAGE_SIZE] = bytes.try_into().map_err(|_| Errno::Einval)?;
                    let in_working_set =
                        ws_filter.as_ref().is_none_or(|ws| ws.contains(&page_index));
                    if in_working_set {
                        if opts.vectored {
                            if !run.is_empty() && run_start + run.len() as u64 != page_index {
                                kernel.cow_map_extent(pid, run_start, &run)?;
                                extents += 1;
                                run.clear();
                            }
                            if run.is_empty() {
                                run_start = page_index;
                            }
                            run.push((hash, Page::from_bytes(frame)));
                        } else {
                            kernel.cow_map(pid, page_index, hash, || Page::from_bytes(frame))?;
                        }
                        pages_cow += 1;
                    } else {
                        backend.insert_page(page_index, Page::from_bytes(frame));
                    }
                }
                if !run.is_empty() {
                    kernel.cow_map_extent(pid, run_start, &run)?;
                    extents += 1;
                }
                kernel.charge(opts.costs.restore_per_cow_page * pages_cow as u64);
                if !opts.vectored {
                    // The page-granular path dispatches one mapping
                    // operation per page.
                    kernel.charge(opts.costs.restore_page_op * pages_cow as u64);
                }
            }
            for (page_index, page) in fallback_pages {
                backend.insert_fallback_page(page_index, page);
            }
            if opts.mode == RestoreMode::CowPrefetch || backend.fallback_len() > 0 {
                // Residual pages outside the working set (and any
                // compaction fallback layer) are served on demand,
                // exactly as a prefetch-mode restore leaves them.
                pages_lazy = backend.len();
                backend.set_fault_around(opts.fault_around);
                kernel.charge(opts.costs.lazy_register);
                kernel.uffd_register(pid, backend)?;
            }
            kernel.span_attr(mode_span, "pages_cow", pages_cow.to_string());
            kernel.span_attr(mode_span, "pages_lazy", pages_lazy.to_string());
            kernel.span_attr(mode_span, "extents", extents.to_string());
            kernel.span_end(mode_span);
        }
        RestoreMode::Lazy | RestoreMode::Record | RestoreMode::Prefetch => {
            // Defer the payload behind the fault handler: collect every
            // non-zero page into a backend, register it, and let first
            // touches (or an up-front prefetch of the recorded working
            // set) pull pages in. Zero pages stay demand-zero either way.
            let mode_span = kernel.span_begin("restore_lazy_register", pid);
            let mut backend = UffdBackend::new();
            for (page_index, source) in set.pages.iter_pages() {
                match source {
                    crate::image::PageSource::Bytes(bytes) => {
                        let page = Page::from_bytes(bytes.try_into().map_err(|_| Errno::Einval)?);
                        backend.insert_page(page_index, page);
                    }
                    crate::image::PageSource::Zero => {}
                    crate::image::PageSource::Parent => return Err(Errno::Einval),
                }
            }
            for (page_index, page) in fallback_pages {
                backend.insert_fallback_page(page_index, page);
            }
            pages_lazy = backend.len();
            backend.set_fault_around(opts.fault_around);
            kernel.charge(opts.costs.lazy_register);
            kernel.uffd_register(pid, backend)?;
            match opts.mode {
                RestoreMode::Record => kernel.uffd_set_record(pid, true)?,
                RestoreMode::Prefetch => {
                    let ws = set.ws.as_ref().ok_or(Errno::Einval)?;
                    // Seek-vs-sequential read split: the prefetch loader
                    // streams `pages.img` in working-set order, paying
                    // one `fs_seek` whenever the next page's image
                    // position is not the successor of the previous
                    // one. A fault-order image (`criu repack`) lays the
                    // working set out contiguously, collapsing this to
                    // a single seek; a dump-order image pays one per
                    // address-contiguous run.
                    let mut position = std::collections::HashMap::new();
                    let mut next_pos = 0u64;
                    for (page_index, source) in set.pages.iter_pages() {
                        if matches!(source, crate::image::PageSource::Bytes(_)) {
                            position.insert(page_index, next_pos);
                            next_pos += 1;
                        }
                    }
                    let mut seeks = 0u64;
                    let mut streamed = 0u64;
                    let mut prev: Option<u64> = None;
                    for page_index in &ws.pages {
                        if let Some(&pos) = position.get(page_index) {
                            streamed += 1;
                            if prev.is_none_or(|p| p + 1 != pos) {
                                seeks += 1;
                            }
                            prev = Some(pos);
                        }
                    }
                    seek_bytes_avoided = streamed.saturating_sub(seeks) * PAGE_SIZE as u64;
                    let seek = kernel.costs().fs_seek;
                    kernel.charge(seek * seeks);
                    pages_prefetched = if opts.vectored {
                        // Push the working set run-at-a-time: one setup
                        // charge per coalesced extent.
                        kernel.uffd_prefetch_vectored(pid, &ws.pages)? as usize
                    } else {
                        let n = kernel.uffd_prefetch(pid, &ws.pages)? as usize;
                        kernel.charge(opts.costs.restore_page_op * n as u64);
                        n
                    };
                    pages_lazy -= pages_prefetched;
                }
                _ => {}
            }
            kernel.span_attr(mode_span, "pages_lazy", pages_lazy.to_string());
            kernel.span_attr(mode_span, "pages_prefetched", pages_prefetched.to_string());
            kernel.span_end(mode_span);
        }
        RestoreMode::Eager => {
            // Install payload pages; zero pages stay demand-zero.
            // Unresolved parent references mean the caller skipped
            // `read_images`'s parent resolution — refuse rather than
            // restore holes.
            let mode_span = kernel.span_begin("restore_eager_copy", pid);
            if opts.threads > 1 {
                if set.pages.parent_pages() > 0 {
                    return Err(Errno::Einval);
                }
                // Sharded parallel install. Partition the install units
                // — coalesced extents on the vectored path, single
                // pages on the page-granular one — into contiguous
                // shards over disjoint page ranges. Each worker streams
                // its own slice of the payload (the caller mapped the
                // image without charging the read, so every shard
                // prices one seek to its offset plus a sequential
                // warm-rate scan of its bytes) and installs its units.
                // Wall cost is the slowest shard plus the spawn tax.
                let mut units: Vec<(u64, Vec<&[u8]>)> = Vec::new();
                if opts.vectored {
                    let table = set.extent_view();
                    let mut stored = set.pages.iter_pages().filter_map(|(i, s)| match s {
                        crate::image::PageSource::Bytes(bytes) => Some((i, bytes)),
                        _ => None,
                    });
                    for extent in &table.extents {
                        let mut bufs = Vec::with_capacity(extent.pages as usize);
                        for _ in 0..extent.pages {
                            let (_, bytes) = stored.next().ok_or(Errno::Einval)?;
                            if bytes.len() != PAGE_SIZE {
                                return Err(Errno::Einval);
                            }
                            bufs.push(bytes);
                        }
                        units.push((extent.start_index, bufs));
                    }
                } else {
                    for (page_index, source) in set.pages.iter_pages() {
                        if let crate::image::PageSource::Bytes(bytes) = source {
                            if bytes.len() != PAGE_SIZE {
                                return Err(Errno::Einval);
                            }
                            units.push((page_index, vec![bytes]));
                        }
                    }
                }
                let weights: Vec<usize> = units.iter().map(|(_, b)| b.len()).collect();
                let ranges = partition_by_weight(&weights, opts.threads);
                let decoded = decode_shards(&units, &ranges, |(start, bufs)| {
                    let pages: Vec<Page> = bufs
                        .iter()
                        .map(|b| Page::from_bytes((*b).try_into().expect("page-sized")))
                        .collect();
                    (*start, pages)
                });
                shards = decoded.len().max(1);
                let warm = kernel.costs().fs_read_warm_ns_per_byte;
                let seek = kernel.costs().fs_seek;
                let mut waves = Vec::with_capacity(decoded.len());
                for (shard_id, shard) in decoded.iter().enumerate() {
                    let (shard_pages, cost) = kernel.uncharged(|k| {
                        let before = k.now();
                        let shard_pages: usize = shard.iter().map(|(_, p)| p.len()).sum();
                        k.charge(seek + per_byte((shard_pages * PAGE_SIZE) as u64, warm));
                        for (start, pages) in shard {
                            k.copy_extent(pid, *start, pages)?;
                        }
                        if !opts.vectored {
                            // One page-granular dispatch per page — the
                            // cost the vectored path amortises into one
                            // `extent_setup` per run.
                            k.charge(opts.costs.restore_page_op * shard_pages as u64);
                        }
                        k.charge(opts.costs.restore_per_page * shard_pages as u64);
                        Ok((shard_pages, k.now() - before))
                    })?;
                    installed += shard_pages;
                    if opts.vectored {
                        extents += shard.len();
                    }
                    waves.push((shard_id, shard_pages, cost));
                }
                charge_overlapped_shards(kernel, pid, &opts.costs, waves);
            } else if opts.vectored {
                if set.pages.parent_pages() > 0 {
                    return Err(Errno::Einval);
                }
                // Walk the extent table, gathering each run's payload
                // pages (stored entries appear in pagemap order, so the
                // runs consume them sequentially) and installing the
                // run with one scatter-gather copy.
                let table = set.extent_view();
                let mut stored = set.pages.iter_pages().filter_map(|(i, s)| match s {
                    crate::image::PageSource::Bytes(bytes) => Some((i, bytes)),
                    _ => None,
                });
                for extent in &table.extents {
                    let mut buf = Vec::with_capacity(extent.pages as usize);
                    for _ in 0..extent.pages {
                        let (_, bytes) = stored.next().ok_or(Errno::Einval)?;
                        buf.push(Page::from_bytes(
                            bytes.try_into().map_err(|_| Errno::Einval)?,
                        ));
                    }
                    kernel.copy_extent(pid, extent.start_index, &buf)?;
                    installed += buf.len();
                    extents += 1;
                }
                kernel.charge(opts.costs.restore_per_page * installed as u64);
            } else {
                let proc = kernel.process_mut(pid)?;
                for (page_index, source) in set.pages.iter_pages() {
                    match source {
                        crate::image::PageSource::Bytes(bytes) => {
                            let page =
                                Page::from_bytes(bytes.try_into().map_err(|_| Errno::Einval)?);
                            proc.mem.install_page(page_index, page)?;
                            installed += 1;
                        }
                        crate::image::PageSource::Zero => {}
                        crate::image::PageSource::Parent => return Err(Errno::Einval),
                    }
                }
                // One page-granular dispatch per installed page — the
                // cost the vectored path amortises into one
                // `extent_setup` per run.
                kernel.charge(opts.costs.restore_page_op * installed as u64);
                kernel.charge(opts.costs.restore_per_page * installed as u64);
            }
            if !fallback_pages.is_empty() {
                // Faults outside the compacted hot set fall through to
                // the full image behind the fault handler.
                let mut backend = UffdBackend::new();
                for (page_index, page) in fallback_pages {
                    backend.insert_fallback_page(page_index, page);
                }
                pages_lazy = backend.len();
                backend.set_fault_around(opts.fault_around);
                kernel.charge(opts.costs.lazy_register);
                kernel.uffd_register(pid, backend)?;
            }
            kernel.span_attr(mode_span, "pages", installed.to_string());
            kernel.span_attr(mode_span, "extents", extents.to_string());
            kernel.span_end(mode_span);
        }
    }

    // Descriptors.
    let fd_span = kernel.span_begin("restore_fds", pid);
    kernel.span_attr(fd_span, "fds", set.files.fds.len().to_string());
    kernel.charge(opts.costs.restore_per_fd * set.files.fds.len() as u64);
    {
        let proc = kernel.process_mut(pid)?;
        proc.fds = FdTable::new();
    }
    for (fd, entry) in &set.files.fds {
        match entry {
            FdEntry::Listener { port } => {
                kernel.sys_listen_at(pid, *fd, *port)?;
            }
            other => {
                kernel.process_mut(pid)?.fds.insert_at(*fd, other.clone())?;
            }
        }
    }
    kernel.span_end(fd_span);

    // Identity, threads, resume.
    {
        let proc = kernel.process_mut(pid)?;
        proc.comm = set.core.comm.clone();
        proc.cmdline = set.core.cmdline.clone();
        proc.threads = set
            .core
            .threads
            .iter()
            .map(|t| Thread {
                tid: t.tid,
                state: ThreadState::Running,
                regs: t.regs,
            })
            .collect();
        proc.state = ProcState::Running;
    }
    let resume = kernel.costs().sched_resume;
    kernel.charge(resume);
    kernel.span_end(span);

    Ok(RestoreStats {
        pid,
        vmas: set.mm.vmas.len(),
        pages_installed: installed,
        zero_pages: set.pages.zero_pages(),
        pages_lazy,
        pages_prefetched,
        pages_cow,
        extents,
        fds: set.files.fds.len(),
        shards,
        seek_bytes_avoided,
        pages_compacted,
        elapsed: kernel.now() - t0,
    })
}

/// Splits `weights` (pages per install unit) into at most `threads`
/// contiguous non-empty ranges balanced by total weight. Units are
/// whole extents on the vectored path, so a scatter-gather run is never
/// split across workers and shards cover disjoint page ranges.
fn partition_by_weight(weights: &[usize], threads: usize) -> Vec<std::ops::Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let total: usize = weights.iter().sum();
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut cum = 0usize;
    for (i, w) in weights.iter().enumerate() {
        cum += w;
        let closed = ranges.len();
        if closed + 1 < threads {
            let units_left = n - (i + 1);
            let shards_left = threads - closed - 1;
            let target = (total * (closed + 1)).div_ceil(threads);
            // Close the shard at its even share of the total, or when
            // the remaining units are only just enough to keep every
            // remaining shard non-empty.
            if (cum >= target && units_left >= shards_left) || units_left == shards_left {
                ranges.push(start..i + 1);
                start = i + 1;
            }
        }
    }
    ranges.push(start..n);
    ranges
}

/// Fans per-shard decoding (image bytes → page buffers, the host-side
/// share of a sharded restore) out across real worker threads. Results
/// land in pre-allocated per-shard slots, so the merge order — and with
/// it the downstream charge sequence — is deterministic regardless of
/// thread interleaving.
fn decode_shards<U, T, F>(items: &[U], ranges: &[std::ops::Range<usize>], decode: F) -> Vec<Vec<T>>
where
    U: Sync,
    T: Send,
    F: Fn(&U) -> T + Sync,
{
    let mut decoded: Vec<Vec<T>> = Vec::new();
    decoded.resize_with(ranges.len(), Vec::new);
    crossbeam::thread::scope(|scope| {
        for (slot, range) in decoded.iter_mut().zip(ranges) {
            let work = &items[range.clone()];
            let decode = &decode;
            scope.spawn(move |_| *slot = work.iter().map(decode).collect());
        }
    })
    .expect("restore shard decode worker panicked");
    decoded
}

/// Charges independently-measured shard costs as *overlapped* virtual
/// time: a [`CriuCosts::shard_spawn`] tax per worker, then the clock
/// advances to the slowest shard's completion. Shards are emitted as a
/// completion wave of sibling `restore_shard` spans — sorted by cost,
/// each span covering its shard's marginal critical-path contribution —
/// because the tracer nests strictly and cannot represent true sibling
/// overlap. Each span carries its shard's full cost and page count as
/// attributes.
fn charge_overlapped_shards(
    kernel: &mut Kernel,
    pid: Pid,
    costs: &CriuCosts,
    mut waves: Vec<(usize, usize, SimDuration)>,
) {
    if waves.is_empty() {
        return;
    }
    kernel.charge(costs.shard_spawn * waves.len() as u64);
    let t0 = kernel.now();
    waves.sort_by_key(|&(shard, _, cost)| (cost, shard));
    for (shard, pages, cost) in waves {
        let span = kernel.span_begin("restore_shard", pid);
        kernel.span_attr(span, "shard", shard.to_string());
        kernel.span_attr(span, "pages", pages.to_string());
        kernel.span_attr(span, "cost_ns", cost.as_nanos().to_string());
        kernel.advance_to(t0 + cost);
        kernel.span_end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{dump, DumpOptions};
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::{Prot, VirtAddr, VmaKind, PAGE_SIZE};
    use prebake_sim::proc::CapSet;

    fn checkpointed_kernel() -> (Kernel, Pid, Vec<u8>) {
        let mut k = Kernel::free(5);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, 4 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 250 + 1) as u8).collect();
        k.mem_write(target, addr, &payload).unwrap();
        k.sys_listen(target, 9090).unwrap();
        k.sys_open(target, "/data").ok(); // no file: ignore
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        (k, tracer, payload)
    }

    #[test]
    fn restore_reinstates_memory_and_fds() {
        let (mut k, tracer, payload) = checkpointed_kernel();
        let stats = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
        assert_eq!(stats.vmas, 1);
        assert_eq!(stats.pages_installed, 2, "5000 bytes = 2 pages");
        assert_eq!(stats.fds, 1);

        let pid = stats.pid;
        let proc = k.process(pid).unwrap();
        assert_eq!(proc.state, ProcState::Running);
        let vma = proc.mem.vmas().next().unwrap().clone();
        let bytes = k.mem_read(pid, vma.start, payload.len() as u64).unwrap();
        assert_eq!(bytes, payload);
        assert_eq!(k.port_owner(9090), Some(pid), "listener re-bound");
    }

    #[test]
    fn restore_same_pid_policy() {
        let (mut k, tracer, _) = checkpointed_kernel();
        let set = read_images(&mut k, "/img").unwrap();
        let dumped_pid = set.core.pid;
        let mut opts = RestoreOptions::new("/img");
        opts.pid = RestorePid::Same;
        let stats = restore(&mut k, tracer, &opts).unwrap();
        assert_eq!(stats.pid, dumped_pid);

        // Doing it again: pid now taken.
        k.process_mut(stats.pid).unwrap().fds = FdTable::new(); // free port
        let mut k2 = k;
        k2.sys_close(stats.pid, 3).ok();
        assert!(matches!(
            restore(&mut k2, tracer, &opts).unwrap_err(),
            Errno::Eexist | Errno::Eaddrinuse
        ));
    }

    #[test]
    fn restore_requires_capability() {
        let (mut k, tracer, _) = checkpointed_kernel();
        k.process_mut(tracer).unwrap().caps = CapSet::empty();
        assert_eq!(
            restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap_err(),
            Errno::Eperm
        );
    }

    #[test]
    fn restore_fails_if_port_taken() {
        let (mut k, tracer, _) = checkpointed_kernel();
        let squatter = k.sys_clone(INIT_PID).unwrap();
        k.sys_listen(squatter, 9090).unwrap();
        assert_eq!(
            restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap_err(),
            Errno::Eaddrinuse
        );
    }

    #[test]
    fn restored_memory_is_observably_equal() {
        // Dump with leave_running, restore fresh, compare spaces.
        let mut k = Kernel::free(6);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let a = k
            .sys_mmap(target, 16 * PAGE_SIZE as u64, Prot::RW, VmaKind::Metaspace)
            .unwrap();
        for i in 0..10u64 {
            let data = vec![(i as u8) + 1; 300];
            k.mem_write(target, a.add(i * PAGE_SIZE as u64), &data)
                .unwrap();
        }
        let mut dopts = DumpOptions::new(target, "/img");
        dopts.leave_running = true;
        dump(&mut k, tracer, &dopts).unwrap();
        let stats = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
        let original = k.process(target).unwrap().mem.clone();
        let restored = &k.process(stats.pid).unwrap().mem;
        assert!(original.observably_equal(restored));
    }

    #[test]
    fn zero_pages_restore_as_demand_zero() {
        let mut k = Kernel::free(7);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let a = k
            .sys_mmap(target, 2 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        k.mem_write(target, a, &[0u8; PAGE_SIZE]).unwrap(); // zero page, materialised
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        let stats = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
        assert_eq!(stats.pages_installed, 0);
        assert_eq!(stats.zero_pages, 1);
        // Still reads as zeros without being materialised.
        let proc = k.process(stats.pid).unwrap();
        assert_eq!(proc.mem.resident_pages(), 0);
        let bytes = k.mem_read(stats.pid, VirtAddr(a.0), 64).unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn lazy_restore_defers_pages_and_faults_on_touch() {
        let (mut k, tracer, payload) = checkpointed_kernel();
        let stats = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Lazy),
        )
        .unwrap();
        assert_eq!(stats.pages_installed, 0, "nothing installed eagerly");
        assert_eq!(stats.pages_lazy, 2, "5000 bytes = 2 withheld pages");
        assert_eq!(stats.pages_prefetched, 0);

        let pid = stats.pid;
        assert!(k.uffd_registered(pid));
        assert_eq!(k.process(pid).unwrap().mem.missing_pages(), 2);

        // First touch resolves through the fault handler and the content
        // matches the checkpoint byte-for-byte.
        let vma = k.process(pid).unwrap().mem.vmas().next().unwrap().clone();
        let bytes = k.mem_read(pid, vma.start, payload.len() as u64).unwrap();
        assert_eq!(bytes, payload);
        let (major, _) = k.uffd_fault_counts(pid);
        assert_eq!(major, 2);
        assert_eq!(k.process(pid).unwrap().mem.missing_pages(), 0);
    }

    #[test]
    fn record_then_prefetch_round_trip() {
        use crate::image::WsImage;

        let (mut k, tracer, payload) = checkpointed_kernel();

        // Record pass: restore lazily, drive one "invocation" (read the
        // payload), harvest the ordered working set.
        let rec = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Record),
        )
        .unwrap();
        let vma = k
            .process(rec.pid)
            .unwrap()
            .mem
            .vmas()
            .next()
            .unwrap()
            .clone();
        k.mem_read(rec.pid, vma.start, payload.len() as u64)
            .unwrap();
        let log = k.uffd_take_log(rec.pid).unwrap();
        assert_eq!(log.len(), 2);
        let ws = WsImage::from_fault_log(log);
        k.fs_write_file("/img/ws.img", ws.encode()).unwrap();
        k.sys_exit(rec.pid, 0).unwrap(); // retire the record replica, freeing the port

        // Prefetch pass: the whole working set arrives before resume, so
        // touching it again faults zero times.
        let pre = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Prefetch),
        )
        .unwrap();
        assert_eq!(pre.pages_prefetched, 2);
        assert_eq!(pre.pages_lazy, 0);
        let bytes = k
            .mem_read(pre.pid, vma.start, payload.len() as u64)
            .unwrap();
        assert_eq!(bytes, payload);
        assert_eq!(k.uffd_fault_counts(pre.pid), (0, 0));
    }

    #[test]
    fn prefetch_without_recorded_working_set_is_einval() {
        let (mut k, tracer, _) = checkpointed_kernel();
        assert_eq!(
            restore(
                &mut k,
                tracer,
                &RestoreOptions::with_mode("/img", RestoreMode::Prefetch),
            )
            .unwrap_err(),
            Errno::Einval
        );
    }

    #[test]
    fn lazy_restore_resumes_faster_than_eager() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut elapsed = Vec::new();
        for mode in [RestoreMode::Eager, RestoreMode::Lazy] {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
            let tracer = k.sys_clone(INIT_PID).unwrap();
            let target = k.sys_clone(INIT_PID).unwrap();
            let pages = 512u64;
            let a = k
                .sys_mmap(
                    target,
                    pages * PAGE_SIZE as u64,
                    Prot::RW,
                    VmaKind::RuntimeHeap,
                )
                .unwrap();
            k.mem_write(target, a, &vec![3u8; (pages * PAGE_SIZE as u64) as usize])
                .unwrap();
            dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
            let stats = restore(&mut k, tracer, &RestoreOptions::with_mode("/img", mode)).unwrap();
            elapsed.push(stats.elapsed);
        }
        assert!(
            elapsed[1] < elapsed[0],
            "lazy resume beats eager: {elapsed:?}"
        );
    }

    /// Dump a listener-free target (so many replicas can restore from
    /// one snapshot without port clashes).
    fn checkpointed_portless(seed: u64) -> (Kernel, Pid, Vec<u8>) {
        let mut k = Kernel::free(seed);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, 4 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 250 + 1) as u8).collect();
        k.mem_write(target, addr, &payload).unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        (k, tracer, payload)
    }

    #[test]
    fn cow_restore_shares_frames_and_isolates_writes() {
        let (mut k, tracer, payload) = checkpointed_portless(11);
        let opts = RestoreOptions::with_mode("/img", RestoreMode::Cow);
        let a = restore(&mut k, tracer, &opts).unwrap();
        let b = restore(&mut k, tracer, &opts).unwrap();
        assert_eq!(a.pages_cow, 2, "5000 bytes = 2 shared pages");
        assert_eq!(a.pages_installed, 0);
        assert_eq!(a.pages_lazy, 0);
        assert!(!k.uffd_registered(a.pid), "pure CoW needs no fault handler");

        // One physical frame per distinct page, two mappings each.
        assert_eq!(k.page_store().frame_count(), 2);
        assert_eq!(k.page_store().external_refs(), 4);

        // Both replicas read the checkpointed bytes.
        let vma = k.process(a.pid).unwrap().mem.vmas().next().unwrap().clone();
        for pid in [a.pid, b.pid] {
            assert_eq!(
                k.mem_read(pid, vma.start, payload.len() as u64).unwrap(),
                payload
            );
        }

        // A write in one replica breaks only its own mapping.
        k.mem_write(a.pid, vma.start, &[0xEE; 8]).unwrap();
        assert_eq!(
            k.mem_read(b.pid, vma.start, payload.len() as u64).unwrap(),
            payload,
            "replica b unaffected by a's write"
        );
        assert_eq!(k.page_store().external_refs(), 3, "a dropped one frame ref");
        let broken = k.mem_read(a.pid, vma.start, 8).unwrap();
        assert_eq!(broken, [0xEE; 8]);
    }

    #[test]
    fn cow_restore_without_pagestore_is_einval() {
        let (mut k, tracer, _) = checkpointed_portless(12);
        k.fs_remove_file(&format!("/img/{}", ImageSet::PAGESTORE_NAME))
            .unwrap();
        assert_eq!(
            restore(
                &mut k,
                tracer,
                &RestoreOptions::with_mode("/img", RestoreMode::Cow),
            )
            .unwrap_err(),
            Errno::Einval
        );
    }

    #[test]
    fn cow_prefetch_maps_ws_and_defers_residue() {
        use crate::image::WsImage;
        let (mut k, tracer, payload) = checkpointed_portless(13);

        // Record a working set covering only the first page.
        let rec = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Record),
        )
        .unwrap();
        let vma = k
            .process(rec.pid)
            .unwrap()
            .mem
            .vmas()
            .next()
            .unwrap()
            .clone();
        k.mem_read(rec.pid, vma.start, 64).unwrap();
        let log = k.uffd_take_log(rec.pid).unwrap();
        assert_eq!(log.len(), 1);
        k.fs_write_file("/img/ws.img", WsImage::from_fault_log(log).encode())
            .unwrap();
        k.sys_exit(rec.pid, 0).unwrap();

        let stats = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::CowPrefetch),
        )
        .unwrap();
        assert_eq!(stats.pages_cow, 1, "ws page mapped CoW");
        assert_eq!(stats.pages_lazy, 1, "residual page behind the handler");
        assert!(k.uffd_registered(stats.pid));

        // The whole payload still reads back; the residue major-faults.
        let bytes = k
            .mem_read(stats.pid, vma.start, payload.len() as u64)
            .unwrap();
        assert_eq!(bytes, payload);
        let (major, _) = k.uffd_fault_counts(stats.pid);
        assert_eq!(major, 1);
    }

    #[test]
    fn cow_restore_resumes_no_slower_than_eager() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut elapsed = Vec::new();
        for mode in [RestoreMode::Eager, RestoreMode::Cow] {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
            let tracer = k.sys_clone(INIT_PID).unwrap();
            let target = k.sys_clone(INIT_PID).unwrap();
            let pages = 512u64;
            let a = k
                .sys_mmap(
                    target,
                    pages * PAGE_SIZE as u64,
                    Prot::RW,
                    VmaKind::RuntimeHeap,
                )
                .unwrap();
            k.mem_write(target, a, &vec![3u8; (pages * PAGE_SIZE as u64) as usize])
                .unwrap();
            dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
            let stats = restore(&mut k, tracer, &RestoreOptions::with_mode("/img", mode)).unwrap();
            elapsed.push(stats.elapsed);
        }
        assert!(
            elapsed[1] < elapsed[0],
            "CoW resume beats eager: {elapsed:?}"
        );
    }

    #[test]
    fn vectored_eager_restore_matches_per_page_state() {
        let (mut k, tracer, payload) = checkpointed_portless(21);
        let mut per_page = RestoreOptions::new("/img");
        per_page.vectored = false;
        let a = restore(&mut k, tracer, &per_page).unwrap();
        let b = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
        assert_eq!(a.pages_installed, b.pages_installed);
        assert_eq!(a.extents, 0, "page-granular path issues no extents");
        assert_eq!(b.extents, 1, "two contiguous stored pages = one run");
        let mem_a = k.process(a.pid).unwrap().mem.clone();
        let mem_b = &k.process(b.pid).unwrap().mem;
        assert!(mem_a.observably_equal(mem_b));
        let vma = k.process(a.pid).unwrap().mem.vmas().next().unwrap().clone();
        for pid in [a.pid, b.pid] {
            assert_eq!(
                k.mem_read(pid, vma.start, payload.len() as u64).unwrap(),
                payload
            );
        }
    }

    #[test]
    fn vectored_eager_restore_is_cheaper_than_per_page() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut elapsed = Vec::new();
        for vectored in [false, true] {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
            let tracer = k.sys_clone(INIT_PID).unwrap();
            let target = k.sys_clone(INIT_PID).unwrap();
            let pages = 512u64;
            let a = k
                .sys_mmap(
                    target,
                    pages * PAGE_SIZE as u64,
                    Prot::RW,
                    VmaKind::RuntimeHeap,
                )
                .unwrap();
            k.mem_write(target, a, &vec![3u8; (pages * PAGE_SIZE as u64) as usize])
                .unwrap();
            dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
            let mut opts = RestoreOptions::new("/img");
            opts.vectored = vectored;
            elapsed.push(restore(&mut k, tracer, &opts).unwrap().elapsed);
        }
        assert!(
            elapsed[1] < elapsed[0],
            "one extent copy beats 512 page dispatches: {elapsed:?}"
        );
    }

    #[test]
    fn fault_around_batches_lazy_fault_servicing() {
        let (mut k, tracer, payload) = checkpointed_portless(22);
        let mut opts = RestoreOptions::with_mode("/img", RestoreMode::Lazy);
        opts.fault_around = 4;
        let stats = restore(&mut k, tracer, &opts).unwrap();
        assert_eq!(stats.pages_lazy, 2);
        let vma = k
            .process(stats.pid)
            .unwrap()
            .mem
            .vmas()
            .next()
            .unwrap()
            .clone();
        let bytes = k
            .mem_read(stats.pid, vma.start, payload.len() as u64)
            .unwrap();
        assert_eq!(bytes, payload);
        let (major, minor) = k.uffd_fault_counts(stats.pid);
        assert_eq!(
            (major, minor),
            (1, 0),
            "one trap pulls both withheld pages in"
        );
        assert_eq!(k.process(stats.pid).unwrap().mem.missing_pages(), 0);
    }

    #[test]
    fn vectored_cow_restore_shares_frames_like_per_page() {
        let (mut k, tracer, payload) = checkpointed_portless(23);
        let mut per_page = RestoreOptions::with_mode("/img", RestoreMode::Cow);
        per_page.vectored = false;
        let a = restore(&mut k, tracer, &per_page).unwrap();
        let b = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Cow),
        )
        .unwrap();
        assert_eq!(a.pages_cow, 2);
        assert_eq!(b.pages_cow, 2);
        assert_eq!(a.extents, 0);
        assert_eq!(b.extents, 1, "two consecutive shared frames = one run");
        assert_eq!(
            k.page_store().frame_count(),
            2,
            "both paths intern the same frames"
        );
        assert_eq!(k.page_store().external_refs(), 4);
        let vma = k.process(a.pid).unwrap().mem.vmas().next().unwrap().clone();
        for pid in [a.pid, b.pid] {
            assert_eq!(
                k.mem_read(pid, vma.start, payload.len() as u64).unwrap(),
                payload
            );
        }
    }

    #[test]
    fn prefetch_paths_agree_and_vectored_is_cheaper() {
        use crate::image::WsImage;
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let pages = 64u64;
        let a = k
            .sys_mmap(
                target,
                pages * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        k.mem_write(target, a, &vec![9u8; (pages * PAGE_SIZE as u64) as usize])
            .unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();

        // Record the full working set.
        let rec = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Record),
        )
        .unwrap();
        let vma = k
            .process(rec.pid)
            .unwrap()
            .mem
            .vmas()
            .next()
            .unwrap()
            .clone();
        k.mem_read(rec.pid, vma.start, pages * PAGE_SIZE as u64)
            .unwrap();
        let log = k.uffd_take_log(rec.pid).unwrap();
        k.fs_write_file("/img/ws.img", WsImage::from_fault_log(log).encode())
            .unwrap();
        k.sys_exit(rec.pid, 0).unwrap();

        let mut elapsed = Vec::new();
        for vectored in [false, true] {
            let mut opts = RestoreOptions::with_mode("/img", RestoreMode::Prefetch);
            opts.vectored = vectored;
            let stats = restore(&mut k, tracer, &opts).unwrap();
            assert_eq!(stats.pages_prefetched, pages as usize);
            assert_eq!(stats.pages_lazy, 0);
            assert_eq!(k.uffd_fault_counts(stats.pid), (0, 0));
            assert_eq!(k.mem_read(stats.pid, vma.start, 64).unwrap(), vec![9u8; 64]);
            elapsed.push(stats.elapsed);
            k.sys_exit(stats.pid, 0).unwrap();
        }
        assert!(
            elapsed[1] < elapsed[0],
            "vectored prefetch beats per-page: {elapsed:?}"
        );
    }

    /// Checkpoint a target whose dumped pages form `runs` address runs
    /// of `pages_per_run` pages with a one-page hole between runs, so
    /// the extent table has `runs` entries for the shard partitioner to
    /// split.
    fn checkpointed_runs(mut k: Kernel, runs: u64, pages_per_run: u64) -> (Kernel, Pid, VirtAddr) {
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let span = runs * (pages_per_run + 1);
        let a = k
            .sys_mmap(
                target,
                span * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        for r in 0..runs {
            let data = vec![(r as u8) + 1; (pages_per_run * PAGE_SIZE as u64) as usize];
            k.mem_write(
                target,
                a.add(r * (pages_per_run + 1) * PAGE_SIZE as u64),
                &data,
            )
            .unwrap();
        }
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        (k, tracer, a)
    }

    #[test]
    fn parallel_sharded_restore_matches_serial_state() {
        for vectored in [true, false] {
            let (mut k, tracer, a) = checkpointed_runs(Kernel::free(31), 8, 8);
            let mut serial = RestoreOptions::new("/img");
            serial.vectored = vectored;
            let mut parallel = serial.clone();
            parallel.threads = 4;
            let s = restore(&mut k, tracer, &serial).unwrap();
            let p = restore(&mut k, tracer, &parallel).unwrap();
            assert_eq!(s.pages_installed, p.pages_installed);
            assert_eq!(s.shards, 1);
            assert_eq!(p.shards, 4, "vectored={vectored}");
            let mem_s = k.process(s.pid).unwrap().mem.clone();
            let mem_p = &k.process(p.pid).unwrap().mem;
            assert!(mem_s.observably_equal(mem_p));
            let want = vec![1u8; 64];
            for pid in [s.pid, p.pid] {
                assert_eq!(k.mem_read(pid, a, 64).unwrap(), want);
            }
        }
    }

    #[test]
    fn threads_one_is_bit_identical_to_serial() {
        // `threads: 1` must take the exact serial code path: same charge
        // sequence, same jitter draws, bit-identical clock.
        let run = |threads: usize| {
            let (mut k, tracer, _) = checkpointed_runs(Kernel::new(77), 4, 8);
            let mut opts = RestoreOptions::new("/img");
            opts.threads = threads;
            let stats = restore(&mut k, tracer, &opts).unwrap();
            (stats, k.now())
        };
        let (s1, t1) = run(1);
        let (s2, t2) = run(0); // below 1 normalises to serial too
        assert_eq!(s1, s2);
        assert_eq!(t1, t2, "serial path is bit-reproducible");
    }

    #[test]
    fn parallel_restore_is_deterministic_under_noise() {
        let run = || {
            let (mut k, tracer, _) = checkpointed_runs(Kernel::new(99), 8, 64);
            let mut opts = RestoreOptions::new("/img");
            opts.threads = 4;
            let stats = restore(&mut k, tracer, &opts).unwrap();
            (stats, k.now())
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(t1, t2, "same seed, same wall clock");
    }

    #[test]
    fn parallel_restore_overlaps_install_time() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        // Big enough that the sharded payload stream dwarfs the spawn
        // tax: 8 runs x 512 pages = 16 MiB.
        let elapsed_for = |threads: usize| {
            let k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
            let (mut k, tracer, _) = checkpointed_runs(k, 8, 512);
            let mut opts = RestoreOptions::new("/img");
            opts.threads = threads;
            restore(&mut k, tracer, &opts).unwrap().elapsed
        };
        let serial = elapsed_for(1);
        let two = elapsed_for(2);
        let four = elapsed_for(4);
        assert!(two < serial, "2 shards beat serial: {two:?} vs {serial:?}");
        assert!(four < two, "4 shards beat 2: {four:?} vs {two:?}");
    }

    #[test]
    fn repack_fault_order_cuts_prefetch_seeks() {
        use crate::dump::{repack, RepackOptions};
        use crate::image::WsImage;
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let pages = 64u64;
        let a = k
            .sys_mmap(
                target,
                pages * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        k.mem_write(target, a, &vec![5u8; (pages * PAGE_SIZE as u64) as usize])
            .unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();

        // Record a working set that strides the image: every touch is a
        // position jump in the dump-order layout.
        let rec = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Record),
        )
        .unwrap();
        for p in (0..pages).step_by(2).chain((1..pages).step_by(2)) {
            k.mem_read(rec.pid, a.add(p * PAGE_SIZE as u64), 8).unwrap();
        }
        let log = k.uffd_take_log(rec.pid).unwrap();
        assert_eq!(log.len(), pages as usize);
        k.fs_write_file("/img/ws.img", WsImage::from_fault_log(log).encode())
            .unwrap();
        k.sys_exit(rec.pid, 0).unwrap();

        let opts = RestoreOptions::with_mode("/img", RestoreMode::Prefetch);
        let dump_order = restore(&mut k, tracer, &opts).unwrap();
        assert_eq!(
            dump_order.seek_bytes_avoided, 0,
            "strided working set seeks for every page of a dump-order image"
        );
        k.sys_exit(dump_order.pid, 0).unwrap();

        repack(&mut k, &RepackOptions::new("/img")).unwrap();
        let fault_order = restore(&mut k, tracer, &opts).unwrap();
        assert_eq!(fault_order.pages_prefetched, pages as usize);
        assert_eq!(
            fault_order.seek_bytes_avoided,
            (pages - 1) * PAGE_SIZE as u64,
            "fault-order layout streams all but the first page"
        );
        assert!(
            fault_order.elapsed < dump_order.elapsed,
            "fewer seeks, faster prefetch: {:?} vs {:?}",
            fault_order.elapsed,
            dump_order.elapsed
        );
        assert_eq!(
            k.mem_read(fault_order.pid, a, 64).unwrap(),
            vec![5u8; 64],
            "reordered payload restores the same bytes"
        );
    }

    #[test]
    fn compacted_image_restores_identically_with_fallback_faults() {
        use crate::dump::{repack, RepackOptions};
        use crate::image::WsImage;

        let mut k = Kernel::free(33);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let pages = 6u64;
        let a = k
            .sys_mmap(
                target,
                pages * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        let mut payload = Vec::new();
        for p in 0..pages {
            payload.extend_from_slice(&vec![(p as u8) + 10; PAGE_SIZE]);
        }
        k.mem_write(target, a, &payload).unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();

        // Working set = first three pages only.
        let rec = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Record),
        )
        .unwrap();
        k.mem_read(rec.pid, a, 3 * PAGE_SIZE as u64).unwrap();
        let log = k.uffd_take_log(rec.pid).unwrap();
        k.fs_write_file("/img/ws.img", WsImage::from_fault_log(log).encode())
            .unwrap();
        k.sys_exit(rec.pid, 0).unwrap();

        let mut ropts = RepackOptions::new("/img");
        ropts.compact = true;
        let rstats = repack(&mut k, &ropts).unwrap();
        assert_eq!(rstats.pages_hot, 3);
        assert_eq!(rstats.pages_compacted, 3);
        assert!(
            rstats.hot_bytes_after < rstats.hot_bytes_before,
            "compaction shrinks the critical-path image: {} vs {}",
            rstats.hot_bytes_after,
            rstats.hot_bytes_before
        );

        // Eager restore of the compacted image: hot pages install, the
        // fallback layer sits behind the fault handler, and the full
        // payload still reads back byte-for-byte.
        let stats = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
        assert_eq!(stats.pages_installed, 3);
        assert_eq!(stats.pages_compacted, 3);
        assert_eq!(stats.pages_lazy, 3, "fallback pages withheld");
        assert!(k.uffd_registered(stats.pid));
        assert_eq!(
            k.mem_read(stats.pid, a, payload.len() as u64).unwrap(),
            payload
        );
        assert_eq!(
            k.uffd_fallback_faults(stats.pid),
            3,
            "touches outside the hot set fell through to the fallback layer"
        );

        // The lazy modes carry the fallback layer too.
        let lazy = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Lazy),
        )
        .unwrap();
        assert_eq!(lazy.pages_lazy, 6, "hot withheld + fallback withheld");
        assert_eq!(lazy.pages_compacted, 3);
        assert_eq!(
            k.mem_read(lazy.pid, a, payload.len() as u64).unwrap(),
            payload
        );
    }

    #[test]
    fn restore_charges_scale_with_snapshot_size() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut elapsed = Vec::new();
        for pages in [8u64, 64] {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::disabled());
            let tracer = k.sys_clone(INIT_PID).unwrap();
            let target = k.sys_clone(INIT_PID).unwrap();
            let a = k
                .sys_mmap(
                    target,
                    pages * PAGE_SIZE as u64,
                    Prot::RW,
                    VmaKind::RuntimeHeap,
                )
                .unwrap();
            k.mem_write(target, a, &vec![7u8; (pages * PAGE_SIZE as u64) as usize])
                .unwrap();
            dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
            let stats = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
            elapsed.push(stats.elapsed);
        }
        assert!(
            elapsed[1] > elapsed[0],
            "bigger snapshot restores slower: {elapsed:?}"
        );
    }
}
