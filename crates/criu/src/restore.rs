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

use std::collections::BTreeSet;

use prebake_sim::cost::per_byte;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::mem::{AddressSpace, Page, PAGE_SIZE};
use prebake_sim::proc::{FdEntry, FdTable, Pid, ProcState, Thread, ThreadState};
use prebake_sim::time::SimDuration;

use prebake_sim::uffd::UffdBackend;

use crate::costs::{
    LAZY_REGISTER, RESTORE_BASE, RESTORE_PAGE_OP, RESTORE_PER_COW_PAGE, RESTORE_PER_FD,
    RESTORE_PER_PAGE, RESTORE_PER_VMA, SHARD_SPAWN,
};
use crate::dump::{read_images, read_images_lazy};
use crate::image::{ImageSet, PageSource, PagesImage};

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
    /// Memory reinstatement policy.
    pub mode: RestoreMode,
    /// Install eager memory run-at-a-time from the image's extent table
    /// (one scatter-gather copy per run) instead of page-at-a-time. The
    /// page-granular path pays a per-page dispatch cost
    /// where the vectored path pays one
    /// [`prebake_sim::cost::CostModel::extent_setup`] per run. The other
    /// modes always map and prefetch run-at-a-time: `false` with any of
    /// them is [`Errno::Einval`].
    pub vectored: bool,
    /// Fault-around window for uffd-backed modes: one trap services up
    /// to this many consecutive withheld pages in a single batch.
    /// Values below 1 behave as 1 (no fault-around).
    pub fault_around: usize,
    /// Restorer worker threads for the sharded parallel eager install.
    /// The extent table is partitioned into contiguous shards over
    /// disjoint page ranges; each worker streams and installs its own
    /// shard, so the wall cost is the slowest shard plus a
    /// spawn tax per worker instead of the serial
    /// sum. Values below 2 take the serial path bit-for-bit. Sharding is
    /// eager-only: more than 1 with another mode is [`Errno::Einval`].
    pub threads: usize,
}

impl RestoreOptions {
    /// Eager memory with the vectored extent path on.
    pub fn new(images_dir: impl Into<String>) -> RestoreOptions {
        RestoreOptions {
            images_dir: images_dir.into(),
            mode: RestoreMode::Eager,
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
    pub(crate) pages_lazy: usize,
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
    /// Parallel shards the eager install ran as (1 on the serial path
    /// and in every other mode).
    pub shards: usize,
    /// Payload bytes the prefetch loader streamed sequentially instead
    /// of seeking for — non-zero only under [`RestoreMode::Prefetch`],
    /// and maximised by a fault-order image layout ([`crate::dump::repack`]).
    pub seek_bytes_avoided: u64,
    /// Pages served from the compaction fallback layer's image rather
    /// than the hot working-set image (zero unless a [`crate::dump::repack`]
    /// compacted it).
    pub pages_compacted: usize,
    /// Virtual time the restore took.
    pub elapsed: SimDuration,
}

/// Restores a process from image files on the guest filesystem (what
/// real CRIU's `criu restore` does).
///
/// # Errors
///
/// [`Errno::Eperm`] if `requester` lacks a checkpoint-capable capability,
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
/// As [`restore`], minus the filesystem reads. The page-granular and
/// sharded installs are eager-only: [`Errno::Einval`] if `opts` asks
/// another mode for either.
pub fn restore_set(
    kernel: &mut Kernel,
    requester: Pid,
    set: &ImageSet,
    opts: &RestoreOptions,
) -> SysResult<RestoreStats> {
    if opts.mode != RestoreMode::Eager && (!opts.vectored || opts.threads > 1) {
        return Err(Errno::Einval);
    }
    let t0 = kernel.now();
    if !kernel.process(requester)?.caps.can_checkpoint() {
        return Err(Errno::Eperm);
    }
    let span = kernel.span_begin("criu_restore_set", requester);
    kernel.charge(RESTORE_BASE);

    // Task re-creation, under a fresh pid (pid-namespace translation
    // lets many replicas of one snapshot share a host).
    let pid = kernel.sys_clone(requester)?;

    // Memory: rebuild the address space exactly as dumped.
    let vma_span = kernel.span_begin("restore_vmas", pid);
    kernel.span_attr(vma_span, "vmas", set.mm.vmas.len().to_string());
    kernel.charge(RESTORE_PER_VMA * set.mm.vmas.len() as u64);
    {
        let proc = kernel.process_mut(pid)?;
        proc.mem = AddressSpace::new();
        for vma in &set.mm.vmas {
            proc.mem
                .mmap_fixed(vma.start, vma.len, vma.prot, vma.kind.clone())?;
        }
    }
    kernel.span_end(vma_span);

    // Compaction fallback layer (`repack` with `compact`): pages outside
    // the recorded hot set ride in a separate image pair that every mode
    // parks behind the fault handler. A touch outside the working set
    // falls through to the full image at the kernel's `fault_fallback`
    // penalty instead of restoring a hole.
    let fallback = match &set.fallback {
        Some(fb) => stored_pages(fb).collect::<SysResult<Vec<_>>>()?,
        None => Vec::new(),
    };
    let pages_compacted = fallback.len();

    // Each mode installs, shares or withholds the stored pages; zero
    // pages stay demand-zero in all of them.
    let mode_span = kernel.span_begin(
        match opts.mode {
            RestoreMode::Eager => "restore_eager_copy",
            RestoreMode::Cow | RestoreMode::CowPrefetch => "restore_cow_map",
            RestoreMode::Lazy | RestoreMode::Record | RestoreMode::Prefetch => {
                "restore_lazy_register"
            }
        },
        pid,
    );
    let mut withheld = UffdBackend::new();
    let (mut installed, mut pages_cow, mut extents, mut shards) = (0, 0, 0, 1);
    match opts.mode {
        RestoreMode::Eager => (installed, extents, shards) = install_eager(kernel, pid, set, opts)?,
        RestoreMode::Cow | RestoreMode::CowPrefetch => {
            (pages_cow, extents) = share_cow(kernel, pid, set, opts, &mut withheld)?;
        }
        RestoreMode::Lazy | RestoreMode::Record | RestoreMode::Prefetch => {
            for page in stored_pages(&set.pages) {
                let (page_index, page) = page?;
                withheld.insert_page(page_index, page);
            }
        }
    }

    // Withheld pages and the fallback layer go behind the fault handler
    // together. Eager and plain CoW restores withhold nothing, so they
    // register only a compacted image's fallback layer.
    let mut pages_lazy = 0;
    if !matches!(opts.mode, RestoreMode::Eager | RestoreMode::Cow) || !fallback.is_empty() {
        for (page_index, page) in fallback {
            withheld.insert_fallback_page(page_index, page);
        }
        pages_lazy = withheld.len();
        withheld.set_fault_around(opts.fault_around);
        kernel.charge(LAZY_REGISTER);
        kernel.uffd_register(pid, withheld)?;
    }

    // Record and prefetch work through the registered handler; each
    // mode's span then reports its own counts.
    let mut pages_prefetched = 0;
    let mut seek_bytes_avoided = 0;
    match opts.mode {
        RestoreMode::Eager => {
            kernel.span_attr(mode_span, "pages", installed.to_string());
            kernel.span_attr(mode_span, "extents", extents.to_string());
        }
        RestoreMode::Cow | RestoreMode::CowPrefetch => {
            kernel.span_attr(mode_span, "pages_cow", pages_cow.to_string());
            kernel.span_attr(mode_span, "pages_lazy", pages_lazy.to_string());
            kernel.span_attr(mode_span, "extents", extents.to_string());
        }
        RestoreMode::Lazy | RestoreMode::Record | RestoreMode::Prefetch => {
            if opts.mode == RestoreMode::Record {
                kernel.uffd_set_record(pid, true)?;
            }
            if opts.mode == RestoreMode::Prefetch {
                let ws = set.ws.as_ref().ok_or(Errno::Einval)?;
                // Seek-vs-sequential read split: the prefetch loader
                // streams `pages.img` in working-set order, paying one
                // `fs_seek` whenever the next page's image position is
                // not the successor of the previous one. A fault-order
                // image (`repack`) lays the working set out
                // contiguously, collapsing this to a single seek; a
                // dump-order image pays one per address-contiguous run.
                let mut position = std::collections::HashMap::new();
                let mut next_pos = 0u64;
                for (page_index, source) in set.pages.iter_pages() {
                    if matches!(source, PageSource::Stored(_)) {
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
                pages_prefetched = kernel.uffd_prefetch(pid, &ws.pages)? as usize;
                pages_lazy -= pages_prefetched;
            }
            kernel.span_attr(mode_span, "pages_lazy", pages_lazy.to_string());
            kernel.span_attr(mode_span, "pages_prefetched", pages_prefetched.to_string());
        }
    }
    kernel.span_end(mode_span);

    // Descriptors.
    let fd_span = kernel.span_begin("restore_fds", pid);
    kernel.span_attr(fd_span, "fds", set.files.fds.len().to_string());
    kernel.charge(RESTORE_PER_FD * set.files.fds.len() as u64);
    {
        let proc = kernel.process_mut(pid)?;
        proc.fds = FdTable::new();
    }
    for (fd, FdEntry::Listener { port }) in &set.files.fds {
        kernel.sys_listen_at(pid, *fd, *port)?;
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

/// Every page whose payload `pages` stores, as `(page_index, page)` in
/// pagemap order, each page a view of the image's payload; zero pages
/// are skipped. An unresolved parent reference is [`Errno::Einval`]: the
/// caller skipped `read_images`'s parent resolution, and restoring it
/// would leave a hole.
fn stored_pages(pages: &PagesImage) -> impl Iterator<Item = SysResult<(u64, Page)>> + '_ {
    pages
        .iter_pages()
        .filter_map(|(page_index, source)| match source {
            PageSource::Stored(page) => Some(Ok((page_index, page))),
            PageSource::Zero => None,
            PageSource::Parent => Some(Err(Errno::Einval)),
        })
}

/// One extent-table run: its first page index and its pages.
type Run = (u64, Vec<Page>);

/// The stored pages grouped into the extent table's runs, one run at a
/// time. Stored entries appear in pagemap order, so the runs consume them
/// sequentially; a table that outruns the payload is [`Errno::Einval`].
fn extent_runs(set: &ImageSet) -> impl Iterator<Item = SysResult<Run>> + '_ {
    let mut stored = set
        .pages
        .iter_pages()
        .filter_map(|(_, source)| match source {
            PageSource::Stored(page) => Some(page),
            _ => None,
        });
    set.extents.extents.iter().map(move |extent| {
        let payload: Vec<_> = stored.by_ref().take(extent.pages as usize).collect();
        if payload.len() < extent.pages as usize {
            return Err(Errno::Einval);
        }
        Ok((extent.start_index, payload))
    })
}

/// Copies runs in with one scatter-gather copy each, then charges the
/// per-page install cost. Returns `(pages, runs)` installed.
fn copy_runs(
    kernel: &mut Kernel,
    pid: Pid,
    runs: impl IntoIterator<Item = SysResult<Run>>,
) -> SysResult<(usize, usize)> {
    let (mut pages, mut copied) = (0, 0);
    for run in runs {
        let (start, run) = run?;
        kernel.copy_extent(pid, start, &run)?;
        pages += run.len();
        copied += 1;
    }
    kernel.charge(RESTORE_PER_PAGE * pages as u64);
    Ok((pages, copied))
}

/// Installs every stored page before resume: page-at-a-time, one
/// scatter-gather copy per extent-table run, or (`opts.threads > 1`)
/// those runs sharded over concurrent workers. Returns
/// `(pages installed, runs copied, shards)`.
fn install_eager(
    kernel: &mut Kernel,
    pid: Pid,
    set: &ImageSet,
    opts: &RestoreOptions,
) -> SysResult<(usize, usize, usize)> {
    // Unresolved parent references mean the caller skipped
    // `read_images`'s parent resolution — refuse rather than restore
    // holes.
    if set.pages.parent_pages() > 0 {
        return Err(Errno::Einval);
    }
    if !opts.vectored {
        let proc = kernel.process_mut(pid)?;
        let mut installed = 0;
        for page in stored_pages(&set.pages) {
            let (page_index, page) = page?;
            proc.mem.install_page(page_index, page)?;
            installed += 1;
        }
        // One page-granular dispatch per installed page — the cost the
        // vectored path amortises into one `extent_setup` per run.
        kernel.charge(RESTORE_PAGE_OP * installed as u64);
        kernel.charge(RESTORE_PER_PAGE * installed as u64);
        return Ok((installed, 0, 1));
    }
    if opts.threads <= 1 {
        let (installed, copied) = copy_runs(kernel, pid, extent_runs(set))?;
        return Ok((installed, copied, 1));
    }

    // Sharded parallel install: whole runs are partitioned into
    // contiguous shards over disjoint page ranges. Each modelled worker
    // streams its own slice of the payload (the caller mapped the image
    // without charging the read, so every shard prices one seek to its
    // offset plus a sequential warm-rate scan of its bytes), then copies
    // its runs in exactly as the serial install does. Wall cost is the
    // slowest shard plus the spawn tax. The host installs the shards one
    // after another: a run's pages are views of the image, so there is
    // no decoding left for host threads to share.
    let runs = extent_runs(set).collect::<SysResult<Vec<_>>>()?;
    let weights: Vec<usize> = runs.iter().map(|(_, pages)| pages.len()).collect();
    let ranges = partition_by_weight(&weights, opts.threads);
    let shards = ranges.len().max(1);
    let warm = kernel.costs().fs_read_warm_ns_per_byte;
    let seek = kernel.costs().fs_seek;
    let (mut installed, mut copied) = (0, 0);
    let mut waves = Vec::with_capacity(ranges.len());
    let mut runs = runs.into_iter();
    for (shard_id, range) in ranges.into_iter().enumerate() {
        let shard: Vec<Run> = runs.by_ref().take(range.len()).collect();
        let ((shard_pages, shard_runs), cost) = kernel.uncharged(|k| {
            let before = k.now();
            let bytes: usize = shard.iter().map(|(_, pages)| pages.len() * PAGE_SIZE).sum();
            k.charge(seek + per_byte(bytes as u64, warm));
            let done = copy_runs(k, pid, shard.into_iter().map(Ok))?;
            Ok((done, k.now() - before))
        })?;
        installed += shard_pages;
        copied += shard_runs;
        waves.push((shard_id, shard_pages, cost));
    }
    charge_overlapped_shards(kernel, pid, waves);
    Ok((installed, copied, shards))
}

/// Maps the stored pages copy-on-write from the machine's shared frame
/// pool, one scatter-gather run per stretch of consecutive pages: no
/// payload copy, and the page store's content hashes key the pool, so
/// replicas of one snapshot resolve to the same physical frames. Under
/// [`RestoreMode::CowPrefetch`] only the recorded working set is shared
/// and the residue goes to `withheld`. Returns `(pages shared, runs
/// mapped)`.
fn share_cow(
    kernel: &mut Kernel,
    pid: Pid,
    set: &ImageSet,
    opts: &RestoreOptions,
    withheld: &mut UffdBackend,
) -> SysResult<(usize, usize)> {
    let store = set.pagestore.as_ref().ok_or(Errno::Einval)?;
    let ws: Option<BTreeSet<u64>> = match opts.mode {
        RestoreMode::CowPrefetch => {
            let ws = set.ws.as_ref().ok_or(Errno::Einval)?;
            Some(ws.pages.iter().copied().collect())
        }
        _ => None,
    };
    let (mut shared, mut mapped) = (0, 0);
    let mut run_start = 0u64;
    let mut run: Vec<(u64, Page)> = Vec::new();
    for (page_index, hash, page) in store.iter_refs(&set.pages) {
        if ws.as_ref().is_some_and(|ws| !ws.contains(&page_index)) {
            withheld.insert_page(page_index, page);
            continue;
        }
        if !run.is_empty() && run_start + run.len() as u64 != page_index {
            kernel.cow_map_extent(pid, run_start, &run)?;
            mapped += 1;
            run.clear();
        }
        if run.is_empty() {
            run_start = page_index;
        }
        run.push((hash, page));
        shared += 1;
    }
    if !run.is_empty() {
        kernel.cow_map_extent(pid, run_start, &run)?;
        mapped += 1;
    }
    kernel.charge(RESTORE_PER_COW_PAGE * shared as u64);
    Ok((shared, mapped))
}

/// Splits `weights` (pages per extent run) into at most `threads`
/// contiguous non-empty ranges balanced by total weight. A
/// scatter-gather run is never split across workers, so shards cover
/// disjoint page ranges.
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

/// Charges independently-measured shard costs as *overlapped* virtual
/// time: a `SHARD_SPAWN` tax per worker, then the clock
/// advances to the slowest shard's completion. Shards are emitted as a
/// completion wave of sibling `restore_shard` spans — sorted by cost,
/// each span covering its shard's marginal critical-path contribution —
/// because the tracer nests strictly and cannot represent true sibling
/// overlap. Each span carries its shard's full cost and page count as
/// attributes.
fn charge_overlapped_shards(
    kernel: &mut Kernel,
    pid: Pid,
    mut waves: Vec<(usize, usize, SimDuration)>,
) {
    if waves.is_empty() {
        return;
    }
    kernel.charge(SHARD_SPAWN * waves.len() as u64);
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
        assert_eq!(
            restore(&mut k, tracer, &RestoreOptions::new("/missing")).unwrap_err(),
            Errno::Enoent
        );
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
        // First touch resolves through the fault handler and the content
        // matches the checkpoint byte-for-byte.
        let vma = k.process(pid).unwrap().mem.vmas().next().unwrap().clone();
        let bytes = k.mem_read(pid, vma.start, payload.len() as u64).unwrap();
        assert_eq!(bytes, payload);
        let (major, _) = k.uffd_fault_counts(pid);
        assert_eq!(major, 2);
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
        for mode in [RestoreMode::Prefetch, RestoreMode::CowPrefetch] {
            assert_eq!(
                restore(&mut k, tracer, &RestoreOptions::with_mode("/img", mode)).unwrap_err(),
                Errno::Einval,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn lazy_restore_resumes_faster_than_eager() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut elapsed = Vec::new();
        for mode in [RestoreMode::Eager, RestoreMode::Lazy] {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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
        assert_eq!(a.extents, 1, "two consecutive shared frames = one run");
        assert_eq!(a.pages_installed, 0);
        assert_eq!(a.pages_lazy, 0);
        assert_eq!(
            k.uffd_set_record(a.pid, false).unwrap_err(),
            Errno::Esrch,
            "pure CoW needs no fault handler"
        );

        // One physical frame per distinct page, two mappings each.
        assert_eq!(k.page_store().resident_bytes(), 2 * PAGE_SIZE as u64);
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
        assert!(
            k.uffd_set_record(stats.pid, false).is_ok(),
            "residual page needs the fault handler"
        );

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
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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
        let (mut k, tracer, a) = checkpointed_runs(Kernel::free(31), 8, 8);
        let serial = RestoreOptions::new("/img");
        let mut parallel = serial.clone();
        parallel.threads = 4;
        let s = restore(&mut k, tracer, &serial).unwrap();
        let p = restore(&mut k, tracer, &parallel).unwrap();
        assert_eq!(s.pages_installed, p.pages_installed);
        assert_eq!((s.extents, p.extents), (8, 8), "same run boundaries");
        assert_eq!(s.shards, 1);
        assert_eq!(p.shards, 4);
        let mem_s = k.process(s.pid).unwrap().mem.clone();
        let mem_p = &k.process(p.pid).unwrap().mem;
        assert!(mem_s.observably_equal(mem_p));
        let want = vec![1u8; 64];
        for pid in [s.pid, p.pid] {
            assert_eq!(k.mem_read(pid, a, 64).unwrap(), want);
        }

        // A single run cannot split: one shard whatever the thread count.
        let (mut k, tracer, _) = checkpointed_runs(Kernel::free(32), 1, 1);
        let one = restore(&mut k, tracer, &parallel).unwrap();
        assert_eq!((one.extents, one.shards), (1, 1));
    }

    #[test]
    fn page_granular_and_sharded_installs_are_eager_only() {
        let (mut k, tracer, _) = checkpointed_portless(24);
        let set = read_images_lazy(&mut k, "/img").unwrap();
        for mode in [
            RestoreMode::Lazy,
            RestoreMode::Record,
            RestoreMode::Prefetch,
            RestoreMode::Cow,
            RestoreMode::CowPrefetch,
        ] {
            let mut per_page = RestoreOptions::with_mode("/img", mode);
            per_page.vectored = false;
            let mut sharded = RestoreOptions::with_mode("/img", mode);
            sharded.threads = 2;
            for opts in [per_page, sharded] {
                assert_eq!(
                    restore(&mut k, tracer, &opts).unwrap_err(),
                    Errno::Einval,
                    "{mode:?}"
                );
                let t0 = k.now();
                assert_eq!(
                    restore_set(&mut k, tracer, &set, &opts).unwrap_err(),
                    Errno::Einval,
                    "{mode:?}"
                );
                assert_eq!(k.now(), t0, "rejected before any restore work");
            }
        }
        // Eager takes both.
        let mut opts = RestoreOptions::new("/img");
        opts.vectored = false;
        restore(&mut k, tracer, &opts).unwrap();
        opts.vectored = true;
        opts.threads = 2;
        restore(&mut k, tracer, &opts).unwrap();
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
            let k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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

        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        // Calibrated costs without noise, so the fallback penalty shows
        // exactly in virtual time.
        let costs = CostModel::paper_calibrated();
        let mut k = Kernel::with_config(costs.clone(), Noise::new(0, 0.0));
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
        let half = 3 * PAGE_SIZE as u64;
        let stats = restore(&mut k, tracer, &RestoreOptions::new("/img")).unwrap();
        assert_eq!(stats.pages_installed, 3);
        assert_eq!(stats.pages_compacted, 3);
        assert_eq!(stats.pages_lazy, 3, "fallback pages withheld");
        let t0 = k.now();
        k.mem_read(stats.pid, VirtAddr(a.0 + half), half).unwrap();
        let fallback_faults = k.now() - t0;
        assert_eq!(
            k.mem_read(stats.pid, a, payload.len() as u64).unwrap(),
            payload
        );
        assert_eq!(
            k.uffd_fault_counts(stats.pid).0,
            3,
            "touches outside the hot set fell through to the fallback layer"
        );

        // The lazy modes carry the fallback layer too. Their hot pages
        // are withheld but not fallback pages: the same three faults on
        // them cost exactly the fallback penalty less.
        let lazy = restore(
            &mut k,
            tracer,
            &RestoreOptions::with_mode("/img", RestoreMode::Lazy),
        )
        .unwrap();
        assert_eq!(lazy.pages_lazy, 6, "hot withheld + fallback withheld");
        assert_eq!(lazy.pages_compacted, 3);
        let t0 = k.now();
        k.mem_read(lazy.pid, a, half).unwrap();
        let hot_faults = k.now() - t0;
        assert_eq!(k.uffd_fault_counts(lazy.pid).0, 3);
        assert_eq!(
            fallback_faults,
            hot_faults + costs.fault_fallback * 3,
            "each fallback fault pays the fallback penalty"
        );
        assert_eq!(
            k.mem_read(lazy.pid, a, payload.len() as u64).unwrap(),
            payload
        );
        assert_eq!(k.uffd_fault_counts(lazy.pid).0, 6);

        // A working set covering the whole image compacts nothing.
        let all: Vec<u64> = (0..pages).map(|p| a.0 / PAGE_SIZE as u64 + p).collect();
        k.fs_write_file("/img/ws.img", WsImage::from_fault_log(all).encode())
            .unwrap();
        let rstats = repack(&mut k, &ropts).unwrap();
        assert_eq!((rstats.pages_hot, rstats.pages_compacted), (6, 0));
    }

    #[test]
    fn restore_charges_scale_with_snapshot_size() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;

        let mut elapsed = Vec::new();
        for pages in [8u64, 64] {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
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
