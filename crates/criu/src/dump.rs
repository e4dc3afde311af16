//! The dump pipeline: freeze → parasite → pagemap walk → page transfer →
//! image write → cure.
//!
//! Mirrors the CRIU procedure the paper describes in §3.2: seize and
//! freeze every thread with ptrace, inject the parasite blob into the
//! target's address space, walk `/proc/<pid>/pagemap` to find resident
//! pages, stream their contents through a pipe to the dumper, write the
//! image files, then cure (remove the parasite) and detach.

use bytes::Bytes;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::mem::{VmaKind, PAGE_SIZE};
use prebake_sim::proc::Pid;
use prebake_sim::time::SimDuration;

use crate::costs::{DUMP_PREPARE, PARASITE_INJECT};
use crate::image::{
    CoreImage, ExtentsImage, FilesImage, ImageSet, MmImage, PageStoreImage, PagesBuilder,
    PagesImage, ThreadImage,
};

/// Options for a dump.
#[derive(Debug, Clone)]
pub struct DumpOptions {
    /// Process to checkpoint.
    pub target: Pid,
    /// Guest directory to write image files into.
    pub images_dir: String,
    /// Keep the target running afterwards (real CRIU's `--leave-running`).
    /// The prebaking builder kills the baked process instead.
    pub leave_running: bool,
    /// Incremental dump (real CRIU's `--track-mem --prev-images-dir`):
    /// pages clean since the last [`pre_dump`] are recorded as parent
    /// references instead of payload, shrinking the final image and the
    /// freeze window.
    pub parent: Option<String>,
}

impl DumpOptions {
    /// Options for a full (non-incremental) dump.
    pub fn new(target: Pid, images_dir: impl Into<String>) -> DumpOptions {
        DumpOptions {
            target,
            images_dir: images_dir.into(),
            leave_running: false,
            parent: None,
        }
    }
}

/// Statistics of a completed dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpStats {
    /// Mappings dumped.
    pub vmas: usize,
    /// Resident pages visited.
    pub pages_total: usize,
    /// Pages stored in `pages.img` (non-zero, not deferred).
    pub pages_stored: usize,
    /// Zero pages deduplicated away.
    pub zero_pages: usize,
    /// Pages deferred to the parent snapshot (incremental dump).
    pub parent_pages: usize,
    /// Distinct page contents among the stored pages (the page-store
    /// frame count). Equals `pages_stored` when no dedup view was built.
    pub pages_unique: usize,
    /// Stored pages whose content another stored page already carries
    /// (`pages_stored - pages_unique`).
    pub pages_duplicate: usize,
    /// Total bytes across image files.
    pub image_bytes: u64,
    /// Virtual time the dump took.
    pub elapsed: SimDuration,
    /// Virtual time the target spent frozen (the downtime an incremental
    /// dump minimises; zero for [`pre_dump`]).
    pub frozen_for: SimDuration,
}

fn collect_images_inner(
    kernel: &mut Kernel,
    tracer: Pid,
    target: Pid,
    incremental: bool,
) -> SysResult<ImageSet> {
    let span = kernel.span_begin("criu_dump_collect", target);
    // Parasite injection: a scratch mapping plus the blob poke.
    let inject = kernel.span_begin("parasite_inject", target);
    kernel.charge(PARASITE_INJECT);
    let parasite = kernel.remote_mmap(tracer, target, 2 * PAGE_SIZE as u64, VmaKind::Parasite)?;
    let blob: Vec<u8> = (0..512u32).map(|i| (i % 251 + 1) as u8).collect();
    kernel.ptrace_poke(tracer, target, parasite, &blob)?;
    kernel.span_end(inject);

    kernel.charge(DUMP_PREPARE);

    // Task identity.
    let (comm, cmdline, cap_bits, threads, fds, vmas) = {
        let proc = kernel.process(target)?;
        let threads: Vec<ThreadImage> = proc
            .threads
            .iter()
            .map(|t| ThreadImage {
                tid: t.tid,
                regs: t.regs,
            })
            .collect();
        let fds: Vec<_> = proc.fds.iter().map(|(fd, e)| (fd, e.clone())).collect();
        let vmas: Vec<_> = proc
            .mem
            .vmas()
            .filter(|v| v.kind != VmaKind::Parasite)
            .cloned()
            .collect();
        (
            proc.comm.clone(),
            proc.cmdline.clone(),
            raw_caps(proc.caps),
            threads,
            fds,
            vmas,
        )
    };

    // Page transfer: pagemap walk, then parasite reads each resident page
    // and streams it through the pipe. Incremental dumps skip pages whose
    // soft-dirty bit is clear — their payload already sits in the parent
    // snapshot from the pre-dump.
    let walk = kernel.span_begin("pagemap_walk", target);
    let mut pages = PagesBuilder::default();
    for vma in &vmas {
        let present = kernel.proc_pagemap(target, vma.start)?;
        let dirty: std::collections::BTreeSet<u64> = if incremental {
            kernel
                .proc_pagemap_soft_dirty(target, vma.start)?
                .into_iter()
                .collect()
        } else {
            Default::default()
        };
        for page_index in present {
            if incremental && !dirty.contains(&page_index) {
                pages.push_parent_ref(page_index);
                continue;
            }
            let page = kernel.ptrace_peek_page(tracer, target, page_index)?;
            kernel.pipe_xfer(PAGE_SIZE as u64);
            pages.push(page_index, &page);
        }
    }
    let pages = pages.finish();
    kernel.span_attr(walk, "pages", pages.entries().len().to_string());
    kernel.span_end(walk);

    // Cure: drop the parasite mapping.
    kernel.remote_munmap(tracer, target, parasite)?;

    // Dedup view: collapse stored pages with identical content hashes
    // (taken as each page was collected) to one frame. Incremental dumps
    // defer payload to a parent and so carry no store (`from_pages`
    // returns `None` for them).
    let hash = kernel.span_begin("pagestore_hash", target);
    let pagestore = PageStoreImage::from_pages(&pages);
    kernel.span_end(hash);

    // Coalesce the pagemap into extent runs so restore can move whole
    // runs per scatter-gather op instead of dispatching per page.
    let coalesce = kernel.span_begin("extent_coalesce", target);
    let extents = ExtentsImage::from_pages(&pages);
    kernel.span_attr(coalesce, "runs", extents.len().to_string());
    kernel.span_end(coalesce);
    kernel.span_end(span);

    Ok(ImageSet {
        core: CoreImage {
            pid: target,
            comm,
            cmdline,
            cap_bits,
            threads,
        },
        mm: MmImage { vmas },
        pages,
        files: FilesImage { fds },
        ws: None,
        pagestore,
        extents: Some(extents),
        fallback: None,
    })
}

fn raw_caps(caps: prebake_sim::proc::CapSet) -> u8 {
    use prebake_sim::proc::Cap;
    (caps.has(Cap::SysAdmin) as u8)
        | ((caps.has(Cap::SysPtrace) as u8) << 1)
        | ((caps.has(Cap::CheckpointRestore) as u8) << 2)
}

/// Checkpoints `opts.target` into `opts.images_dir` (what real CRIU's
/// `criu dump` does). The tracer must hold a checkpoint-capable capability or
/// be the target's parent.
///
/// # Errors
///
/// [`Errno::Eperm`] without permission, [`Errno::Esrch`] for a missing
/// target, plus filesystem errors writing the images.
pub fn dump(kernel: &mut Kernel, tracer: Pid, opts: &DumpOptions) -> SysResult<DumpStats> {
    let t0 = kernel.now();
    let target = opts.target;

    let span = kernel.span_begin("criu_dump", target);
    kernel.ptrace_seize(tracer, target)?;
    kernel.ptrace_freeze(tracer, target)?;
    let freeze_start = kernel.now();

    let set = collect_images_inner(kernel, tracer, target, opts.parent.is_some())?;
    let frozen_for = kernel.now() - freeze_start;

    // Write the image files (the target could already run again here,
    // but our single-threaded driver finishes the writes first).
    let write = kernel.span_begin("image_write", target);
    kernel.fs_create_dir_all(&opts.images_dir)?;
    let dir = &opts.images_dir;
    let mut files: Vec<(&str, Bytes)> = vec![
        (ImageSet::CORE_NAME, set.core.encode().into()),
        (ImageSet::MM_NAME, set.mm.encode().into()),
        (ImageSet::PAGEMAP_NAME, set.pages.encode_pagemap().into()),
        (ImageSet::PAGES_NAME, set.pages.encode_pages()),
        (ImageSet::FILES_NAME, set.files.encode().into()),
    ];
    if let Some(store) = &set.pagestore {
        files.push((ImageSet::PAGESTORE_NAME, store.encode().into()));
    }
    if let Some(ext) = &set.extents {
        files.push((ImageSet::EXTENTS_NAME, ext.encode().into()));
    }
    if let Some(parent) = &opts.parent {
        files.push((ImageSet::PARENT_LINK, parent.clone().into()));
    }
    let mut image_bytes = 0u64;
    for (name, data) in files {
        image_bytes += data.len() as u64;
        kernel.fs_write_file(&prebake_sim::fs::join_path(dir, name), data)?;
    }
    kernel.span_attr(write, "bytes", image_bytes.to_string());
    kernel.span_end(write);

    // Resume-or-kill, then detach.
    if opts.leave_running {
        kernel.ptrace_resume(tracer, target)?;
        kernel.ptrace_detach(tracer, target)?;
    } else {
        kernel.ptrace_detach(tracer, target)?;
        kernel.sys_exit(target, 0)?;
        kernel.reap(target)?;
    }
    kernel.span_end(span);

    let stored = set.pages.stored_pages();
    let unique = set.pagestore.as_ref().map_or(stored, |s| s.unique_pages());
    Ok(DumpStats {
        vmas: set.mm.vmas.len(),
        pages_total: set.pages.entries().len(),
        pages_stored: stored,
        zero_pages: set.pages.zero_pages(),
        parent_pages: set.pages.parent_pages(),
        pages_unique: unique,
        pages_duplicate: stored - unique,
        image_bytes,
        elapsed: kernel.now() - t0,
        frozen_for,
    })
}

/// Pre-dump (real CRIU's `criu pre-dump --track-mem`): copies the (running) target's
/// resident pages into `images_dir` and clears its soft-dirty bits,
/// without ever freezing it — the task keeps serving while its memory is
/// staged. A following incremental [`dump`] with
/// [`DumpOptions::parent`] pointing here only freezes for the dirty
/// residue.
///
/// # Errors
///
/// Propagates kernel/ptrace/filesystem errors.
pub fn pre_dump(kernel: &mut Kernel, tracer: Pid, opts: &DumpOptions) -> SysResult<DumpStats> {
    let t0 = kernel.now();
    let target = opts.target;

    let span = kernel.span_begin("criu_predump", target);
    kernel.ptrace_seize(tracer, target)?;
    // No freeze: pages are read via the live-task path (the real CRIU
    // uses process_vm_readv + soft-dirty to tolerate concurrent writes).
    kernel.charge(DUMP_PREPARE);
    let vmas: Vec<_> = {
        let proc = kernel.process(target)?;
        proc.mem
            .vmas()
            .filter(|v| v.kind != VmaKind::Parasite)
            .cloned()
            .collect()
    };
    let mut pages = PagesBuilder::default();
    for vma in &vmas {
        let present = kernel.proc_pagemap(target, vma.start)?;
        for page_index in present {
            let page = kernel.ptrace_peek_page(tracer, target, page_index)?;
            kernel.pipe_xfer(PAGE_SIZE as u64);
            pages.push(page_index, &page);
        }
    }
    let pages = pages.finish();
    kernel.proc_clear_soft_dirty(target)?;
    kernel.ptrace_detach(tracer, target)?;

    kernel.fs_create_dir_all(&opts.images_dir)?;
    let dir = &opts.images_dir;
    let files = [
        (ImageSet::PAGEMAP_NAME, pages.encode_pagemap().into()),
        (ImageSet::PAGES_NAME, pages.encode_pages()),
    ];
    let mut image_bytes = 0u64;
    for (name, data) in files {
        image_bytes += data.len() as u64;
        kernel.fs_write_file(&prebake_sim::fs::join_path(dir, name), data)?;
    }
    kernel.span_end(span);

    Ok(DumpStats {
        vmas: vmas.len(),
        pages_total: pages.entries().len(),
        pages_stored: pages.stored_pages(),
        zero_pages: pages.zero_pages(),
        parent_pages: 0,
        pages_unique: pages.stored_pages(),
        pages_duplicate: 0,
        image_bytes,
        elapsed: kernel.now() - t0,
        frozen_for: SimDuration::ZERO,
    })
}

/// Options for an offline [`repack`] pass over an existing image
/// directory. The pass always rewrites `pages.img` + the extent table so
/// pages appear in the `ws.img` fault order — lazy/prefetch restores
/// then stream the payload sequentially instead of seeking.
#[derive(Debug, Clone)]
pub struct RepackOptions {
    /// Guest directory holding the images to rewrite in place.
    pub images_dir: String,
    /// Drop stored pages outside the recorded working set into the
    /// fallback layer: the hot image shrinks to what a
    /// cold start actually touches; faults past it fall through to the
    /// fallback at a charged penalty.
    pub compact: bool,
}

impl RepackOptions {
    /// Fault-order repack of `images_dir`, no compaction.
    pub fn new(images_dir: impl Into<String>) -> RepackOptions {
        RepackOptions {
            images_dir: images_dir.into(),
            compact: false,
        }
    }
}

/// Statistics of a completed [`repack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepackStats {
    /// Stored pages before the pass (hot + fallback afterwards).
    pub pages_total: usize,
    /// Stored pages kept in the hot image.
    pub pages_hot: usize,
    /// Stored pages moved to the fallback layer (zero unless
    /// [`RepackOptions::compact`]).
    pub pages_compacted: usize,
    /// Critical-path image bytes before the pass.
    pub hot_bytes_before: u64,
    /// Critical-path image bytes after (smaller when compacting).
    pub hot_bytes_after: u64,
    /// Virtual time the pass took.
    pub elapsed: SimDuration,
}

/// Rewrites an existing image directory offline: fault-order layout,
/// plus hot-image compaction when asked, driven by the recorded `ws.img`. Runs on
/// the builder machine after a record pass — never on a cold start's
/// critical path. The extent table and the page store are re-derived
/// from the rewritten pagemap; guest-visible memory is unchanged.
///
/// # Errors
///
/// [`Errno::Enoent`] when `images_dir` lacks a `ws.img` (nothing to
/// order/compact by), [`Errno::Einval`] for parent-linked (incremental)
/// images or corrupt files, plus filesystem errors.
pub fn repack(kernel: &mut Kernel, opts: &RepackOptions) -> SysResult<RepackStats> {
    let t0 = kernel.now();
    let dir = &opts.images_dir;
    if kernel.fs_exists(&prebake_sim::fs::join_path(dir, ImageSet::PARENT_LINK)) {
        // An incremental image splits payload across directories; repack
        // only handles self-contained snapshots.
        return Err(Errno::Einval);
    }
    if !kernel.fs_exists(&prebake_sim::fs::join_path(dir, ImageSet::WS_NAME)) {
        return Err(Errno::Enoent);
    }
    let set = read_images(kernel, dir)?;
    let ws = set.ws.as_ref().expect("ws.img existence checked above");

    let span = kernel.span_begin("criu_repack", set.core.pid);
    // Re-merge a previously compacted set so the pass is idempotent:
    // repacking twice (or compacting after a plain reorder) always works
    // from the full page population, in page-index order.
    let full = match &set.fallback {
        Some(fallback) => {
            let merged = set.pages.concat(fallback);
            merged.reordered(&{
                let mut idx: Vec<u64> = merged.entries().iter().map(|e| e.page_index).collect();
                idx.sort_unstable();
                idx
            })
        }
        None => set.pages.clone(),
    }
    .reordered(&ws.pages);
    let (hot, fallback) = if opts.compact {
        let hot_set: std::collections::BTreeSet<u64> = ws.pages.iter().copied().collect();
        full.split_hot(&hot_set).ok_or(Errno::Einval)?
    } else {
        (full, PagesImage::default())
    };
    let pagestore = PageStoreImage::from_pages(&hot);
    let extents = ExtentsImage::from_pages(&hot);
    kernel.span_attr(span, "hot_pages", hot.stored_pages().to_string());
    kernel.span_attr(span, "fallback_pages", fallback.stored_pages().to_string());

    let mut files: Vec<(&str, Bytes)> = vec![
        (ImageSet::PAGEMAP_NAME, hot.encode_pagemap().into()),
        (ImageSet::PAGES_NAME, hot.encode_pages()),
        (ImageSet::EXTENTS_NAME, extents.encode().into()),
    ];
    if let Some(store) = &pagestore {
        files.push((ImageSet::PAGESTORE_NAME, store.encode().into()));
    }
    if opts.compact {
        files.push((
            ImageSet::FALLBACK_PAGEMAP_NAME,
            fallback.encode_pagemap().into(),
        ));
        files.push((ImageSet::FALLBACK_PAGES_NAME, fallback.encode_pages()));
    } else {
        for name in [
            ImageSet::FALLBACK_PAGEMAP_NAME,
            ImageSet::FALLBACK_PAGES_NAME,
        ] {
            let path = prebake_sim::fs::join_path(dir, name);
            if kernel.fs_exists(&path) {
                kernel.fs_remove_file(&path)?;
            }
        }
    }
    for (name, data) in files {
        kernel.fs_write_file(&prebake_sim::fs::join_path(dir, name), data)?;
    }
    kernel.span_end(span);

    let after = ImageSet {
        pages: hot.clone(),
        pagestore,
        extents: Some(extents),
        fallback: opts.compact.then(|| fallback.clone()),
        ..set.clone()
    };
    Ok(RepackStats {
        pages_total: hot.stored_pages() + fallback.stored_pages(),
        pages_hot: hot.stored_pages(),
        pages_compacted: fallback.stored_pages(),
        hot_bytes_before: set.hot_bytes(),
        hot_bytes_after: after.hot_bytes(),
        elapsed: kernel.now() - t0,
    })
}

/// Reads an image set back from a guest directory (charged at fs rates —
/// warm if the images are page-cache-resident, as they are when the
/// snapshot ships inside the pre-pulled container image).
///
/// # Errors
///
/// [`Errno::Enoent`] for missing files, [`Errno::Einval`] for corrupt
/// images.
pub fn read_images(kernel: &mut Kernel, images_dir: &str) -> SysResult<ImageSet> {
    read_images_with(kernel, images_dir, false)
}

/// Reads an image set for a lazy-mode restore. Metadata images (`core`,
/// `mm`, `pagemap`, `files` and `ws` when present) are charged as normal
/// reads, but the page payload is *mapped*, not read — CRIU's
/// `--lazy-pages` serves `pages.img` over userfaultfd, so its bytes
/// travel only when faulted (or prefetched). Only `mmap` bookkeeping is
/// charged for the payload here; the per-page transfer is charged at
/// fault or prefetch time by the kernel. That deferral is in virtual
/// time only: on the host, the payload is verified (checksum and page
/// hashes) exactly as [`read_images`] does.
///
/// # Errors
///
/// Same as [`read_images`].
pub fn read_images_lazy(kernel: &mut Kernel, images_dir: &str) -> SysResult<ImageSet> {
    read_images_with(kernel, images_dir, true)
}

fn read_images_with(kernel: &mut Kernel, images_dir: &str, lazy: bool) -> SysResult<ImageSet> {
    let read = |kernel: &mut Kernel, name: &str| -> SysResult<Bytes> {
        kernel.fs_read_file(&prebake_sim::fs::join_path(images_dir, name))
    };
    let read_payload = |kernel: &mut Kernel, path: &str| -> SysResult<Bytes> {
        if lazy {
            let cost = kernel.costs().mmap_base;
            kernel.charge(cost);
            let path = path.to_owned();
            kernel.uncharged(move |k| k.fs_read_file(&path))
        } else {
            kernel.fs_read_file(path)
        }
    };
    let core_bytes = read(kernel, ImageSet::CORE_NAME)?;
    let mm_bytes = read(kernel, ImageSet::MM_NAME)?;
    let pagemap_bytes = read(kernel, ImageSet::PAGEMAP_NAME)?;
    let pages_bytes = read_payload(
        kernel,
        &prebake_sim::fs::join_path(images_dir, ImageSet::PAGES_NAME),
    )?;
    let files_bytes = read(kernel, ImageSet::FILES_NAME)?;
    let ws_path = prebake_sim::fs::join_path(images_dir, ImageSet::WS_NAME);
    let ws = if kernel.fs_exists(&ws_path) {
        let ws_bytes = kernel.fs_read_file(&ws_path)?;
        Some(crate::image::WsImage::parse(&ws_bytes).map_err(|_| Errno::Einval)?)
    } else {
        None
    };
    let mut pages = PagesImage::parse(&pagemap_bytes, &pages_bytes).map_err(|_| Errno::Einval)?;

    // The page store on disk is metadata only — frame hashes plus the
    // reference table — so it reads at ordinary (small-file) cost in
    // every mode; its frames are pages of the pages image just loaded,
    // checked against the page hashes that parse computed.
    let pagestore_path = prebake_sim::fs::join_path(images_dir, ImageSet::PAGESTORE_NAME);
    let pagestore = if kernel.fs_exists(&pagestore_path) {
        let store_bytes = kernel.fs_read_file(&pagestore_path)?;
        Some(PageStoreImage::parse(&store_bytes, &pages).map_err(|_| Errno::Einval)?)
    } else {
        None
    };

    // Extent table: optional, so pre-extent snapshots keep restoring
    // (the vectored path recoalesces from the pagemap via `extent_view`).
    let extents_path = prebake_sim::fs::join_path(images_dir, ImageSet::EXTENTS_NAME);
    let mut extents = if kernel.fs_exists(&extents_path) {
        let ext_bytes = kernel.fs_read_file(&extents_path)?;
        Some(ExtentsImage::parse(&ext_bytes, &pages).map_err(|_| Errno::Einval)?)
    } else {
        None
    };

    // Compaction fallback layer: its payload is *never* read eagerly —
    // fallback pages are served by demand paging in every restore mode,
    // so only the mmap bookkeeping is charged here and the bytes travel
    // at fault time (the same model as a lazy pages.img).
    let fb_pagemap_path = prebake_sim::fs::join_path(images_dir, ImageSet::FALLBACK_PAGEMAP_NAME);
    let fb_pages_path = prebake_sim::fs::join_path(images_dir, ImageSet::FALLBACK_PAGES_NAME);
    let fallback = if kernel.fs_exists(&fb_pagemap_path) && kernel.fs_exists(&fb_pages_path) {
        let fb_pagemap = kernel.fs_read_file(&fb_pagemap_path)?;
        let cost = kernel.costs().mmap_base;
        kernel.charge(cost);
        let fb_payload = kernel.uncharged(move |k| k.fs_read_file(&fb_pages_path))?;
        Some(PagesImage::parse(&fb_pagemap, &fb_payload).map_err(|_| Errno::Einval)?)
    } else {
        None
    };

    // Incremental image: follow the parent link and resolve the deferred
    // pages so the returned set is self-contained. Parent payload is part
    // of the same mapped-image model in lazy mode.
    if pages.parent_pages() > 0 {
        let link_path = prebake_sim::fs::join_path(images_dir, ImageSet::PARENT_LINK);
        let link = kernel.fs_read_file(&link_path)?;
        let parent_dir = std::str::from_utf8(&link)
            .map_err(|_| Errno::Einval)?
            .to_owned();
        let parent_pagemap = kernel.fs_read_file(&prebake_sim::fs::join_path(
            &parent_dir,
            ImageSet::PAGEMAP_NAME,
        ))?;
        let parent_pages_bytes = read_payload(
            kernel,
            &prebake_sim::fs::join_path(&parent_dir, ImageSet::PAGES_NAME),
        )?;
        let parent =
            PagesImage::parse(&parent_pagemap, &parent_pages_bytes).map_err(|_| Errno::Einval)?;
        pages = pages.resolve_parent(&parent).map_err(|_| Errno::Einval)?;
        // The dumped runs coalesced the *incremental* pagemap; resolution
        // turned parent refs into stored pages, so recoalesce instead.
        extents = None;
    }

    Ok(ImageSet {
        core: CoreImage::parse(&core_bytes).map_err(|_| Errno::Einval)?,
        mm: MmImage::parse(&mm_bytes).map_err(|_| Errno::Einval)?,
        pages,
        files: FilesImage::parse(&files_bytes).map_err(|_| Errno::Einval)?,
        ws,
        pagestore,
        extents,
        fallback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::Prot;
    use prebake_sim::proc::CapSet;

    fn setup() -> (Kernel, Pid, Pid) {
        let mut k = Kernel::free(3);
        let tracer = k.sys_clone(INIT_PID).unwrap(); // inherits full caps
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, 8 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        // two data pages, one explicit zero page
        k.mem_write(target, addr, &[0xAA; 100]).unwrap();
        k.mem_write(target, addr.add(2 * PAGE_SIZE as u64), &[0u8; 50])
            .unwrap();
        k.mem_write(target, addr.add(4 * PAGE_SIZE as u64), &[0xBB; 4096])
            .unwrap();
        k.sys_listen(target, 8080).unwrap();
        (k, tracer, target)
    }

    #[test]
    fn dump_produces_images_and_kills_target() {
        let (mut k, tracer, target) = setup();
        let stats = dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        assert_eq!(stats.pages_total, 3);
        assert_eq!(stats.pages_stored, 2, "zero page deduplicated");
        assert_eq!(stats.zero_pages, 1);
        assert!(stats.image_bytes > 2 * PAGE_SIZE as u64);
        assert!(k.process(target).is_err(), "target reaped");
        assert_eq!(k.port_owner(8080), None, "port released with the target");
        for name in [
            ImageSet::CORE_NAME,
            ImageSet::MM_NAME,
            ImageSet::PAGEMAP_NAME,
            ImageSet::PAGES_NAME,
            ImageSet::FILES_NAME,
        ] {
            assert!(k.fs_exists(&format!("/img/{name}")), "missing {name}");
        }
    }

    #[test]
    fn leave_running_keeps_target() {
        let (mut k, tracer, target) = setup();
        let mut opts = DumpOptions::new(target, "/img");
        opts.leave_running = true;
        dump(&mut k, tracer, &opts).unwrap();
        let proc = k.process(target).unwrap();
        assert_eq!(proc.state, prebake_sim::proc::ProcState::Running);
        assert!(proc.traced_by.is_none());
        assert_eq!(k.port_owner(8080), Some(target));
        // parasite cured
        assert!(proc.mem.vmas().all(|v| v.kind != VmaKind::Parasite));
    }

    #[test]
    fn dump_requires_permission() {
        let (mut k, tracer, target) = setup();
        k.process_mut(tracer).unwrap().caps = CapSet::empty();
        assert_eq!(
            dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap_err(),
            Errno::Eperm
        );
    }

    #[test]
    fn images_roundtrip_through_fs() {
        let (mut k, tracer, target) = setup();
        let expected_fds: Vec<_> = k
            .process(target)
            .unwrap()
            .fds
            .iter()
            .map(|(fd, e)| (fd, e.clone()))
            .collect();
        let mut opts = DumpOptions::new(target, "/img");
        opts.leave_running = true;
        dump(&mut k, tracer, &opts).unwrap();
        let set = read_images(&mut k, "/img").unwrap();
        assert_eq!(set.core.pid, target);
        assert_eq!(set.files.fds, expected_fds);
        assert_eq!(set.pages.stored_pages(), 2);
        // dumped page content is faithful
        let first_payload = set
            .pages
            .iter_pages()
            .find_map(|(_, p)| match p {
                crate::image::PageSource::Stored(b) => Some(b),
                _ => None,
            })
            .unwrap();
        assert_eq!(&first_payload.bytes()[..100], &[0xAA; 100]);
    }

    #[test]
    fn dump_excludes_parasite_vma() {
        let (mut k, tracer, target) = setup();
        let vmas_before = k.process(target).unwrap().mem.vmas().count();
        let mut opts = DumpOptions::new(target, "/img");
        opts.leave_running = true;
        dump(&mut k, tracer, &opts).unwrap();
        let set = read_images(&mut k, "/img").unwrap();
        assert_eq!(set.mm.vmas.len(), vmas_before);
        assert!(set.mm.vmas.iter().all(|v| v.kind != VmaKind::Parasite));
    }

    #[test]
    fn missing_images_dir_is_enoent() {
        let mut k = Kernel::free(9);
        assert_eq!(read_images(&mut k, "/nope").unwrap_err(), Errno::Enoent);
    }

    #[test]
    fn dump_emits_dedup_page_store() {
        let mut k = Kernel::free(4);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, 8 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        // Three identical full pages and one distinct page.
        for i in [0u64, 1, 2] {
            k.mem_write(target, addr.add(i * PAGE_SIZE as u64), &[0xCC; PAGE_SIZE])
                .unwrap();
        }
        k.mem_write(target, addr.add(3 * PAGE_SIZE as u64), &[0xDD; PAGE_SIZE])
            .unwrap();

        let stats = dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        assert_eq!(stats.pages_stored, 4);
        assert_eq!(stats.pages_unique, 2, "0xCC and 0xDD frames");
        assert_eq!(stats.pages_duplicate, 2);
        assert!(k.fs_exists(&format!("/img/{}", ImageSet::PAGESTORE_NAME)));

        let set = read_images(&mut k, "/img").unwrap();
        let store = set.pagestore.expect("page store read back");
        assert_eq!(store.unique_pages(), 2);
        assert_eq!(store.refs.len(), 4);
        store.verify_against(&set.pages).unwrap();
    }

    #[test]
    fn incremental_dump_skips_page_store() {
        let (mut k, tracer, target) = setup();
        let mut pre = DumpOptions::new(target, "/pre");
        pre.leave_running = true;
        pre_dump(&mut k, tracer, &pre).unwrap();
        let mut opts = DumpOptions::new(target, "/img");
        opts.parent = Some("/pre".into());
        dump(&mut k, tracer, &opts).unwrap();
        assert!(
            !k.fs_exists(&format!("/img/{}", ImageSet::PAGESTORE_NAME)),
            "incremental dumps carry no dedup view"
        );
        // read_images resolves the parent; the set simply has no store.
        let set = read_images(&mut k, "/img").unwrap();
        assert!(set.pagestore.is_none());
    }
}
