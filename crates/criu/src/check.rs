//! Checkpoint-image validation (`criu check` / `crit` analogue).
//!
//! Platforms that ship snapshots inside container images (paper §5) want
//! to validate them at push time rather than discover corruption during
//! a production restore. [`check`] parses every image file and
//! cross-validates the set: pagemap entries must fall inside dumped
//! VMAs, descriptors and ports must be unique, parent links must
//! resolve.

use std::collections::BTreeSet;
use std::fmt;

use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::mem::PAGE_SIZE;
use prebake_sim::proc::FdEntry;

use crate::dump::read_images;
use crate::image::{ImageSet, PageSource};

/// Result of validating one images directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Dumped pid.
    pub pid: u32,
    /// Mappings in `mm.img`.
    pub vmas: usize,
    /// Pagemap entries.
    pub pages: usize,
    /// Pages with payload stored.
    pub pages_stored: usize,
    /// Zero-deduplicated pages.
    pub zero_pages: usize,
    /// Distinct page frames in `pagestore.img`, when the snapshot
    /// carries one (`None` for pre-dedup or incremental images).
    pub pages_unique: Option<usize>,
    /// Open descriptors recorded.
    pub fds: usize,
    /// Threads recorded.
    pub threads: usize,
    /// Non-fatal oddities worth surfacing.
    pub warnings: Vec<String>,
}

impl CheckReport {
    /// `true` when the images are usable and nothing looked odd.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "images ok: pid {}, {} vmas, {} pages ({} stored, {} zero), {} fds, {} threads",
            self.pid,
            self.vmas,
            self.pages,
            self.pages_stored,
            self.zero_pages,
            self.fds,
            self.threads
        )?;
        for w in &self.warnings {
            writeln!(f, "warning: {w}")?;
        }
        Ok(())
    }
}

/// Validates the checkpoint in `images_dir`.
///
/// # Errors
///
/// [`Errno::Enoent`] for missing files, [`Errno::Einval`] for corrupt or
/// structurally inconsistent images (a pagemap entry outside every VMA,
/// duplicate page indices, duplicate descriptors or listener ports, or
/// an empty thread set).
pub fn check(kernel: &mut Kernel, images_dir: &str) -> SysResult<CheckReport> {
    let set: ImageSet = read_images(kernel, images_dir)?;

    // Threads and identity.
    if set.core.threads.is_empty() {
        return Err(Errno::Einval);
    }
    let mut warnings = Vec::new();
    if set.core.comm.is_empty() {
        warnings.push("empty comm".to_owned());
    }

    // VMAs must not overlap (mirrors the kernel invariant).
    for (i, a) in set.mm.vmas.iter().enumerate() {
        for b in &set.mm.vmas[i + 1..] {
            if a.overlaps(b) {
                return Err(Errno::Einval);
            }
        }
    }

    // Every pagemap entry inside some VMA; no duplicates.
    let mut seen = BTreeSet::new();
    for (idx, _) in set.pages.iter_pages() {
        if !seen.insert(idx) {
            return Err(Errno::Einval);
        }
        let addr = prebake_sim::mem::VirtAddr(idx * PAGE_SIZE as u64);
        if !set.mm.vmas.iter().any(|v| v.contains(addr)) {
            return Err(Errno::Einval);
        }
    }
    // read_images resolves parents; an unresolved ref is a hard error.
    if set
        .pages
        .iter_pages()
        .any(|(_, s)| matches!(s, PageSource::Parent))
    {
        return Err(Errno::Einval);
    }

    // Descriptors: unique fd numbers and listener ports.
    let mut fds = BTreeSet::new();
    let mut ports = BTreeSet::new();
    for (fd, FdEntry::Listener { port }) in &set.files.fds {
        if !fds.insert(*fd) || !ports.insert(*port) {
            return Err(Errno::Einval);
        }
    }
    if ports.is_empty() {
        warnings.push("no listener socket: restored replica cannot serve".to_owned());
    }
    if set.pages.stored_pages() == 0 {
        warnings.push("no page payload: snapshot is empty".to_owned());
    }

    // Page store (when present) must mirror the pages image exactly —
    // a divergent dedup view would CoW-restore the wrong bytes.
    let pages_unique = match &set.pagestore {
        Some(store) => {
            store
                .verify_against(&set.pages)
                .map_err(|_| Errno::Einval)?;
            Some(store.unique_pages())
        }
        None => {
            warnings.push("no page store: CoW restore unavailable".to_owned());
            None
        }
    };

    Ok(CheckReport {
        pid: set.core.pid.0,
        vmas: set.mm.vmas.len(),
        pages: set.pages.entries().len(),
        pages_stored: set.pages.stored_pages(),
        zero_pages: set.pages.zero_pages(),
        pages_unique,
        fds: set.files.fds.len(),
        threads: set.core.threads.len(),
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{dump, DumpOptions};
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::{Prot, VmaKind};

    fn checkpointed() -> (Kernel, String) {
        let mut k = Kernel::free(1);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, 4 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        k.mem_write(target, addr, &[5u8; 100]).unwrap();
        k.sys_listen(target, 8080).unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        (k, "/img".to_owned())
    }

    #[test]
    fn healthy_images_check_clean() {
        let (mut k, dir) = checkpointed();
        let report = check(&mut k, &dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.vmas, 1);
        assert_eq!(report.fds, 1);
        assert_eq!(report.pages_stored, 1);
        assert!(report.to_string().contains("images ok"));
    }

    #[test]
    fn missing_dir_is_enoent() {
        let mut k = Kernel::free(2);
        assert_eq!(check(&mut k, "/nope").unwrap_err(), Errno::Enoent);
    }

    #[test]
    fn corrupt_pagemap_detected() {
        let (mut k, dir) = checkpointed();
        let path = format!("{dir}/pagemap.img");
        let (data, _) = k.fs_mut().read_file(&path).unwrap();
        let mut bad = data.to_vec();
        let n = bad.len();
        bad[n / 2] ^= 0xF0;
        k.fs_mut().write_file(&path, bad).unwrap();
        assert_eq!(check(&mut k, &dir).unwrap_err(), Errno::Einval);
    }

    #[test]
    fn divergent_page_store_detected() {
        let (mut k, dir) = checkpointed();
        // Re-point the store at different (self-consistent) content: it
        // parses fine but no longer mirrors pages.img.
        let mut pages = crate::image::PagesBuilder::default();
        let mut page = prebake_sim::mem::Page::zeroed();
        page.bytes_mut().fill(0x99);
        pages.push(0, &page);
        let bogus = crate::image::PageStoreImage::from_pages(&pages.finish()).unwrap();
        k.fs_mut()
            .write_file(&format!("{dir}/pagestore.img"), bogus.encode())
            .unwrap();
        assert_eq!(check(&mut k, &dir).unwrap_err(), Errno::Einval);
    }

    #[test]
    fn missing_page_store_only_warns() {
        let (mut k, dir) = checkpointed();
        k.fs_remove_file(&format!("{dir}/pagestore.img")).unwrap();
        let report = check(&mut k, &dir).unwrap();
        assert_eq!(report.pages_unique, None);
        assert!(report.warnings.iter().any(|w| w.contains("no page store")));
    }

    #[test]
    fn snapshot_without_listener_warns() {
        let mut k = Kernel::free(3);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        k.mem_write(target, addr, &[1u8]).unwrap();
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        let report = check(&mut k, "/img").unwrap();
        assert!(!report.is_clean());
        assert!(report.warnings[0].contains("no listener"), "{report}");
    }
}
