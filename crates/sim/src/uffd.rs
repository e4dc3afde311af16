//! Demand-paging fault backends — the `userfaultfd(2)` analogue.
//!
//! Lazy restore (the paper's §7 future work, realised by REAP at
//! ASPLOS '21) maps a checkpointed address space *without* its page
//! contents and registers the region with `userfaultfd`. Every first
//! touch traps to a handler that copies the page in from the snapshot
//! image (`UFFDIO_COPY`). This module models that mechanism: a
//! [`UffdBackend`] holds the withheld pages for one process, counts
//! major/minor faults and — when recording — logs the *order* in which
//! pages were demanded, which is exactly the working set a later
//! prefetch-mode restore loads up front.
//!
//! The kernel owns the registration table (see
//! [`Kernel::uffd_register`](crate::kernel::Kernel::uffd_register)) and
//! resolves faults transparently inside `mem_read`/`mem_write`/ptrace
//! accesses, charging [`CostModel::fault_trap`](crate::cost::CostModel)
//! plus the data movement per major fault.

use std::collections::{BTreeMap, BTreeSet};

use crate::mem::Page;

/// Per-process demand-paging backend: withheld page contents plus fault
/// accounting, registered with the kernel via `uffd_register`.
#[derive(Debug, Clone, Default)]
pub struct UffdBackend {
    pages: BTreeMap<u64, Page>,
    /// Pages served from the compaction *fallback layer* (the full cold
    /// image behind a hot working-set image). Faulting one of these
    /// charges the kernel's `fault_fallback` penalty on top of the
    /// normal service cost.
    fallback: BTreeSet<u64>,
    recording: bool,
    log: Vec<u64>,
    major_faults: u64,
    minor_faults: u64,
    fault_around: usize,
}

impl UffdBackend {
    /// An empty backend.
    pub fn new() -> Self {
        UffdBackend::default()
    }

    /// Adds the content for one withheld page.
    pub fn insert_page(&mut self, page_index: u64, page: Page) {
        self.pages.insert(page_index, page);
    }

    /// Adds the content for one withheld page that lives in the
    /// compaction fallback layer rather than the hot image. Faulting it
    /// costs extra ([`CostModel::fault_fallback`](crate::cost::CostModel)).
    pub fn insert_fallback_page(&mut self, page_index: u64, page: Page) {
        self.pages.insert(page_index, page);
        self.fallback.insert(page_index);
    }

    /// Whether `page_index` is served from the fallback layer.
    pub(crate) fn is_fallback(&self, page_index: u64) -> bool {
        self.fallback.contains(&page_index)
    }

    /// Looks up a withheld page.
    pub(crate) fn page(&self, page_index: u64) -> Option<&Page> {
        self.pages.get(&page_index)
    }

    /// Drops a withheld page, breaking the registration invariant that
    /// every missing page has content.
    #[cfg(test)]
    pub(crate) fn remove_page(&mut self, page_index: u64) {
        self.pages.remove(&page_index);
    }

    /// Number of withheld pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the backend holds no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Page indices the backend holds, ascending.
    pub(crate) fn page_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.keys().copied()
    }

    /// Sets the fault-around window: one trapping fault services up to
    /// `window` pages (the trap page plus forward-consecutive withheld
    /// neighbours) under a single service charge, like the handler
    /// answering one `userfaultfd` message with a multi-page
    /// `UFFDIO_COPY`. `0` and `1` both mean fault-around off.
    pub fn set_fault_around(&mut self, window: usize) {
        self.fault_around = window;
    }

    /// The effective fault-around window (always ≥ 1).
    pub(crate) fn fault_around(&self) -> usize {
        self.fault_around.max(1)
    }

    /// Turns working-set recording on or off. While on, every major
    /// fault appends its page index to the ordered log.
    pub(crate) fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Takes the recorded fault log (ordered, first fault first) and
    /// stops recording.
    pub(crate) fn take_log(&mut self) -> Vec<u64> {
        self.recording = false;
        std::mem::take(&mut self.log)
    }

    /// Notes a resolved major fault on `page_index`.
    pub(crate) fn note_major(&mut self, page_index: u64) {
        self.major_faults += 1;
        if self.recording {
            self.log.push(page_index);
        }
    }

    /// Notes `n` minor faults.
    pub(crate) fn note_minor(&mut self, n: u64) {
        self.minor_faults += n;
    }

    /// Major faults resolved so far.
    pub(crate) fn major_faults(&self) -> u64 {
        self.major_faults
    }

    /// Minor faults observed so far.
    pub(crate) fn minor_faults(&self) -> u64 {
        self.minor_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::page::PAGE_SIZE;

    #[test]
    fn backend_holds_pages() {
        let mut b = UffdBackend::new();
        assert!(b.is_empty());
        b.insert_page(7, Page::from_bytes(&[1u8; PAGE_SIZE]));
        b.insert_page(3, Page::zeroed());
        assert_eq!(b.len(), 2);
        assert_eq!(b.page_indices().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(b.page(7).unwrap().bytes()[0], 1);
        assert!(b.page(8).is_none());
    }

    #[test]
    fn fallback_pages_are_marked_and_counted() {
        let mut b = UffdBackend::new();
        b.insert_page(1, Page::zeroed());
        b.insert_fallback_page(2, Page::from_bytes(&[7u8; PAGE_SIZE]));
        assert!(!b.is_fallback(1));
        assert!(b.is_fallback(2));
        assert_eq!(b.len(), 2, "fallback pages are still withheld pages");
        assert_eq!(b.page(2).unwrap().bytes()[0], 7);
    }

    #[test]
    fn fault_around_window_normalises_to_at_least_one() {
        let mut b = UffdBackend::new();
        assert_eq!(b.fault_around(), 1, "default is off");
        b.set_fault_around(0);
        assert_eq!(b.fault_around(), 1);
        b.set_fault_around(16);
        assert_eq!(b.fault_around(), 16);
    }

    #[test]
    fn recording_logs_major_fault_order() {
        let mut b = UffdBackend::new();
        b.note_major(5); // not recording yet: counted, not logged
        b.set_recording(true);
        b.note_major(9);
        b.note_major(2);
        b.note_major(9); // refaults may repeat in the log
        b.note_minor(3);
        assert_eq!(b.major_faults(), 4);
        assert_eq!(b.minor_faults(), 3);
        assert_eq!(b.take_log(), vec![9, 2, 9]);
        b.note_major(4); // taking the log stopped recording
        assert!(b.take_log().is_empty(), "log is consumed");
    }
}
