//! Per-process address spaces.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{Errno, SysResult};
use crate::mem::page::{pages_for, Page, PAGE_SIZE};
use crate::mem::vma::{Prot, VirtAddr, Vma, VmaKind};

/// Lowest address handed out by the allocating `mmap`.
pub const MMAP_BASE: u64 = 0x0000_1000_0000;

/// Page-touch statistics returned by memory accessors so the kernel can
/// charge fault and copy costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TouchStats {
    /// Pages the access spanned.
    pub pages_touched: u64,
    /// Pages that had to be materialised (first write — a minor fault).
    pub pages_materialized: u64,
    /// Shared frames that were broken (first write to a copy-on-write
    /// page — the deferred private copy was paid here).
    pub cow_broken: u64,
}

/// What backs one resident page of an [`AddressSpace`].
#[derive(Debug, Clone)]
enum Slot {
    /// A page of the process's own.
    Private(Page),
    /// A write-protected frame of the machine's shared page store (the
    /// memfd/KSM analogue), mapped copy-on-write: reads go through the
    /// frame, and the first write breaks the slot into a private copy.
    /// Frames are reference-counted via [`Arc`]; dropping the slot
    /// (break, munmap, exit) releases this space's reference.
    Shared(Arc<Page>),
}

impl Slot {
    fn page(&self) -> &Page {
        match self {
            Slot::Private(page) => page,
            Slot::Shared(frame) => frame,
        }
    }
}

/// A process's virtual address space: a set of non-overlapping [`Vma`]s and
/// the materialised [`Page`]s behind them.
///
/// Reads of mapped-but-untouched pages observe zeros (demand-zero
/// semantics); writes materialise pages. The checkpoint engine only sees
/// materialised pages, which is exactly the `/proc/<pid>/pagemap` view the
/// real CRIU uses.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    /// Resident pages by page index, private or shared.
    pages: BTreeMap<u64, Slot>,
    /// Soft-dirty set: pages written since the last
    /// [`clear_soft_dirty`](AddressSpace::clear_soft_dirty) — the
    /// `/proc/<pid>/clear_refs` + pagemap soft-dirty mechanism CRIU's
    /// incremental pre-dump relies on.
    dirty: std::collections::BTreeSet<u64>,
    /// Pages mapped `MAP_MISSING`: inside a VMA but with their content
    /// held back by a demand-paging backend (the `userfaultfd` analogue).
    /// Touching one without resolving it first is a fault; the kernel
    /// resolves them through its registered fault handler.
    missing: std::collections::BTreeSet<u64>,
    next_map: u64,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        AddressSpace {
            vmas: BTreeMap::new(),
            pages: BTreeMap::new(),
            dirty: std::collections::BTreeSet::new(),
            missing: std::collections::BTreeSet::new(),
            next_map: MMAP_BASE,
        }
    }

    /// Iterates over mappings in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Looks up the mapping containing `addr`.
    pub(crate) fn find_vma(&self, addr: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=addr.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(addr))
    }

    /// Maps `len` bytes (rounded up to pages) at an allocator-chosen
    /// address.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if `len` is zero.
    pub fn mmap(&mut self, len: u64, prot: Prot, kind: VmaKind) -> SysResult<VirtAddr> {
        if len == 0 {
            return Err(Errno::Einval);
        }
        let len = pages_for(len) * PAGE_SIZE as u64;
        let start = VirtAddr(self.next_map);
        self.next_map += len + PAGE_SIZE as u64; // guard page gap
        let vma = Vma {
            start,
            len,
            prot,
            kind,
        };
        debug_assert!(self.vmas.values().all(|v| !v.overlaps(&vma)));
        self.vmas.insert(start.0, vma);
        Ok(start)
    }

    /// Maps `len` bytes at a fixed address (the restore path re-creates
    /// mappings at their checkpointed addresses).
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] for zero length or unaligned `start`, and
    /// [`Errno::Eexist`] if the range overlaps an existing mapping.
    pub fn mmap_fixed(
        &mut self,
        start: VirtAddr,
        len: u64,
        prot: Prot,
        kind: VmaKind,
    ) -> SysResult<VirtAddr> {
        if len == 0 || !start.is_page_aligned() {
            return Err(Errno::Einval);
        }
        let len = pages_for(len) * PAGE_SIZE as u64;
        let vma = Vma {
            start,
            len,
            prot,
            kind,
        };
        if self.vmas.values().any(|v| v.overlaps(&vma)) {
            return Err(Errno::Eexist);
        }
        // Keep the allocator clear of fixed mappings.
        self.next_map = self.next_map.max(start.0 + len + PAGE_SIZE as u64);
        self.vmas.insert(start.0, vma);
        Ok(start)
    }

    /// Unmaps the mapping starting exactly at `start`, dropping its pages.
    ///
    /// # Errors
    ///
    /// Returns [`Errno::Einval`] if no mapping starts at `start`.
    pub fn munmap(&mut self, start: VirtAddr) -> SysResult<Vma> {
        let vma = self.vmas.remove(&start.0).ok_or(Errno::Einval)?;
        let gone = vma.first_page()..vma.first_page() + vma.page_count();
        self.pages.retain(|k, _| !gone.contains(k));
        self.dirty.retain(|k| !gone.contains(k));
        self.missing.retain(|k| !gone.contains(k));
        Ok(vma)
    }

    /// Writes `bytes` at `addr`, materialising pages as needed.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the range is not fully mapped, [`Errno::Eperm`]
    /// if the mapping is not writable.
    pub fn write(&mut self, addr: VirtAddr, bytes: &[u8]) -> SysResult<TouchStats> {
        self.check_range(addr, bytes.len() as u64, true)?;
        let mut stats = TouchStats::default();
        let mut off = 0usize;
        let mut cur = addr;
        while off < bytes.len() {
            let page_idx = cur.page_index();
            let in_page = cur.page_offset();
            let chunk = (PAGE_SIZE - in_page).min(bytes.len() - off);
            let slot = self.pages.entry(page_idx).or_insert_with(|| {
                stats.pages_materialized += 1;
                Slot::Private(Page::zeroed())
            });
            if let Slot::Shared(frame) = slot {
                // Write-protect fault on a shared frame: break the
                // mapping into a private copy before the write lands.
                *slot = Slot::Private(Page::clone(frame));
                stats.cow_broken += 1;
            }
            let Slot::Private(page) = slot else {
                unreachable!("broken above")
            };
            page.bytes_mut()[in_page..in_page + chunk].copy_from_slice(&bytes[off..off + chunk]);
            self.dirty.insert(page_idx);
            stats.pages_touched += 1;
            off += chunk;
            cur = cur.add(chunk as u64);
        }
        Ok(stats)
    }

    /// Reads `len` bytes at `addr`. Unmaterialised pages read as zeros.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the range is not fully mapped.
    pub fn read(&self, addr: VirtAddr, len: u64) -> SysResult<(Vec<u8>, TouchStats)> {
        let (chunks, stats) = self.view(addr, len)?;
        Ok((chunks.concat(), stats))
    }

    /// Lends `[addr, addr + len)` as one slice per page it spans, in
    /// address order, without copying: resident pages lend their bytes
    /// and unmaterialised ones a shared zero page.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the range is not fully mapped.
    pub(crate) fn view(&self, addr: VirtAddr, len: u64) -> SysResult<(Vec<&[u8]>, TouchStats)> {
        static ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        self.check_range(addr, len, false)?;
        let mut chunks = Vec::with_capacity(pages_for(addr.page_offset() as u64 + len) as usize);
        let (mut cur, end) = (addr.0, addr.0 + len);
        while cur < end {
            let in_page = VirtAddr(cur).page_offset();
            let chunk = (PAGE_SIZE - in_page).min((end - cur) as usize);
            let page = self
                .page(VirtAddr(cur).page_index())
                .map_or(&ZERO, Page::bytes);
            chunks.push(&page[in_page..in_page + chunk]);
            cur += chunk as u64;
        }
        let stats = TouchStats {
            pages_touched: chunks.len() as u64,
            ..TouchStats::default()
        };
        Ok((chunks, stats))
    }

    /// Direct view of one resident page — private or shared — if present.
    pub(crate) fn page(&self, page_index: u64) -> Option<&Page> {
        self.pages.get(&page_index).map(Slot::page)
    }

    /// Installs a full page of bytes (restore fast path). Clears any
    /// `missing` mark on the page — this is how a demand-paging fault is
    /// resolved (`UFFDIO_COPY`).
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the page is not inside any mapping.
    pub fn install_page(&mut self, page_index: u64, page: Page) -> SysResult<()> {
        self.check_mapped(page_index)?;
        self.missing.remove(&page_index);
        self.pages.insert(page_index, Slot::Private(page));
        self.dirty.insert(page_index);
        Ok(())
    }

    /// Maps a shared frame at `page_index` copy-on-write: reads observe
    /// the frame's content, the first write breaks it into a private
    /// copy. Clears any `missing` mark — a shared mapping *is* resident.
    /// This is the restore-time `mmap(MAP_PRIVATE)`-over-memfd analogue.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the page is not inside any mapping,
    /// [`Errno::Eexist`] if a private page is already materialised there.
    pub(crate) fn map_shared(&mut self, page_index: u64, frame: Arc<Page>) -> SysResult<()> {
        self.check_mapped(page_index)?;
        if let Some(Slot::Private(_)) = self.pages.get(&page_index) {
            return Err(Errno::Eexist);
        }
        self.missing.remove(&page_index);
        self.pages.insert(page_index, Slot::Shared(frame));
        self.dirty.insert(page_index);
        Ok(())
    }

    /// Shared frames still mapped copy-on-write (not yet broken).
    pub fn cow_pages(&self) -> u64 {
        let shared = self.pages.values();
        shared
            .filter(|slot| matches!(slot, Slot::Shared(_)))
            .count() as u64
    }

    /// Marks a mapped page as `missing`: its content is held by a
    /// demand-paging backend and any touch must first resolve it via
    /// [`install_page`](AddressSpace::install_page). This is the
    /// `UFFDIO_REGISTER` analogue, applied per page.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the page is not inside any mapping,
    /// [`Errno::Eexist`] if the page is already materialised.
    pub(crate) fn mark_missing(&mut self, page_index: u64) -> SysResult<()> {
        self.check_mapped(page_index)?;
        if self.pages.contains_key(&page_index) {
            return Err(Errno::Eexist);
        }
        self.missing.insert(page_index);
        Ok(())
    }

    /// Returns `true` if the page is marked missing.
    pub(crate) fn is_missing(&self, page_index: u64) -> bool {
        self.missing.contains(&page_index)
    }

    /// Missing page indices intersecting `[addr, addr + len)`, ascending.
    pub(crate) fn missing_in_range(&self, addr: VirtAddr, len: u64) -> Vec<u64> {
        if len == 0 || self.missing.is_empty() {
            return Vec::new();
        }
        let first = addr.page_index();
        let last = VirtAddr(addr.0 + len - 1).page_index() + 1;
        self.missing.range(first..last).copied().collect()
    }

    /// Clears the soft-dirty bits (`echo 4 > /proc/<pid>/clear_refs`).
    /// Subsequent writes re-mark pages dirty.
    pub(crate) fn clear_soft_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Page indices materialised within `vma` that were written since the
    /// last [`clear_soft_dirty`](AddressSpace::clear_soft_dirty) —
    /// the pagemap soft-dirty view CRIU's incremental dump consumes.
    pub(crate) fn soft_dirty_pages(&self, vma: &Vma) -> Vec<u64> {
        let first = vma.first_page();
        let last = first + vma.page_count();
        self.dirty.range(first..last).copied().collect()
    }

    /// Page indices resident within `vma` — private or shared —
    /// ascending: the `/proc/<pid>/pagemap` "present" view.
    pub(crate) fn present_pages(&self, vma: &Vma) -> Vec<u64> {
        let first = vma.first_page();
        let last = first + vma.page_count();
        self.pages.range(first..last).map(|(k, _)| *k).collect()
    }

    /// Total resident pages across the space (shared frames included:
    /// they are mapped and readable, like RSS counts shared memory).
    pub fn resident_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Total materialised bytes (RSS analogue).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages() * PAGE_SIZE as u64
    }

    fn check_range(&self, addr: VirtAddr, len: u64, need_write: bool) -> SysResult<()> {
        if len == 0 {
            return Ok(());
        }
        // The range may span several contiguous VMAs.
        let mut cur = addr;
        let end = addr.0 + len;
        while cur.0 < end {
            let vma = self.find_vma(cur).ok_or(Errno::Efault)?;
            if need_write && !vma.prot.write {
                return Err(Errno::Eperm);
            }
            cur = vma.end();
        }
        // A touch of an unresolved missing page: the kernel resolves
        // faults before calling in here, so the caller bypassed it.
        match self.missing_in_range(addr, len).is_empty() {
            true => Ok(()),
            false => Err(Errno::Efault),
        }
    }

    /// [`Errno::Efault`] unless page `page_index` lies inside a mapping.
    fn check_mapped(&self, page_index: u64) -> SysResult<()> {
        let addr = VirtAddr(page_index * PAGE_SIZE as u64);
        self.find_vma(addr).map(|_| ()).ok_or(Errno::Efault)
    }

    /// Structural equality of *observable* memory: same mappings and same
    /// byte content (materialised zero pages compare equal to absent
    /// pages). Used by tests to prove dump→restore fidelity.
    pub fn observably_equal(&self, other: &AddressSpace) -> bool {
        let zero = Page::zeroed();
        let mut indices = self.pages.keys().chain(other.pages.keys());
        self.vmas == other.vmas
            && indices
                .all(|&idx| self.page(idx).unwrap_or(&zero) == other.page(idx).unwrap_or(&zero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_map(len: u64) -> (AddressSpace, VirtAddr) {
        let mut s = AddressSpace::new();
        let a = s.mmap(len, Prot::RW, VmaKind::Anon).unwrap();
        (s, a)
    }

    #[test]
    fn mmap_rounds_to_pages() {
        let (s, a) = space_with_map(100);
        let vma = s.find_vma(a).unwrap();
        assert_eq!(vma.len, PAGE_SIZE as u64);
    }

    #[test]
    fn mmap_zero_len_is_einval() {
        let mut s = AddressSpace::new();
        assert_eq!(s.mmap(0, Prot::RW, VmaKind::Anon), Err(Errno::Einval));
    }

    #[test]
    fn mappings_never_overlap() {
        let mut s = AddressSpace::new();
        let mut vmas = Vec::new();
        for i in 1..=16 {
            let a = s.mmap(i * 1000, Prot::RW, VmaKind::Anon).unwrap();
            vmas.push(s.find_vma(a).unwrap().clone());
        }
        for (i, a) in vmas.iter().enumerate() {
            for b in &vmas[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut s, a) = space_with_map(3 * PAGE_SIZE as u64);
        let data: Vec<u8> = (0..9000).map(|i| (i % 255) as u8).collect();
        let stats = s.write(a.add(123), &data).unwrap();
        assert_eq!(stats.pages_materialized, 3);
        let (back, _) = s.read(a.add(123), 9000).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let (s, a) = space_with_map(PAGE_SIZE as u64);
        let (data, stats) = s.read(a, 64).unwrap();
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(stats.pages_touched, 1);
        assert_eq!(s.resident_pages(), 0, "read must not materialise");
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        assert_eq!(s.read(VirtAddr(0x10), 1).unwrap_err(), Errno::Efault);
        assert_eq!(
            s.write(a, &vec![0u8; PAGE_SIZE + 1]).unwrap_err(),
            Errno::Efault,
            "write past end of mapping"
        );
    }

    #[test]
    fn write_to_readonly_is_eperm() {
        let mut s = AddressSpace::new();
        let read_only = Prot {
            read: true,
            write: false,
            exec: false,
        };
        let a = s.mmap(PAGE_SIZE as u64, read_only, VmaKind::Anon).unwrap();
        assert_eq!(s.write(a, b"x").unwrap_err(), Errno::Eperm);
    }

    #[test]
    fn write_spanning_contiguous_vmas() {
        let mut s = AddressSpace::new();
        let a = s
            .mmap_fixed(VirtAddr(0x10000), PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        s.mmap_fixed(
            VirtAddr(0x10000 + PAGE_SIZE as u64),
            PAGE_SIZE as u64,
            Prot::RW,
            VmaKind::Anon,
        )
        .unwrap();
        let data = vec![7u8; PAGE_SIZE + 100];
        s.write(a, &data).unwrap();
        let (back, _) = s.read(a, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn munmap_drops_pages() {
        let (mut s, a) = space_with_map(2 * PAGE_SIZE as u64);
        s.write(a, &[1u8; 100]).unwrap();
        assert_eq!(s.resident_pages(), 1);
        s.munmap(a).unwrap();
        assert_eq!(s.resident_pages(), 0);
        assert!(s.find_vma(a).is_none());
        assert_eq!(s.munmap(a).unwrap_err(), Errno::Einval);
    }

    #[test]
    fn mmap_fixed_rejects_overlap() {
        let mut s = AddressSpace::new();
        s.mmap_fixed(VirtAddr(0x20000), 0x2000, Prot::RW, VmaKind::Anon)
            .unwrap();
        assert_eq!(
            s.mmap_fixed(VirtAddr(0x21000), 0x1000, Prot::RW, VmaKind::Anon)
                .unwrap_err(),
            Errno::Eexist
        );
        assert_eq!(
            s.mmap_fixed(VirtAddr(0x21001), 0x1000, Prot::RW, VmaKind::Anon)
                .unwrap_err(),
            Errno::Einval,
            "unaligned fixed mapping"
        );
    }

    #[test]
    fn allocator_avoids_fixed_mappings() {
        let mut s = AddressSpace::new();
        s.mmap_fixed(
            VirtAddr(MMAP_BASE + 0x100000),
            0x1000,
            Prot::RW,
            VmaKind::Anon,
        )
        .unwrap();
        // Subsequent dynamic mappings must not collide.
        for _ in 0..64 {
            s.mmap(0x10000, Prot::RW, VmaKind::Anon).unwrap();
        }
        let vmas: Vec<Vma> = s.vmas().cloned().collect();
        for (i, a) in vmas.iter().enumerate() {
            for b in &vmas[i + 1..] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn present_pages_reports_only_materialised() {
        let (mut s, a) = space_with_map(4 * PAGE_SIZE as u64);
        s.write(a.add(PAGE_SIZE as u64), &[9u8; 10]).unwrap();
        s.write(a.add(3 * PAGE_SIZE as u64), &[9u8; 10]).unwrap();
        let vma = s.find_vma(a).unwrap().clone();
        let present = s.present_pages(&vma);
        assert_eq!(present.len(), 2);
        assert_eq!(present[0], a.page_index() + 1);
        assert_eq!(present[1], a.page_index() + 3);
    }

    #[test]
    fn observably_equal_ignores_zero_materialisation() {
        let (mut s1, a1) = space_with_map(PAGE_SIZE as u64);
        let (mut s2, _a2) = space_with_map(PAGE_SIZE as u64);
        // s1 materialises a page with zeros; s2 leaves it demand-zero.
        s1.write(a1, &[0u8; 8]).unwrap();
        assert!(s1.observably_equal(&s2));
        s2.write(a1, &[1u8; 8]).unwrap();
        assert!(!s1.observably_equal(&s2));
    }

    #[test]
    fn resident_and_mapped_bytes() {
        let (mut s, a) = space_with_map(8 * PAGE_SIZE as u64);
        assert_eq!(s.resident_bytes(), 0);
        s.write(a, &vec![1u8; 2 * PAGE_SIZE]).unwrap();
        assert_eq!(s.resident_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn soft_dirty_tracks_writes_since_clear() {
        let (mut s, a) = space_with_map(4 * PAGE_SIZE as u64);
        s.write(a, &[1u8; 10]).unwrap();
        s.write(a.add(2 * PAGE_SIZE as u64), &[2u8; 10]).unwrap();
        let vma = s.find_vma(a).unwrap().clone();
        assert_eq!(
            s.soft_dirty_pages(&vma),
            vec![a.page_index(), a.page_index() + 2]
        );

        s.clear_soft_dirty();
        assert!(s.soft_dirty_pages(&vma).is_empty());

        // Re-writing one page re-marks only that page.
        s.write(a.add(2 * PAGE_SIZE as u64), &[3u8; 10]).unwrap();
        assert_eq!(s.soft_dirty_pages(&vma), vec![a.page_index() + 2]);
        // present set is unchanged
        assert_eq!(s.present_pages(&vma).len(), 2);
    }

    #[test]
    fn munmap_clears_dirty_bits() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        s.write(a, &[1u8]).unwrap();
        s.munmap(a).unwrap();
        let b = s.mmap(PAGE_SIZE as u64, Prot::RW, VmaKind::Anon).unwrap();
        let vma = s.find_vma(b).unwrap().clone();
        assert!(s.soft_dirty_pages(&vma).is_empty());
    }

    #[test]
    fn install_page_marks_dirty() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        s.install_page(a.page_index(), Page::zeroed()).unwrap();
        let vma = s.find_vma(a).unwrap().clone();
        assert_eq!(s.soft_dirty_pages(&vma), vec![a.page_index()]);
    }

    #[test]
    fn missing_pages_fault_until_installed() {
        let (mut s, a) = space_with_map(4 * PAGE_SIZE as u64);
        let idx = a.page_index() + 1;
        s.mark_missing(idx).unwrap();
        assert!(s.is_missing(idx));
        assert_eq!(s.missing.len() as u64, 1);

        // Touching the missing page faults; untouched pages still work.
        assert_eq!(
            s.read(a.add(PAGE_SIZE as u64), 8).unwrap_err(),
            Errno::Efault
        );
        assert_eq!(
            s.write(a.add(PAGE_SIZE as u64), &[1]).unwrap_err(),
            Errno::Efault
        );
        s.read(a, 8).unwrap();

        // A spanning access reports the missing page.
        assert_eq!(
            s.missing_in_range(a, 2 * PAGE_SIZE as u64),
            vec![idx],
            "range walk finds the hole"
        );
        assert!(s.missing_in_range(a, PAGE_SIZE as u64).is_empty());

        // Resolving via install_page clears the mark.
        s.install_page(idx, Page::from_bytes(&[3u8; PAGE_SIZE]))
            .unwrap();
        assert!(!s.is_missing(idx));
        let (back, _) = s.read(a.add(PAGE_SIZE as u64), 4).unwrap();
        assert_eq!(back, vec![3u8; 4]);
    }

    #[test]
    fn mark_missing_rejects_unmapped_and_materialised() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        assert_eq!(s.mark_missing(9999999).unwrap_err(), Errno::Efault);
        s.write(a, &[1]).unwrap();
        assert_eq!(s.mark_missing(a.page_index()).unwrap_err(), Errno::Eexist);
    }

    #[test]
    fn munmap_clears_missing_marks() {
        let (mut s, a) = space_with_map(2 * PAGE_SIZE as u64);
        s.mark_missing(a.page_index()).unwrap();
        s.munmap(a).unwrap();
        assert_eq!(s.missing.len() as u64, 0);
    }

    #[test]
    fn install_page_requires_mapping() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        assert!(s.install_page(a.page_index(), Page::zeroed()).is_ok());
        assert_eq!(
            s.install_page(9999999, Page::zeroed()).unwrap_err(),
            Errno::Efault
        );
    }

    #[test]
    fn installed_view_is_shared_until_the_guest_writes() {
        let raw: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 241 + 1) as u8).collect();
        let buf = bytes::Bytes::from(raw.clone());
        let (mut s, a) = space_with_map(2 * PAGE_SIZE as u64);
        s.install_page(a.page_index(), Page::view(&buf, 0)).unwrap();
        s.install_page(a.page_index() + 1, Page::view(&buf, PAGE_SIZE))
            .unwrap();
        let page = s.page(a.page_index()).unwrap();
        assert!(page.shares_buffer(&buf), "install copies nothing");
        let (chunks, stats) = s.view(a.add(10), PAGE_SIZE as u64).unwrap();
        assert_eq!(stats.pages_touched, 2);
        assert!(std::ptr::eq(chunks[0].as_ptr(), buf[10..].as_ptr()));
        assert_eq!(chunks.concat(), raw[10..PAGE_SIZE + 10]);

        let stats = s.write(a.add(5), &[0u8; 3]).unwrap();
        assert_eq!(
            (stats.pages_materialized, stats.cow_broken),
            (0, 0),
            "unsharing a view is host bookkeeping, not a modelled event"
        );
        assert!(!s.page(a.page_index()).unwrap().shares_buffer(&buf));
        let second = s.page(a.page_index() + 1).unwrap();
        assert!(second.shares_buffer(&buf[PAGE_SIZE..]));
        assert_eq!(&buf[..], &raw[..], "the source buffer is untouched");
        let (back, _) = s.read(a, 8).unwrap();
        assert_eq!(back, [&raw[..5], &[0u8; 3][..]].concat());
    }

    #[test]
    fn view_lends_zeros_for_unmaterialised_pages() {
        let (mut s, a) = space_with_map(3 * PAGE_SIZE as u64);
        s.write(a.add(PAGE_SIZE as u64), &[7u8; 4]).unwrap();
        let (chunks, stats) = s.view(a.add(1), 2 * PAGE_SIZE as u64).unwrap();
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![PAGE_SIZE - 1, PAGE_SIZE, 1]);
        assert_eq!(stats.pages_touched, 3);
        assert!(chunks[0].iter().all(|&b| b == 0));
        assert_eq!(&chunks[1][..5], &[7, 7, 7, 7, 0]);
        assert!(s.view(a, 0).unwrap().0.is_empty());
        assert_eq!(s.resident_pages(), 1, "a view materialises nothing");
    }

    fn is_shared(s: &AddressSpace, page_index: u64) -> bool {
        matches!(s.pages.get(&page_index), Some(Slot::Shared(_)))
    }

    fn frame(fill: u8) -> Arc<Page> {
        Arc::new(Page::from_bytes(&[fill; PAGE_SIZE]))
    }

    #[test]
    fn shared_frame_reads_through_until_broken() {
        let (mut s, a) = space_with_map(2 * PAGE_SIZE as u64);
        let f = frame(7);
        s.map_shared(a.page_index(), Arc::clone(&f)).unwrap();
        assert!(is_shared(&s, a.page_index()));
        assert_eq!(s.cow_pages(), 1);
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(Arc::strong_count(&f), 2, "space holds one reference");

        // Reads observe the shared content without breaking it.
        let (back, stats) = s.read(a, 8).unwrap();
        assert_eq!(back, vec![7u8; 8]);
        assert_eq!(stats.cow_broken, 0);
        assert!(is_shared(&s, a.page_index()));

        // The first write breaks into a private copy preserving the
        // untouched bytes; the frame itself stays pristine.
        let stats = s.write(a.add(4), &[9u8; 4]).unwrap();
        assert_eq!(stats.cow_broken, 1);
        assert_eq!(stats.pages_materialized, 0);
        assert!(!is_shared(&s, a.page_index()));
        assert_eq!(Arc::strong_count(&f), 1, "reference released on break");
        let (back, _) = s.read(a, 12).unwrap();
        assert_eq!(back, [vec![7u8; 4], vec![9u8; 4], vec![7u8; 4]].concat());
        assert!(f.bytes().iter().all(|&b| b == 7), "frame unmodified");

        // A second write to the now-private page breaks nothing.
        let stats = s.write(a, &[1u8]).unwrap();
        assert_eq!(stats.cow_broken, 0);
    }

    #[test]
    fn map_shared_rejects_unmapped_and_materialised() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        assert_eq!(s.map_shared(9999999, frame(1)).unwrap_err(), Errno::Efault);
        s.write(a, &[1]).unwrap();
        assert_eq!(
            s.map_shared(a.page_index(), frame(1)).unwrap_err(),
            Errno::Eexist
        );
    }

    #[test]
    fn map_shared_resolves_missing_and_blocks_remarking() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        s.mark_missing(a.page_index()).unwrap();
        s.map_shared(a.page_index(), frame(5)).unwrap();
        assert!(!s.is_missing(a.page_index()));
        assert_eq!(s.mark_missing(a.page_index()).unwrap_err(), Errno::Eexist);
    }

    #[test]
    fn munmap_releases_shared_frames() {
        let (mut s, a) = space_with_map(2 * PAGE_SIZE as u64);
        let f = frame(3);
        s.map_shared(a.page_index(), Arc::clone(&f)).unwrap();
        s.map_shared(a.page_index() + 1, Arc::clone(&f)).unwrap();
        assert_eq!(Arc::strong_count(&f), 3);
        s.munmap(a).unwrap();
        assert_eq!(Arc::strong_count(&f), 1, "munmap drops both references");
        assert_eq!(s.cow_pages(), 0);
    }

    #[test]
    fn present_and_observable_views_cover_shared_frames() {
        let (mut s1, a) = space_with_map(3 * PAGE_SIZE as u64);
        let (mut s2, _) = space_with_map(3 * PAGE_SIZE as u64);
        s1.map_shared(a.page_index() + 1, frame(4)).unwrap();
        s2.write(a.add(PAGE_SIZE as u64), &[4u8; PAGE_SIZE])
            .unwrap();

        let vma = s1.find_vma(a).unwrap().clone();
        assert_eq!(s1.present_pages(&vma), vec![a.page_index() + 1]);
        assert_eq!(s1.page(a.page_index() + 1).unwrap().bytes()[0], 4);
        assert!(
            s1.observably_equal(&s2),
            "shared frame equals the same bytes held privately"
        );
        s2.write(a.add(PAGE_SIZE as u64), &[9u8]).unwrap();
        assert!(!s1.observably_equal(&s2));
    }

    #[test]
    fn clone_shares_frames_not_copies() {
        let (mut s, a) = space_with_map(PAGE_SIZE as u64);
        let f = frame(8);
        s.map_shared(a.page_index(), Arc::clone(&f)).unwrap();
        let mut child = s.clone();
        assert_eq!(Arc::strong_count(&f), 3, "fork shares the frame");
        // The child's break leaves the parent's mapping shared.
        child.write(a, &[1u8]).unwrap();
        assert_eq!(Arc::strong_count(&f), 2);
        assert!(is_shared(&s, a.page_index()));
        let (parent_view, _) = s.read(a, 1).unwrap();
        assert_eq!(parent_view, vec![8u8]);
    }
}
