//! The checkpoint image format.
//!
//! A checkpoint is a directory of image files mirroring real CRIU's
//! layout: `core.img` (task identity, threads, registers, capabilities),
//! `mm.img` (the VMA list), `pagemap.img` (which pages travel and which
//! are zero), `pages.img` (raw page payload) and `files.img` (the
//! descriptor table). Each file is a checksummed TLV blob.

use std::fmt;

use prebake_sim::mem::{Page, Prot, VirtAddr, Vma, VmaKind, PAGE_SIZE};
use prebake_sim::proc::{FdEntry, Pid, Regs, Tid};

/// Magic prefix of every image file: `"CRIM"`.
pub(crate) const IMAGE_MAGIC: u32 = 0x4352_494D;
/// Image format version written by this build. Version 2 added the
/// fault-order `repack` layout and the compaction fallback layer
/// (`fallback-pagemap.img`/`fallback-pages.img`); the encoding of every
/// individual image is unchanged, so readers accept version 1 files —
/// legacy images restore exactly as before.
pub(crate) const IMAGE_VERSION: u16 = 2;
/// Oldest image format version readers still accept.
pub(crate) const IMAGE_VERSION_MIN: u16 = 1;

/// Errors produced while encoding/decoding images.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// Input ended before a declared structure.
    Truncated,
    /// Magic mismatch.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
    /// Wrong image kind tag for the file being parsed.
    WrongKind {
        /// Expected kind tag.
        expected: u8,
        /// Found kind tag.
        found: u8,
    },
    /// Checksum mismatch.
    BadChecksum,
    /// A string field was not UTF-8.
    BadString,
    /// An enum discriminant was out of range.
    BadTag(u8),
    /// Pages payload length is not a multiple of the page size, or does
    /// not match the pagemap.
    BadPages,
    /// Page-store image is internally inconsistent: payload size
    /// disagrees with the frame table, a frame's content hash does not
    /// match its declared hash, or a reference points past the frame
    /// table.
    BadPageStore,
    /// Extent table is internally inconsistent: a zero-length run, or
    /// runs that do not match the coalescing of the pagemap they claim
    /// to cover.
    BadExtents,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "image truncated"),
            ImageError::BadMagic(m) => write!(f, "bad image magic {m:#010x}"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::WrongKind { expected, found } => {
                write!(f, "wrong image kind: expected {expected}, found {found}")
            }
            ImageError::BadChecksum => write!(f, "image checksum mismatch"),
            ImageError::BadString => write!(f, "image string is not utf-8"),
            ImageError::BadTag(t) => write!(f, "bad discriminant {t}"),
            ImageError::BadPages => write!(f, "pages payload inconsistent with pagemap"),
            ImageError::BadPageStore => {
                write!(f, "page-store image inconsistent with its frame table")
            }
            ImageError::BadExtents => {
                write!(f, "extent table inconsistent with its pagemap")
            }
        }
    }
}

impl std::error::Error for ImageError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Content hash of a page frame, as used by the dedup page store.
///
/// This is the key under which identical pages collapse to one frame —
/// both inside `pagestore.img` and in the machine-wide shared pool at
/// restore time. FNV-1a over the raw page bytes: cheap, deterministic,
/// and good enough for a simulator where collisions would require
/// adversarial inputs (real systems use memfd offsets or KSM's full
/// memcmp instead of trusting the hash).
pub fn page_content_hash(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

// ----------------------------------------------------------------- writer

#[derive(Debug, Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: u8) -> Writer {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&IMAGE_MAGIC.to_be_bytes());
        w.buf.extend_from_slice(&IMAGE_VERSION.to_be_bytes());
        w.buf.push(kind);
        w
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn string(&mut self, s: &str) {
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_be_bytes());
        self.buf
    }
}

// ----------------------------------------------------------------- reader

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn open(bytes: &'a [u8], kind: u8) -> Result<Reader<'a>, ImageError> {
        if bytes.len() < 7 + 8 {
            return Err(ImageError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_be_bytes(tail.try_into().unwrap());
        if fnv1a(payload) != declared {
            return Err(ImageError::BadChecksum);
        }
        let magic = u32::from_be_bytes(payload[0..4].try_into().unwrap());
        if magic != IMAGE_MAGIC {
            return Err(ImageError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(payload[4..6].try_into().unwrap());
        if !(IMAGE_VERSION_MIN..=IMAGE_VERSION).contains(&version) {
            return Err(ImageError::BadVersion(version));
        }
        let found = payload[6];
        if found != kind {
            return Err(ImageError::WrongKind {
                expected: kind,
                found,
            });
        }
        Ok(Reader {
            buf: payload,
            pos: 7,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        if self.pos + n > self.buf.len() {
            return Err(ImageError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, ImageError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ImageError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| ImageError::BadString)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ImageError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn done(&self) -> Result<(), ImageError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ImageError::Truncated)
        }
    }
}

// ------------------------------------------------------------------ core

/// One thread's captured execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadImage {
    /// Thread id.
    pub tid: Tid,
    /// Captured registers.
    pub regs: Regs,
}

/// `core.img`: task identity and per-thread state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreImage {
    /// Pid at dump time (restore recreates it in the new namespace).
    pub pid: Pid,
    /// Command name.
    pub comm: String,
    /// Command line.
    pub cmdline: Vec<String>,
    /// Raw capability bits.
    pub cap_bits: u8,
    /// Threads.
    pub threads: Vec<ThreadImage>,
}

const KIND_CORE: u8 = 1;
const KIND_MM: u8 = 2;
const KIND_PAGEMAP: u8 = 3;
const KIND_PAGES: u8 = 4;
const KIND_FILES: u8 = 5;
const KIND_WS: u8 = 6;
const KIND_PAGESTORE: u8 = 7;
const KIND_EXTENTS: u8 = 8;

impl CoreImage {
    /// Serialises the core image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_CORE);
        w.u32(self.pid.0);
        w.string(&self.comm);
        w.u16(self.cmdline.len() as u16);
        for arg in &self.cmdline {
            w.string(arg);
        }
        w.u8(self.cap_bits);
        w.u16(self.threads.len() as u16);
        for t in &self.threads {
            w.u32(t.tid.0);
            w.u64(t.regs.ip);
            w.u64(t.regs.sp);
        }
        w.finish()
    }

    /// Parses a core image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<CoreImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_CORE)?;
        let pid = Pid(r.u32()?);
        let comm = r.string()?;
        let argc = r.u16()?;
        let mut cmdline = Vec::with_capacity(argc as usize);
        for _ in 0..argc {
            cmdline.push(r.string()?);
        }
        let cap_bits = r.u8()?;
        let tcount = r.u16()?;
        let mut threads = Vec::with_capacity(tcount as usize);
        for _ in 0..tcount {
            threads.push(ThreadImage {
                tid: Tid(r.u32()?),
                regs: Regs {
                    ip: r.u64()?,
                    sp: r.u64()?,
                },
            });
        }
        r.done()?;
        Ok(CoreImage {
            pid,
            comm,
            cmdline,
            cap_bits,
            threads,
        })
    }
}

// -------------------------------------------------------------------- mm

fn encode_prot(p: Prot) -> u8 {
    (p.read as u8) | ((p.write as u8) << 1) | ((p.exec as u8) << 2)
}

fn decode_prot(b: u8) -> Prot {
    Prot {
        read: b & 1 != 0,
        write: b & 2 != 0,
        exec: b & 4 != 0,
    }
}

fn encode_kind(w: &mut Writer, k: &VmaKind) {
    match k {
        VmaKind::Anon => w.u8(0),
        VmaKind::Stack => w.u8(1),
        VmaKind::Binary { path } => {
            w.u8(2);
            w.string(path);
        }
        VmaKind::File { path, offset } => {
            w.u8(3);
            w.string(path);
            w.u64(*offset);
        }
        VmaKind::RuntimeHeap => w.u8(4),
        VmaKind::Metaspace => w.u8(5),
        VmaKind::CodeCache => w.u8(6),
        VmaKind::Parasite => w.u8(7),
    }
}

fn decode_kind(r: &mut Reader<'_>) -> Result<VmaKind, ImageError> {
    Ok(match r.u8()? {
        0 => VmaKind::Anon,
        1 => VmaKind::Stack,
        2 => VmaKind::Binary { path: r.string()? },
        3 => VmaKind::File {
            path: r.string()?,
            offset: r.u64()?,
        },
        4 => VmaKind::RuntimeHeap,
        5 => VmaKind::Metaspace,
        6 => VmaKind::CodeCache,
        7 => VmaKind::Parasite,
        t => return Err(ImageError::BadTag(t)),
    })
}

/// `mm.img`: the dumped VMA list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MmImage {
    /// Mappings in address order.
    pub vmas: Vec<Vma>,
}

impl MmImage {
    /// Serialises the mm image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_MM);
        w.u32(self.vmas.len() as u32);
        for v in &self.vmas {
            w.u64(v.start.0);
            w.u64(v.len);
            w.u8(encode_prot(v.prot));
            encode_kind(&mut w, &v.kind);
        }
        w.finish()
    }

    /// Parses an mm image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<MmImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_MM)?;
        let count = r.u32()?;
        let mut vmas = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let start = VirtAddr(r.u64()?);
            let len = r.u64()?;
            let prot = decode_prot(r.u8()?);
            let kind = decode_kind(&mut r)?;
            vmas.push(Vma {
                start,
                len,
                prot,
                kind,
            });
        }
        r.done()?;
        Ok(MmImage { vmas })
    }
}

// ---------------------------------------------------------------- pagemap

/// One pagemap record: a present page, either zero (not stored), held by
/// the parent snapshot (incremental dump), or backed by payload in
/// `pages.img`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagemapEntry {
    /// Guest page index.
    pub page_index: u64,
    /// `true` if the page was all-zero at dump time (CRIU's zero-page
    /// deduplication: no payload stored).
    pub zero: bool,
    /// `true` if the page is unchanged since the pre-dump and its payload
    /// lives in the parent snapshot (CRIU's `--track-mem` incremental
    /// dump). Mutually exclusive with `zero`.
    pub in_parent: bool,
}

/// Where one page's contents come from at restore time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageSource<'a> {
    /// Demand-zero page: nothing stored.
    Zero,
    /// Payload stored in this image.
    Bytes(&'a [u8; PAGE_SIZE]),
    /// Payload lives in the parent snapshot.
    Parent,
}

/// `pagemap.img` + `pages.img` as one logical unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PagesImage {
    /// Pagemap records in page-index order.
    pub entries: Vec<PagemapEntry>,
    /// Concatenated payload of non-zero pages, in entry order.
    pub payload: Vec<u8>,
}

impl PagesImage {
    /// Appends a page, storing payload only when it is non-zero.
    pub fn push(&mut self, page_index: u64, page: &Page) {
        if page.is_zero() {
            self.entries.push(PagemapEntry {
                page_index,
                zero: true,
                in_parent: false,
            });
        } else {
            self.entries.push(PagemapEntry {
                page_index,
                zero: false,
                in_parent: false,
            });
            self.payload.extend_from_slice(page.bytes());
        }
    }

    /// Appends a reference to a page whose payload lives in the parent
    /// snapshot (incremental dump).
    pub fn push_parent_ref(&mut self, page_index: u64) {
        self.entries.push(PagemapEntry {
            page_index,
            zero: false,
            in_parent: true,
        });
    }

    /// Number of pages whose payload is stored in *this* image.
    pub fn stored_pages(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.zero && !e.in_parent)
            .count()
    }

    /// Number of zero-deduplicated pages.
    pub fn zero_pages(&self) -> usize {
        self.entries.iter().filter(|e| e.zero).count()
    }

    /// Number of pages deferred to the parent snapshot.
    pub(crate) fn parent_pages(&self) -> usize {
        self.entries.iter().filter(|e| e.in_parent).count()
    }

    /// Iterates `(page_index, PageSource)` in entry order.
    pub(crate) fn iter_pages(&self) -> impl Iterator<Item = (u64, PageSource<'_>)> {
        let mut offset = 0usize;
        self.entries.iter().map(move |e| {
            if e.zero {
                (e.page_index, PageSource::Zero)
            } else if e.in_parent {
                (e.page_index, PageSource::Parent)
            } else {
                let slice = &self.payload[offset..offset + PAGE_SIZE];
                offset += PAGE_SIZE;
                let page = slice.try_into().expect("a PAGE_SIZE slice");
                (e.page_index, PageSource::Bytes(page))
            }
        })
    }

    /// Serialises `pagemap.img`.
    pub fn encode_pagemap(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_PAGEMAP);
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.u64(e.page_index);
            w.u8((e.zero as u8) | ((e.in_parent as u8) << 1));
        }
        w.finish()
    }

    /// Serialises `pages.img`.
    pub fn encode_pages(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_PAGES);
        w.bytes(&self.payload);
        w.finish()
    }

    /// Parses the pagemap/pages pair back into one unit.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPages`] if the payload size disagrees with the
    /// pagemap (or an entry claims both zero and in-parent), or any codec
    /// error.
    pub fn parse(pagemap: &[u8], pages: &[u8]) -> Result<PagesImage, ImageError> {
        let mut r = Reader::open(pagemap, KIND_PAGEMAP)?;
        let count = r.u32()?;
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let page_index = r.u64()?;
            let flags = r.u8()?;
            let zero = flags & 1 != 0;
            let in_parent = flags & 2 != 0;
            if zero && in_parent {
                return Err(ImageError::BadPages);
            }
            entries.push(PagemapEntry {
                page_index,
                zero,
                in_parent,
            });
        }
        r.done()?;

        let mut r = Reader::open(pages, KIND_PAGES)?;
        let payload = r.bytes()?;
        r.done()?;

        let stored = entries.iter().filter(|e| !e.zero && !e.in_parent).count();
        if payload.len() != stored * PAGE_SIZE {
            return Err(ImageError::BadPages);
        }
        Ok(PagesImage { entries, payload })
    }

    /// Replaces every parent reference with the payload found in
    /// `parent`, producing a self-contained image.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPages`] if the parent lacks a referenced page or
    /// itself defers to a grandparent (only one level is supported, as in
    /// a single pre-dump round).
    pub(crate) fn resolve_parent(&self, parent: &PagesImage) -> Result<PagesImage, ImageError> {
        use std::collections::BTreeMap;
        let mut parent_pages: BTreeMap<u64, PageSource<'_>> = BTreeMap::new();
        for (idx, src) in parent.iter_pages() {
            parent_pages.insert(idx, src);
        }
        let mut resolved = PagesImage::default();
        for (idx, src) in self.iter_pages() {
            match src {
                PageSource::Zero => resolved.entries.push(PagemapEntry {
                    page_index: idx,
                    zero: true,
                    in_parent: false,
                }),
                PageSource::Bytes(bytes) => {
                    resolved.entries.push(PagemapEntry {
                        page_index: idx,
                        zero: false,
                        in_parent: false,
                    });
                    resolved.payload.extend_from_slice(bytes);
                }
                PageSource::Parent => match parent_pages.get(&idx) {
                    Some(PageSource::Bytes(bytes)) => {
                        resolved.entries.push(PagemapEntry {
                            page_index: idx,
                            zero: false,
                            in_parent: false,
                        });
                        resolved.payload.extend_from_slice(*bytes);
                    }
                    Some(PageSource::Zero) => resolved.entries.push(PagemapEntry {
                        page_index: idx,
                        zero: true,
                        in_parent: false,
                    }),
                    _ => return Err(ImageError::BadPages),
                },
            }
        }
        Ok(resolved)
    }

    /// Rewrites the image so pages listed in `order` come first, in that
    /// order, followed by the remaining entries in their original order —
    /// the fault-order *repack* layout. Payload moves with its entry, so
    /// a restore that walks the entries front-to-back (lazy/prefetch
    /// loading the working set) now reads the payload file sequentially
    /// instead of seeking. Indices in `order` that the image does not
    /// hold (or that repeat) are ignored. Guest contents are unchanged:
    /// the same `(page_index, bytes)` pairs come back, permuted.
    pub(crate) fn reordered(&self, order: &[u64]) -> PagesImage {
        use std::collections::BTreeMap;
        let mut by_index: BTreeMap<u64, usize> = BTreeMap::new();
        for (slot, e) in self.entries.iter().enumerate() {
            by_index.insert(e.page_index, slot);
        }
        let mut picked = vec![false; self.entries.len()];
        let mut slots: Vec<usize> = Vec::with_capacity(self.entries.len());
        for idx in order {
            if let Some(&slot) = by_index.get(idx) {
                if !picked[slot] {
                    picked[slot] = true;
                    slots.push(slot);
                }
            }
        }
        slots.extend((0..self.entries.len()).filter(|&s| !picked[s]));

        // Payload offset of each entry slot, for slicing out of order.
        let mut offsets = Vec::with_capacity(self.entries.len());
        let mut offset = 0usize;
        for e in &self.entries {
            offsets.push(offset);
            if !e.zero && !e.in_parent {
                offset += PAGE_SIZE;
            }
        }
        let mut out = PagesImage::default();
        for slot in slots {
            let e = self.entries[slot];
            out.entries.push(e);
            if !e.zero && !e.in_parent {
                let at = offsets[slot];
                out.payload
                    .extend_from_slice(&self.payload[at..at + PAGE_SIZE]);
            }
        }
        out
    }

    /// Splits the image into a *hot* layer and a *fallback* layer for
    /// compaction: stored pages whose index is in `hot_set` — plus every
    /// zero entry, which costs no payload — stay in the hot image;
    /// stored pages outside the set move to the fallback image. Both
    /// halves preserve this image's entry order, so composing a split
    /// with [`PagesImage::reordered`] keeps the fault-order layout of
    /// the hot half. Returns `None` when the image defers payload to a
    /// parent snapshot (compaction needs a self-contained image).
    pub(crate) fn split_hot(
        &self,
        hot_set: &std::collections::BTreeSet<u64>,
    ) -> Option<(PagesImage, PagesImage)> {
        if self.parent_pages() > 0 {
            return None;
        }
        let mut hot = PagesImage::default();
        let mut fallback = PagesImage::default();
        let mut offset = 0usize;
        for e in &self.entries {
            if e.zero {
                hot.entries.push(*e);
                continue;
            }
            let bytes = &self.payload[offset..offset + PAGE_SIZE];
            offset += PAGE_SIZE;
            let target = if hot_set.contains(&e.page_index) {
                &mut hot
            } else {
                &mut fallback
            };
            target.entries.push(*e);
            target.payload.extend_from_slice(bytes);
        }
        Some((hot, fallback))
    }
}

// --------------------------------------------------------------------- ws

/// `ws.img`: the working set recorded during the first post-restore
/// invocation — page indices in the *order* they were demand-faulted.
///
/// A prefetch-mode restore bulk-loads exactly these pages before
/// resuming the task (REAP's "record-and-prefetch"); everything else
/// stays missing and is served on demand. Order is preserved so a
/// streaming loader could begin with the pages needed soonest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WsImage {
    /// Faulted page indices, first fault first. Entries are unique: a
    /// resolved page can never refault.
    pub pages: Vec<u64>,
}

impl WsImage {
    /// Builds a working-set image from an ordered fault log (as returned
    /// by the kernel's `uffd_take_log`).
    pub fn from_fault_log(log: Vec<u64>) -> WsImage {
        WsImage { pages: log }
    }

    /// Number of recorded pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no faults were recorded.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Serialises the working-set image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_WS);
        w.u32(self.pages.len() as u32);
        for &p in &self.pages {
            w.u64(p);
        }
        w.finish()
    }

    /// Parses a working-set image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<WsImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_WS)?;
        let count = r.u32()?;
        let mut pages = Vec::with_capacity(count as usize);
        for _ in 0..count {
            pages.push(r.u64()?);
        }
        r.done()?;
        Ok(WsImage { pages })
    }
}

// -------------------------------------------------------------- pagestore

/// `pagestore.img`: the content-addressed dedup view of a snapshot's
/// stored pages.
///
/// Where `pages.img` stores one payload slot per stored page,
/// this image stores each *distinct* page content exactly once (a frame)
/// and a reference list mapping every stored guest page to its frame.
/// Two consequences:
///
/// - the image cache can charge a snapshot for its unique bytes only,
///   and share frames *across* snapshots of the same function;
/// - a copy-on-write restore can map frames into the replica instead of
///   byte-copying them, deferring the copy to first write.
///
/// On disk the store is *metadata only* — frame hashes plus the
/// reference table. The frame payload already lives in `pages.img`, so
/// serialising it again would double the snapshot's footprint;
/// [`PageStoreImage::parse`] rebuilds the in-memory payload from the
/// pages image instead, verifying every page against its frame's
/// declared content hash along the way.
///
/// Incremental dumps (entries deferring to a parent snapshot) have no
/// page-store view: their payload is split across files, so
/// [`PageStoreImage::from_pages`] returns `None` for them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageStoreImage {
    /// Content hash of each unique frame, in payload order.
    pub hashes: Vec<u64>,
    /// Concatenated unique page payload, one [`PAGE_SIZE`] slot per
    /// hash. In-memory only: [`PageStoreImage::encode`] does not write
    /// it, [`PageStoreImage::parse`] reconstructs it from `pages.img`.
    pub payload: Vec<u8>,
    /// `(page_index, frame_index)` for every non-zero stored page, in
    /// pagemap order. `frame_index` indexes [`PageStoreImage::hashes`].
    pub refs: Vec<(u64, u32)>,
}

impl PageStoreImage {
    /// Builds the dedup view of a self-contained pages image. Returns
    /// `None` when `pages` defers any payload to a parent snapshot
    /// (incremental dumps carry no page store).
    pub fn from_pages(pages: &PagesImage) -> Option<PageStoreImage> {
        use std::collections::HashMap;
        if pages.parent_pages() > 0 {
            return None;
        }
        let mut store = PageStoreImage::default();
        let mut frame_of: HashMap<u64, u32> = HashMap::new();
        for (page_index, src) in pages.iter_pages() {
            let bytes = match src {
                PageSource::Bytes(b) => b,
                PageSource::Zero => continue,
                PageSource::Parent => unreachable!("parent pages ruled out above"),
            };
            let hash = page_content_hash(bytes);
            let frame_idx = *frame_of.entry(hash).or_insert_with(|| {
                store.hashes.push(hash);
                store.payload.extend_from_slice(bytes);
                (store.hashes.len() - 1) as u32
            });
            store.refs.push((page_index, frame_idx));
        }
        Some(store)
    }

    /// Number of unique frames.
    pub fn unique_pages(&self) -> usize {
        self.hashes.len()
    }

    /// Number of referencing guest pages (equals the pages image's
    /// stored-page count).
    pub fn total_refs(&self) -> usize {
        self.refs.len()
    }

    /// Bytes of unique page payload.
    pub fn unique_bytes(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Payload slice of frame `frame_index`.
    pub(crate) fn frame_bytes(&self, frame_index: u32) -> &[u8; PAGE_SIZE] {
        let at = frame_index as usize * PAGE_SIZE;
        self.payload[at..at + PAGE_SIZE]
            .try_into()
            .expect("a PAGE_SIZE slice")
    }

    /// Iterates `(page_index, frame_hash, frame_bytes)` over every
    /// reference, in pagemap order.
    pub(crate) fn iter_refs(&self) -> impl Iterator<Item = (u64, u64, &[u8; PAGE_SIZE])> {
        self.refs.iter().map(|&(page_index, frame_idx)| {
            (
                page_index,
                self.hashes[frame_idx as usize],
                self.frame_bytes(frame_idx),
            )
        })
    }

    /// Serialises the page-store image: frame hashes and the reference
    /// table, *not* the payload — that ships once, in `pages.img`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_PAGESTORE);
        w.u32(self.hashes.len() as u32);
        for &h in &self.hashes {
            w.u64(h);
        }
        w.u32(self.refs.len() as u32);
        for &(page_index, frame_idx) in &self.refs {
            w.u64(page_index);
            w.u32(frame_idx);
        }
        w.finish()
    }

    /// Parses a page-store image against the pages image it mirrors,
    /// rebuilding the in-memory frame payload from the stored pages and
    /// verifying every page's content against its frame's declared hash.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPageStore`] when the reference table does not
    /// line up with `pages` (count, page order, or frame range), when a
    /// page's content does not hash to its frame's declared value, or
    /// when a frame is never referenced; or any codec error.
    pub fn parse(bytes: &[u8], pages: &PagesImage) -> Result<PageStoreImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_PAGESTORE)?;
        let frame_count = r.u32()? as usize;
        let mut hashes = Vec::with_capacity(frame_count);
        for _ in 0..frame_count {
            hashes.push(r.u64()?);
        }
        let ref_count = r.u32()? as usize;
        let mut refs = Vec::with_capacity(ref_count);
        for _ in 0..ref_count {
            refs.push((r.u64()?, r.u32()?));
        }
        r.done()?;

        if ref_count != pages.stored_pages() {
            return Err(ImageError::BadPageStore);
        }
        let mut payload = vec![0u8; frame_count * PAGE_SIZE];
        let mut filled = vec![false; frame_count];
        let stored = pages.iter_pages().filter_map(|(idx, src)| match src {
            PageSource::Bytes(b) => Some((idx, b)),
            _ => None,
        });
        for (&(page_index, frame_idx), (idx, bytes)) in refs.iter().zip(stored) {
            let frame_idx = frame_idx as usize;
            if frame_idx >= frame_count
                || idx != page_index
                || page_content_hash(bytes) != hashes[frame_idx]
            {
                return Err(ImageError::BadPageStore);
            }
            if !filled[frame_idx] {
                payload[frame_idx * PAGE_SIZE..(frame_idx + 1) * PAGE_SIZE].copy_from_slice(bytes);
                filled[frame_idx] = true;
            }
        }
        if filled.iter().any(|&f| !f) {
            return Err(ImageError::BadPageStore);
        }
        Ok(PageStoreImage {
            hashes,
            payload,
            refs,
        })
    }

    /// Checks the store against the pages image it claims to mirror:
    /// same stored pages, identical payload per page.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPageStore`] when the views disagree.
    pub fn verify_against(&self, pages: &PagesImage) -> Result<(), ImageError> {
        let mut refs = self.iter_refs();
        for (page_index, src) in pages.iter_pages() {
            let bytes = match src {
                PageSource::Bytes(b) => b,
                PageSource::Zero => continue,
                PageSource::Parent => return Err(ImageError::BadPageStore),
            };
            match refs.next() {
                Some((idx, _, frame)) if idx == page_index && frame == bytes => {}
                _ => return Err(ImageError::BadPageStore),
            }
        }
        if refs.next().is_some() {
            return Err(ImageError::BadPageStore);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- extents

/// One coalesced pagemap run: `pages` consecutive guest pages starting
/// at `start_index`, all backed by payload stored contiguously in
/// `pages.img`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageExtent {
    /// First guest page index of the run.
    pub start_index: u64,
    /// Run length in pages (always ≥ 1).
    pub pages: u32,
}

impl PageExtent {
    /// One past the last page index of the run.
    pub(crate) fn end_index(&self) -> u64 {
        self.start_index + self.pages as u64
    }
}

/// `extents.img`: the coalesced view of the pagemap — maximal runs of
/// consecutive-index *stored* pages (zero and parent-deferred entries
/// break runs, since their payload is not in `pages.img`).
///
/// A vectored restore walks this table instead of the per-page pagemap:
/// each run becomes one scatter-gather operation (`copy_extent`,
/// `cow_map_extent`, vectored prefetch) — the `preadv`/iovec batching
/// real CRIU uses to amortise per-page syscall overhead. The table is
/// derivable from the pagemap, so the file is optional: old per-page
/// images parse unchanged and a restore can recompute the runs on the
/// fly via `ExtentsImage::from_pages`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtentsImage {
    /// Coalesced runs in ascending `start_index` order.
    pub extents: Vec<PageExtent>,
}

impl ExtentsImage {
    /// Coalesces a pages image into maximal stored-page runs.
    pub(crate) fn from_pages(pages: &PagesImage) -> ExtentsImage {
        let mut extents: Vec<PageExtent> = Vec::new();
        for (page_index, src) in pages.iter_pages() {
            if !matches!(src, PageSource::Bytes(_)) {
                continue;
            }
            match extents.last_mut() {
                Some(run) if run.end_index() == page_index => run.pages += 1,
                _ => extents.push(PageExtent {
                    start_index: page_index,
                    pages: 1,
                }),
            }
        }
        ExtentsImage { extents }
    }

    /// Number of runs.
    pub(crate) fn len(&self) -> usize {
        self.extents.len()
    }

    /// Serialises the extent table.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_EXTENTS);
        w.u32(self.extents.len() as u32);
        for e in &self.extents {
            w.u64(e.start_index);
            w.u32(e.pages);
        }
        w.finish()
    }

    /// Parses an extent table and checks it against the pages image it
    /// claims to coalesce.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadExtents`] when the runs do not exactly match the
    /// coalescing of `pages` (coverage, order, or adjacency), or any
    /// codec error.
    pub(crate) fn parse(bytes: &[u8], pages: &PagesImage) -> Result<ExtentsImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_EXTENTS)?;
        let count = r.u32()?;
        let mut extents = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let start_index = r.u64()?;
            let pages = r.u32()?;
            if pages == 0 {
                return Err(ImageError::BadExtents);
            }
            extents.push(PageExtent { start_index, pages });
        }
        r.done()?;
        let parsed = ExtentsImage { extents };
        if parsed != ExtentsImage::from_pages(pages) {
            return Err(ImageError::BadExtents);
        }
        Ok(parsed)
    }
}

// ------------------------------------------------------------------ files

/// `files.img`: the dumped descriptor table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FilesImage {
    /// `(fd, entry)` pairs in descriptor order.
    pub fds: Vec<(i32, FdEntry)>,
}

impl FilesImage {
    /// Serialises the files image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_FILES);
        w.u32(self.fds.len() as u32);
        for (fd, entry) in &self.fds {
            w.i32(*fd);
            match entry {
                FdEntry::File { path, offset } => {
                    w.u8(0);
                    w.string(path);
                    w.u64(*offset);
                }
                FdEntry::PipeRead { pipe } => {
                    w.u8(1);
                    w.u64(*pipe);
                }
                FdEntry::PipeWrite { pipe } => {
                    w.u8(2);
                    w.u64(*pipe);
                }
                FdEntry::Listener { port } => {
                    w.u8(3);
                    w.u16(*port);
                }
            }
        }
        w.finish()
    }

    /// Parses a files image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<FilesImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_FILES)?;
        let count = r.u32()?;
        let mut fds = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let fd = r.i32()?;
            let entry = match r.u8()? {
                0 => FdEntry::File {
                    path: r.string()?,
                    offset: r.u64()?,
                },
                1 => FdEntry::PipeRead { pipe: r.u64()? },
                2 => FdEntry::PipeWrite { pipe: r.u64()? },
                3 => FdEntry::Listener { port: r.u16()? },
                t => return Err(ImageError::BadTag(t)),
            };
            fds.push((fd, entry));
        }
        r.done()?;
        Ok(FilesImage { fds })
    }
}

// -------------------------------------------------------------- image set

/// A complete checkpoint: every image of one dumped process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSet {
    /// Task identity.
    pub core: CoreImage,
    /// Memory layout.
    pub mm: MmImage,
    /// Page contents.
    pub pages: PagesImage,
    /// Descriptor table.
    pub files: FilesImage,
    /// Recorded first-invocation working set, if a record-mode run has
    /// produced one (`ws.img` is optional: eager and plain-lazy restores
    /// work without it).
    pub ws: Option<WsImage>,
    /// Content-addressed dedup view of the stored pages
    /// (`pagestore.img`). Optional: pre-dedup snapshots and incremental
    /// dumps lack it, and every non-CoW restore path ignores it.
    pub pagestore: Option<PageStoreImage>,
    /// Coalesced pagemap runs (`extents.img`). Optional: old per-page
    /// images lack it and a vectored restore recomputes the runs from
    /// the pagemap instead.
    pub extents: Option<ExtentsImage>,
    /// Compaction fallback layer (`fallback-pagemap.img` +
    /// `fallback-pages.img`): the never-faulted stored pages a
    /// `--compact` repack dropped out of the hot image. Optional; when
    /// present, `pages` holds only the hot working set and a restore
    /// must register these pages for demand paging — each fault into
    /// them pays the kernel's `fault_fallback` penalty.
    pub fallback: Option<PagesImage>,
}

impl ImageSet {
    /// File names within an images directory, mirroring CRIU.
    pub const CORE_NAME: &'static str = "core.img";
    /// `mm.img`.
    pub const MM_NAME: &'static str = "mm.img";
    /// `pagemap.img`.
    pub const PAGEMAP_NAME: &'static str = "pagemap.img";
    /// `pages.img`.
    pub const PAGES_NAME: &'static str = "pages.img";
    /// `files.img`.
    pub const FILES_NAME: &'static str = "files.img";
    /// `ws.img` — the recorded working set (optional).
    pub const WS_NAME: &'static str = "ws.img";
    /// `pagestore.img` — the content-addressed dedup view (optional).
    pub(crate) const PAGESTORE_NAME: &'static str = "pagestore.img";
    /// `extents.img` — the coalesced pagemap runs (optional).
    pub(crate) const EXTENTS_NAME: &'static str = "extents.img";
    /// `fallback-pagemap.img` — pagemap of the compaction fallback layer
    /// (optional; only `--compact` repacks write it).
    pub(crate) const FALLBACK_PAGEMAP_NAME: &'static str = "fallback-pagemap.img";
    /// `fallback-pages.img` — payload of the compaction fallback layer
    /// (optional).
    pub(crate) const FALLBACK_PAGES_NAME: &'static str = "fallback-pages.img";
    /// The parent link file written by incremental dumps (CRIU uses a
    /// symlink named `parent`; we store the path as file contents).
    pub const PARENT_LINK: &'static str = "parent";

    /// Builds a set from named file contents (as exported from a builder
    /// machine or stored in a container image). Parent references must
    /// already be resolved — sets with a parent link cannot be
    /// reassembled host-side.
    ///
    /// # Errors
    ///
    /// [`ImageError::Truncated`] if a file is missing, or any codec error.
    pub fn parse_files(files: &[(String, impl AsRef<[u8]>)]) -> Result<ImageSet, ImageError> {
        let get = |name: &str| -> Result<&[u8], ImageError> {
            files
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| d.as_ref())
                .ok_or(ImageError::Truncated)
        };
        let ws = match get(ImageSet::WS_NAME) {
            Ok(bytes) => Some(WsImage::parse(bytes)?),
            Err(_) => None,
        };
        let pages = PagesImage::parse(get(ImageSet::PAGEMAP_NAME)?, get(ImageSet::PAGES_NAME)?)?;
        let pagestore = match get(ImageSet::PAGESTORE_NAME) {
            Ok(bytes) => Some(PageStoreImage::parse(bytes, &pages)?),
            Err(_) => None,
        };
        let extents = match get(ImageSet::EXTENTS_NAME) {
            Ok(bytes) => Some(ExtentsImage::parse(bytes, &pages)?),
            Err(_) => None,
        };
        let fallback = match (
            get(ImageSet::FALLBACK_PAGEMAP_NAME),
            get(ImageSet::FALLBACK_PAGES_NAME),
        ) {
            (Ok(pagemap), Ok(payload)) => Some(PagesImage::parse(pagemap, payload)?),
            _ => None,
        };
        Ok(ImageSet {
            core: CoreImage::parse(get(ImageSet::CORE_NAME)?)?,
            mm: MmImage::parse(get(ImageSet::MM_NAME)?)?,
            pages,
            files: FilesImage::parse(get(ImageSet::FILES_NAME)?)?,
            ws,
            pagestore,
            extents,
            fallback,
        })
    }

    /// Total serialised size across all image files — `ws.img`,
    /// `pagestore.img`, `extents.img` and the compaction fallback layer
    /// included.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.hot_bytes()
            + self.fallback.as_ref().map_or(0, |f| {
                (f.encode_pagemap().len() + f.encode_pages().len()) as u64
            })
    }

    /// Bytes on a cold start's critical path: every image file *except*
    /// the compaction fallback layer, which is only opened when a fault
    /// misses the hot set. This is what `--compact` shrinks — and what a
    /// registry tier ships to a node ahead of a start. Equals
    /// [`ImageSet::total_bytes`] for uncompacted sets.
    pub(crate) fn hot_bytes(&self) -> u64 {
        (self.core.encode().len()
            + self.mm.encode().len()
            + self.pages.encode_pagemap().len()
            + self.pages.encode_pages().len()
            + self.files.encode().len()
            + self.ws.as_ref().map_or(0, |w| w.encode().len())
            + self.pagestore.as_ref().map_or(0, |p| p.encode().len())
            + self.extents.as_ref().map_or(0, |e| e.encode().len())) as u64
    }

    /// The extent view to restore by: the dumped table when present, a
    /// fresh coalescing of the pagemap otherwise (old per-page images).
    pub(crate) fn extent_view(&self) -> ExtentsImage {
        self.extents
            .clone()
            .unwrap_or_else(|| ExtentsImage::from_pages(&self.pages))
    }

    /// Bytes this set contributes *besides* page payload: metadata images
    /// plus the page-store's reference table and frame hashes (the store
    /// carries no payload on disk). A dedup-aware cache charges this base
    /// per snapshot and the unique frame payload once per distinct frame
    /// across all residents.
    pub(crate) fn non_payload_bytes(&self) -> u64 {
        let stored =
            self.pages.stored_pages() + self.fallback.as_ref().map_or(0, |f| f.stored_pages());
        self.total_bytes() - (stored * PAGE_SIZE) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_core() -> CoreImage {
        CoreImage {
            pid: Pid(42),
            comm: "jlvm".into(),
            cmdline: vec!["jlvm".into(), "/app/fn.jlar".into()],
            cap_bits: 0b100,
            threads: vec![
                ThreadImage {
                    tid: Tid(42),
                    regs: Regs {
                        ip: 0x1234,
                        sp: 0x7FFF_0000,
                    },
                },
                ThreadImage {
                    tid: Tid(43),
                    regs: Regs {
                        ip: 0x9999,
                        sp: 0x7FFE_0000,
                    },
                },
            ],
        }
    }

    fn sample_mm() -> MmImage {
        MmImage {
            vmas: vec![
                Vma {
                    start: VirtAddr(0x1000_0000),
                    len: 0x10000,
                    prot: Prot::RX,
                    kind: VmaKind::Binary {
                        path: "/bin/jlvm".into(),
                    },
                },
                Vma {
                    start: VirtAddr(0x2000_0000),
                    len: 0x4000,
                    prot: Prot::RW,
                    kind: VmaKind::File {
                        path: "/app/fn.jlar".into(),
                        offset: 0,
                    },
                },
                Vma {
                    start: VirtAddr(0x3000_0000),
                    len: 0x2000,
                    prot: Prot::RWX,
                    kind: VmaKind::CodeCache,
                },
            ],
        }
    }

    #[test]
    fn core_roundtrip() {
        let c = sample_core();
        assert_eq!(CoreImage::parse(&c.encode()).unwrap(), c);
    }

    #[test]
    fn mm_roundtrip() {
        let m = sample_mm();
        assert_eq!(MmImage::parse(&m.encode()).unwrap(), m);
    }

    #[test]
    fn pages_roundtrip_with_zero_dedup() {
        let mut p = PagesImage::default();
        let mut data = Page::zeroed();
        data.bytes_mut()[17] = 0xAB;
        p.push(100, &data);
        p.push(101, &Page::zeroed());
        p.push(102, &data);
        assert_eq!(p.stored_pages(), 2);
        assert_eq!(p.zero_pages(), 1);

        let back = PagesImage::parse(&p.encode_pagemap(), &p.encode_pages()).unwrap();
        assert_eq!(back, p);
        let collected: Vec<(u64, bool)> = back
            .iter_pages()
            .map(|(i, src)| (i, matches!(src, PageSource::Bytes(_))))
            .collect();
        assert_eq!(collected, vec![(100, true), (101, false), (102, true)]);
        let first = back.iter_pages().next().unwrap().1;
        match first {
            PageSource::Bytes(first) => assert_eq!(first[17], 0xAB),
            other => panic!("expected payload, got {other:?}"),
        };
    }

    #[test]
    fn parent_refs_roundtrip_and_resolve() {
        // Parent holds pages 10 (data) and 11 (zero).
        let mut parent = PagesImage::default();
        let mut data = Page::zeroed();
        data.bytes_mut().fill(0x77);
        parent.push(10, &data);
        parent.push(11, &Page::zeroed());

        // Child: page 10 unchanged (parent ref), 11 unchanged (parent
        // ref), 12 freshly written.
        let mut child = PagesImage::default();
        child.push_parent_ref(10);
        child.push_parent_ref(11);
        let mut fresh = Page::zeroed();
        fresh.bytes_mut().fill(0x33);
        child.push(12, &fresh);

        assert_eq!(child.parent_pages(), 2);
        assert_eq!(child.stored_pages(), 1);
        let back = PagesImage::parse(&child.encode_pagemap(), &child.encode_pages()).unwrap();
        assert_eq!(back, child);

        let resolved = back.resolve_parent(&parent).unwrap();
        assert_eq!(resolved.parent_pages(), 0);
        assert_eq!(resolved.stored_pages(), 2, "10 and 12 carry payload");
        assert_eq!(resolved.zero_pages(), 1, "11 stays zero");
        let bytes: Vec<(u64, bool)> = resolved
            .iter_pages()
            .map(|(i, s)| (i, matches!(s, PageSource::Bytes(_))))
            .collect();
        assert_eq!(bytes, vec![(10, true), (11, false), (12, true)]);
    }

    #[test]
    fn resolve_missing_parent_page_fails() {
        let mut child = PagesImage::default();
        child.push_parent_ref(99);
        let empty = PagesImage::default();
        assert_eq!(child.resolve_parent(&empty), Err(ImageError::BadPages));
    }

    #[test]
    fn pages_payload_mismatch_detected() {
        let mut p = PagesImage::default();
        let mut data = Page::zeroed();
        data.bytes_mut()[0] = 1;
        p.push(5, &data);
        let pagemap = p.encode_pagemap();
        // Claim the page but strip the payload.
        let empty = PagesImage::default().encode_pages();
        assert_eq!(
            PagesImage::parse(&pagemap, &empty),
            Err(ImageError::BadPages)
        );
    }

    #[test]
    fn files_roundtrip() {
        let f = FilesImage {
            fds: vec![
                (
                    3,
                    FdEntry::File {
                        path: "/app/fn.jlar".into(),
                        offset: 99,
                    },
                ),
                (4, FdEntry::Listener { port: 8080 }),
                (5, FdEntry::PipeRead { pipe: 7 }),
                (6, FdEntry::PipeWrite { pipe: 7 }),
            ],
        };
        assert_eq!(FilesImage::parse(&f.encode()).unwrap(), f);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample_core().encode();
        bytes[9] ^= 0xFF;
        assert_eq!(CoreImage::parse(&bytes), Err(ImageError::BadChecksum));
    }

    #[test]
    fn kind_confusion_detected() {
        let core_bytes = sample_core().encode();
        assert!(matches!(
            MmImage::parse(&core_bytes),
            Err(ImageError::WrongKind { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_mm().encode();
        assert_eq!(MmImage::parse(&bytes[..5]), Err(ImageError::Truncated));
    }

    #[test]
    fn image_set_total_bytes_dominated_by_pages() {
        let mut pages = PagesImage::default();
        let mut page = Page::zeroed();
        page.bytes_mut().fill(0x5A);
        for i in 0..100 {
            pages.push(i, &page);
        }
        let set = ImageSet {
            core: sample_core(),
            mm: sample_mm(),
            pages,
            files: FilesImage::default(),
            ws: None,
            pagestore: None,
            extents: None,
            fallback: None,
        };
        let total = set.total_bytes();
        assert!(total > 100 * PAGE_SIZE as u64);
        assert!(total < 110 * PAGE_SIZE as u64);
        // A working set adds its serialised bytes to the total.
        let mut with_ws = set.clone();
        with_ws.ws = Some(WsImage::from_fault_log((0..50).collect()));
        assert_eq!(
            with_ws.total_bytes(),
            total + with_ws.ws.as_ref().unwrap().encode().len() as u64
        );
    }

    #[test]
    fn ws_roundtrip_preserves_order() {
        let ws = WsImage::from_fault_log(vec![900, 3, 77, 12]);
        assert_eq!(ws.len(), 4);
        assert!(!ws.is_empty());
        let back = WsImage::parse(&ws.encode()).unwrap();
        assert_eq!(back, ws);
        assert_eq!(back.pages, vec![900, 3, 77, 12], "fault order kept");

        let empty = WsImage::default();
        assert!(empty.is_empty());
        assert_eq!(WsImage::parse(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn ws_corruption_and_kind_confusion_detected() {
        let mut bytes = WsImage::from_fault_log(vec![1, 2, 3]).encode();
        bytes[9] ^= 0xFF;
        assert_eq!(WsImage::parse(&bytes), Err(ImageError::BadChecksum));
        assert!(matches!(
            WsImage::parse(&sample_core().encode()),
            Err(ImageError::WrongKind { .. })
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ImageError::Truncated,
            ImageError::BadPages,
            ImageError::BadPageStore,
            ImageError::BadTag(9),
            ImageError::WrongKind {
                expected: 1,
                found: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    fn filled(fill: u8) -> Page {
        let mut p = Page::zeroed();
        p.bytes_mut().fill(fill);
        p
    }

    #[test]
    fn pagestore_dedups_identical_pages() {
        let mut pages = PagesImage::default();
        pages.push(10, &filled(0xAA));
        pages.push(11, &filled(0xBB));
        pages.push(12, &Page::zeroed());
        pages.push(13, &filled(0xAA));
        pages.push(14, &filled(0xAA));

        let store = PageStoreImage::from_pages(&pages).unwrap();
        assert_eq!(store.unique_pages(), 2, "0xAA and 0xBB frames");
        assert_eq!(store.total_refs(), 4, "zero page carries no ref");
        assert_eq!(store.unique_bytes(), 2 * PAGE_SIZE as u64);
        store.verify_against(&pages).unwrap();

        let refs: Vec<(u64, u8)> = store
            .iter_refs()
            .map(|(idx, _, bytes)| (idx, bytes[0]))
            .collect();
        assert_eq!(refs, vec![(10, 0xAA), (11, 0xBB), (13, 0xAA), (14, 0xAA)]);
        let (_, h13, _) = store.iter_refs().nth(2).unwrap();
        let (_, h10, _) = store.iter_refs().next().unwrap();
        assert_eq!(h10, h13, "identical content shares one hash");
    }

    #[test]
    fn pagestore_roundtrip_and_validation() {
        let mut pages = PagesImage::default();
        pages.push(1, &filled(1));
        pages.push(2, &filled(2));
        pages.push(3, &filled(1));
        let store = PageStoreImage::from_pages(&pages).unwrap();
        // The encoding is metadata-only; parse rebuilds the payload from
        // the pages image and lands on the identical in-memory store.
        assert!(store.encode().len() < PAGE_SIZE, "no payload on disk");
        let back = PageStoreImage::parse(&store.encode(), &pages).unwrap();
        assert_eq!(back, store);

        // Flipping a page byte breaks its frame's declared content hash.
        let mut tampered = pages.clone();
        tampered.payload[100] ^= 0xFF;
        assert_eq!(
            PageStoreImage::parse(&store.encode(), &tampered),
            Err(ImageError::BadPageStore)
        );

        // A declared hash no page hashes to is rejected.
        let mut bad_hash = store.clone();
        bad_hash.hashes[0] ^= 1;
        assert_eq!(
            PageStoreImage::parse(&bad_hash.encode(), &pages),
            Err(ImageError::BadPageStore)
        );

        // A reference list that disagrees with the pagemap is rejected.
        let mut oob = store.clone();
        oob.refs.push((9, 99));
        assert_eq!(
            PageStoreImage::parse(&oob.encode(), &pages),
            Err(ImageError::BadPageStore)
        );

        // verify_against catches a store for the wrong pages image.
        let mut other = PagesImage::default();
        other.push(1, &filled(7));
        assert_eq!(store.verify_against(&other), Err(ImageError::BadPageStore));
    }

    #[test]
    fn pagestore_absent_for_incremental_dumps() {
        let mut pages = PagesImage::default();
        pages.push(1, &filled(1));
        pages.push_parent_ref(2);
        assert!(PageStoreImage::from_pages(&pages).is_none());
    }

    #[test]
    fn extents_coalesce_stored_runs_only() {
        let mut pages = PagesImage::default();
        pages.push(10, &filled(1));
        pages.push(11, &filled(2));
        pages.push(12, &Page::zeroed()); // zero breaks the run
        pages.push(13, &filled(3));
        pages.push(20, &filled(4)); // index gap breaks the run
        pages.push(21, &filled(5));
        let ext = ExtentsImage::from_pages(&pages);
        assert_eq!(
            ext.extents,
            vec![
                PageExtent {
                    start_index: 10,
                    pages: 2
                },
                PageExtent {
                    start_index: 13,
                    pages: 1
                },
                PageExtent {
                    start_index: 20,
                    pages: 2
                },
            ]
        );
        assert_eq!(ext.len(), 3);
        let covered: u64 = ext.extents.iter().map(|e| e.pages as u64).sum();
        assert_eq!(covered as usize, pages.stored_pages());
        assert_eq!(ext.extents[0].end_index(), 12);
    }

    #[test]
    fn extents_break_at_parent_refs() {
        let mut pages = PagesImage::default();
        pages.push(5, &filled(1));
        pages.push_parent_ref(6);
        pages.push(7, &filled(2));
        let ext = ExtentsImage::from_pages(&pages);
        assert_eq!(ext.len(), 2, "parent-deferred page is not in pages.img");
        assert_eq!(ext.extents.iter().map(|e| e.pages as u64).sum::<u64>(), 2);
    }

    #[test]
    fn extents_roundtrip_and_validation() {
        let mut pages = PagesImage::default();
        pages.push(1, &filled(1));
        pages.push(2, &filled(2));
        pages.push(9, &filled(3));
        let ext = ExtentsImage::from_pages(&pages);
        let back = ExtentsImage::parse(&ext.encode(), &pages).unwrap();
        assert_eq!(back, ext);

        // An empty table round-trips against an all-zero image.
        let mut zeros = PagesImage::default();
        zeros.push(1, &Page::zeroed());
        let empty = ExtentsImage::from_pages(&zeros);
        assert_eq!(empty.len(), 0);
        assert_eq!(ExtentsImage::parse(&empty.encode(), &zeros).unwrap(), empty);

        // A table that disagrees with the pagemap is rejected.
        assert_eq!(
            ExtentsImage::parse(&ext.encode(), &zeros),
            Err(ImageError::BadExtents)
        );
        let mut bad = ext.clone();
        bad.extents[0].pages = 0;
        assert_eq!(
            ExtentsImage::parse(&bad.encode(), &pages),
            Err(ImageError::BadExtents)
        );
        assert!(matches!(
            ExtentsImage::parse(&sample_core().encode(), &pages),
            Err(ImageError::WrongKind { .. })
        ));
    }

    #[test]
    fn image_set_extent_view_derives_when_absent() {
        let mut pages = PagesImage::default();
        pages.push(3, &filled(1));
        pages.push(4, &filled(2));
        let ext = ExtentsImage::from_pages(&pages);
        let mut set = ImageSet {
            core: sample_core(),
            mm: sample_mm(),
            pages,
            files: FilesImage::default(),
            ws: None,
            pagestore: None,
            extents: None,
            fallback: None,
        };
        let without = set.total_bytes();
        assert_eq!(set.extent_view(), ext, "derived from the pagemap");
        set.extents = Some(ext.clone());
        assert_eq!(set.extent_view(), ext, "dumped table preferred");
        assert_eq!(
            set.total_bytes(),
            without + ext.encode().len() as u64,
            "extent table counts toward the set's footprint"
        );
    }

    #[test]
    fn image_set_charges_pagestore_and_exposes_non_payload_base() {
        let mut pages = PagesImage::default();
        for i in 0..8 {
            pages.push(i, &filled(0x11)); // 8 refs, 1 unique frame
        }
        let store = PageStoreImage::from_pages(&pages).unwrap();
        let without = ImageSet {
            core: sample_core(),
            mm: sample_mm(),
            pages,
            files: FilesImage::default(),
            ws: None,
            pagestore: None,
            extents: None,
            fallback: None,
        };
        let mut with = without.clone();
        with.pagestore = Some(store.clone());

        assert_eq!(
            with.total_bytes(),
            without.total_bytes() + store.encode().len() as u64
        );
        // The store adds only its table to the total: payload still ships
        // once, in `pages.img`. The non-payload base grows by exactly the
        // table overhead — well under one page.
        let plain_base = without.total_bytes() - 8 * PAGE_SIZE as u64;
        let dedup_base = with.non_payload_bytes();
        assert_eq!(dedup_base, plain_base + store.encode().len() as u64);
        assert!(
            dedup_base < plain_base + PAGE_SIZE as u64,
            "table, not payload"
        );
    }
}
