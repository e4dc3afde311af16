//! The checkpoint image format.
//!
//! A checkpoint is a directory of image files mirroring real CRIU's
//! layout: `core.img` (task identity, threads, registers, capabilities),
//! `mm.img` (the VMA list), `pagemap.img` (which pages travel and which
//! are zero), `pages.img` (raw page payload) and `files.img` (the
//! descriptor table). Each file is a TLV blob sealed with an XXH64
//! checksum of everything before it, except `pages.img`, whose checksum
//! is an XXH64 over its page hashes (see `pages_sum`).

use std::fmt;
use std::ops::{Deref, Range};

use bytes::Bytes;
use prebake_sim::hash::xxh64;
use prebake_sim::mem::{Page, Prot, VirtAddr, Vma, VmaKind, PAGE_SIZE};
use prebake_sim::proc::{FdEntry, Pid, Regs, Tid};

/// Magic prefix of every image file: `"CRIM"`.
pub(crate) const IMAGE_MAGIC: u32 = 0x4352_494D;
/// Image format version: the only one this build writes or reads.
/// Version 2 added the fault-order `repack` layout and the compaction
/// fallback layer (`fallback-pagemap.img`/`fallback-pages.img`); version
/// 3 moved every checksum and page hash from FNV-1a to XXH64 and made
/// `pages.img`'s checksum a hash over its page hashes.
pub(crate) const IMAGE_VERSION: u16 = 3;
/// Bytes before every image body: magic, version and kind tag.
const HEADER_LEN: usize = 4 + 2 + 1;
/// Bytes after every image body: the XXH64 checksum of all before it
/// (for `pages.img`, of its head and page hashes: see `pages_sum`).
const CHECKSUM_LEN: usize = 8;
/// Offset of the page payload in `pages.img`: the header, then the
/// payload's `u32` length.
const PAGES_PAYLOAD_AT: usize = HEADER_LEN + 4;

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
    /// Page-store image is internally inconsistent: its reference table
    /// disagrees with the pages image, a page's content hash does not
    /// match its frame's declared hash, a reference points past the
    /// frame table, or a frame is never referenced.
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

/// The checksum of the `pages.img` bytes before its trailing sum: XXH64
/// over the bytes before the payload (`head`), then each whole page's
/// [`page_content_hash`] as little-endian `u64`s, then any ragged tail —
/// a hash over the page hashes, so no page byte is hashed twice.
fn pages_sum(head: &[u8], page_hashes: &[u64], tail: &[u8]) -> u64 {
    let mut tree = Vec::with_capacity(head.len() + 8 * page_hashes.len() + tail.len());
    tree.extend_from_slice(head);
    for h in page_hashes {
        tree.extend_from_slice(&h.to_le_bytes());
    }
    tree.extend_from_slice(tail);
    xxh64(&tree)
}

/// [`pages_sum`] of `bytes` split at `at`, together with the
/// [`page_content_hash`] of every whole [`PAGE_SIZE`] chunk of
/// `bytes[at..]` it is built from: one pass hashes each page once. A
/// ragged tail feeds only the sum.
fn pages_sum_with_page_hashes(bytes: &[u8], at: usize) -> (u64, Vec<u64>) {
    let (head, body) = bytes.split_at(at.min(bytes.len()));
    let pages = body.chunks_exact(PAGE_SIZE);
    let tail = pages.remainder();
    let hashes: Vec<u64> = pages.map(page_content_hash).collect();
    (pages_sum(head, &hashes, tail), hashes)
}

/// Content hash of a page frame, as used by the dedup page store.
///
/// This is the key under which identical pages collapse to one frame —
/// both inside `pagestore.img` and in the machine-wide shared pool at
/// restore time — and the leaf of `pages.img`'s checksum. XXH64 over the
/// raw page bytes: fast, deterministic, and good enough for a simulator
/// where collisions would require adversarial inputs (real systems use
/// memfd offsets or KSM's full memcmp instead of trusting the hash).
pub fn page_content_hash(bytes: &[u8]) -> u64 {
    xxh64(bytes)
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

    fn finish(self) -> Vec<u8> {
        self.finish_summed(xxh64)
    }

    /// [`Writer::finish`] with the checksum computed by `sum` over
    /// everything written.
    fn finish_summed(mut self, sum: impl FnOnce(&[u8]) -> u64) -> Vec<u8> {
        let sum = sum(&self.buf);
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
        Reader::open_summed(bytes, kind, xxh64)
    }

    /// [`Reader::open`] with the checksum computed by `sum` over the
    /// checksummed part of `bytes` (everything but the trailing sum).
    fn open_summed(
        bytes: &'a [u8],
        kind: u8,
        sum: impl FnOnce(&[u8]) -> u64,
    ) -> Result<Reader<'a>, ImageError> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(ImageError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let declared = u64::from_be_bytes(tail.try_into().unwrap());
        if sum(payload) != declared {
            return Err(ImageError::BadChecksum);
        }
        let magic = u32::from_be_bytes(payload[0..4].try_into().unwrap());
        if magic != IMAGE_MAGIC {
            return Err(ImageError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(payload[4..6].try_into().unwrap());
        if version != IMAGE_VERSION {
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
            pos: HEADER_LEN,
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

    /// Reads a `u32` element count and rejects one the remaining bytes
    /// cannot hold at `min_size` bytes per element, so a corrupt count
    /// never sizes an allocation.
    fn count(&mut self, min_size: usize) -> Result<usize, ImageError> {
        let n = self.u32()? as usize;
        if n * min_size > self.buf.len() - self.pos {
            return Err(ImageError::Truncated);
        }
        Ok(n)
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

    /// `encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        let args: usize = self.cmdline.iter().map(|a| 2 + a.len()).sum();
        HEADER_LEN
            + 4
            + 2
            + self.comm.len()
            + 2
            + args
            + 1
            + 2
            + self.threads.len() * (4 + 8 + 8)
            + CHECKSUM_LEN
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

    /// `encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        let vmas: usize = self
            .vmas
            .iter()
            .map(|v| {
                8 + 8
                    + 1
                    + match &v.kind {
                        VmaKind::Binary { path } => 1 + 2 + path.len(),
                        VmaKind::File { path, .. } => 1 + 2 + path.len() + 8,
                        VmaKind::Anon
                        | VmaKind::Stack
                        | VmaKind::RuntimeHeap
                        | VmaKind::Metaspace
                        | VmaKind::CodeCache
                        | VmaKind::Parasite => 1,
                    }
            })
            .sum();
        HEADER_LEN + 4 + vmas + CHECKSUM_LEN
    }

    /// Parses an mm image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<MmImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_MM)?;
        let count = r.count(8 + 8 + 1 + 1)?;
        let mut vmas = Vec::with_capacity(count);
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
    pub(crate) in_parent: bool,
}

/// Where one page's contents come from at restore time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PageSource {
    /// Demand-zero page: nothing stored.
    Zero,
    /// Payload stored in this image, as a view of it (no copy).
    Stored(Page),
    /// Payload lives in the parent snapshot.
    Parent,
}

/// A read-only window onto a shared byte buffer: how a [`PagesImage`]
/// holds its payload. Parsing points it into the `pages.img` bytes it
/// was handed and a builder freezes its buffer into one, so clones and
/// parses never copy page data.
#[derive(Clone, Default)]
struct Payload {
    buf: Bytes,
    range: Range<usize>,
}

impl Payload {
    fn frozen(bytes: Vec<u8>) -> Payload {
        Payload {
            range: 0..bytes.len(),
            buf: Bytes::from(bytes),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

/// `pagemap.img` + `pages.img` as one logical unit.
///
/// Immutable once made: `PagesImage::parse` views the payload inside
/// the `pages.img` buffer it is given, and a `PagesBuilder` freezes
/// its buffer once, so cloning an image never copies page data. Each
/// stored page's [`page_content_hash`] is kept beside it, computed once:
/// by the builder as the page arrives, or by parse, which verifies the
/// file's checksum from those hashes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PagesImage {
    /// Pagemap records in page-index order.
    entries: Vec<PagemapEntry>,
    /// Concatenated payload of the stored pages, in entry order.
    payload: Payload,
    /// `page_content_hash` of each stored page, in payload order.
    hashes: Vec<u64>,
}

/// Accumulates a [`PagesImage`] page by page in a growable buffer;
/// [`PagesBuilder::finish`] freezes it once.
#[derive(Debug, Default)]
pub struct PagesBuilder {
    entries: Vec<PagemapEntry>,
    payload: Vec<u8>,
    hashes: Vec<u64>,
}

impl PagesBuilder {
    /// Appends a page, storing payload only when it is non-zero.
    pub fn push(&mut self, page_index: u64, page: &Page) {
        if page.is_zero() {
            self.entries.push(PagemapEntry {
                page_index,
                zero: true,
                in_parent: false,
            });
        } else {
            self.push_stored(page_index, page.bytes(), page_content_hash(page.bytes()));
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

    fn push_stored(&mut self, page_index: u64, bytes: &[u8], hash: u64) {
        self.entries.push(PagemapEntry {
            page_index,
            zero: false,
            in_parent: false,
        });
        self.payload.extend_from_slice(bytes);
        self.hashes.push(hash);
    }

    /// Appends `entry` of `src`, with its payload and hash when `slot`
    /// (its rank among `src`'s stored pages) is set.
    fn copy(&mut self, src: &PagesImage, entry: PagemapEntry, slot: Option<usize>) {
        match slot {
            Some(slot) => self.push_stored(entry.page_index, src.page(slot), src.hashes[slot]),
            None => self.entries.push(entry),
        }
    }

    /// Freezes the accumulated pages into an image.
    pub fn finish(self) -> PagesImage {
        PagesImage {
            entries: self.entries,
            payload: Payload::frozen(self.payload),
            hashes: self.hashes,
        }
    }
}

impl PagesImage {
    /// Pagemap records in page-index order.
    pub fn entries(&self) -> &[PagemapEntry] {
        &self.entries
    }

    /// Concatenated payload of the stored pages, in entry order.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Number of pages whose payload is stored in *this* image.
    pub fn stored_pages(&self) -> usize {
        self.hashes.len()
    }

    /// Number of zero-deduplicated pages.
    pub fn zero_pages(&self) -> usize {
        self.entries.iter().filter(|e| e.zero).count()
    }

    /// Number of pages deferred to the parent snapshot.
    pub(crate) fn parent_pages(&self) -> usize {
        self.entries.iter().filter(|e| e.in_parent).count()
    }

    /// Payload of the stored page ranked `slot` among the stored pages.
    fn page(&self, slot: usize) -> &[u8; PAGE_SIZE] {
        self.payload[slot * PAGE_SIZE..(slot + 1) * PAGE_SIZE]
            .try_into()
            .expect("a PAGE_SIZE slice")
    }

    /// The stored page ranked `slot` as a [`Page`] viewing the payload
    /// buffer: installing it in guest memory copies nothing.
    fn page_view(&self, slot: usize) -> Page {
        Page::view(
            &self.payload.buf,
            self.payload.range.start + slot * PAGE_SIZE,
        )
    }

    /// Every entry with its rank among the stored pages (`None` for zero
    /// and parent entries), in entry order.
    fn slots(&self) -> impl Iterator<Item = (PagemapEntry, Option<usize>)> + '_ {
        let mut next = 0;
        self.entries.iter().map(move |&e| {
            if e.zero || e.in_parent {
                (e, None)
            } else {
                next += 1;
                (e, Some(next - 1))
            }
        })
    }

    /// Page indices of the stored pages, in entry order.
    fn stored_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots()
            .filter_map(|(e, slot)| slot.map(|_| e.page_index))
    }

    /// Iterates `(page_index, PageSource)` in entry order.
    pub(crate) fn iter_pages(&self) -> impl Iterator<Item = (u64, PageSource)> + '_ {
        self.slots().map(|(e, slot)| {
            let source = match slot {
                Some(slot) => PageSource::Stored(self.page_view(slot)),
                None if e.zero => PageSource::Zero,
                None => PageSource::Parent,
            };
            (e.page_index, source)
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

    /// Serialises `pages.img` into a shared buffer, the form
    /// [`PagesImage::parse`] views. The checksum comes from the page
    /// hashes already held, without re-reading the payload.
    pub fn encode_pages(&self) -> Bytes {
        let mut w = Writer::new(KIND_PAGES);
        w.bytes(&self.payload);
        Bytes::from(w.finish_summed(|body| pages_sum(&body[..PAGES_PAYLOAD_AT], &self.hashes, &[])))
    }

    /// `encode_pagemap().len()`, without encoding.
    pub(crate) fn pagemap_encoded_len(&self) -> usize {
        HEADER_LEN + 4 + self.entries.len() * (8 + 1) + CHECKSUM_LEN
    }

    /// `encode_pages().len()`, without encoding.
    pub(crate) fn pages_encoded_len(&self) -> usize {
        PAGES_PAYLOAD_AT + self.payload.len() + CHECKSUM_LEN
    }

    /// Parses the pagemap/pages pair back into one unit. The payload
    /// stays inside `pages` (a view, not a copy), and one pass over
    /// `pages` hashes every stored page once; its checksum is verified
    /// from those page hashes.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPages`] if the payload size disagrees with the
    /// pagemap (or an entry claims both zero and in-parent), or any codec
    /// error.
    pub fn parse(pagemap: &[u8], pages: &Bytes) -> Result<PagesImage, ImageError> {
        let mut r = Reader::open(pagemap, KIND_PAGEMAP)?;
        let count = r.count(8 + 1)?;
        let mut entries = Vec::with_capacity(count);
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

        let mut hashes = Vec::new();
        let mut r = Reader::open_summed(pages, KIND_PAGES, |body| {
            let (sum, page_hashes) = pages_sum_with_page_hashes(body, PAGES_PAYLOAD_AT);
            hashes = page_hashes;
            sum
        })?;
        let len = r.u32()? as usize;
        r.take(len)?;
        r.done()?;

        let stored = entries.iter().filter(|e| !e.zero && !e.in_parent).count();
        if len != stored * PAGE_SIZE {
            return Err(ImageError::BadPages);
        }
        // The payload fills the checksummed body from PAGES_PAYLOAD_AT
        // on, in whole pages, so `hashes` holds exactly one per page.
        Ok(PagesImage {
            entries,
            payload: Payload {
                buf: pages.clone(),
                range: PAGES_PAYLOAD_AT..PAGES_PAYLOAD_AT + len,
            },
            hashes,
        })
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
        let parent_slots: BTreeMap<u64, (PagemapEntry, Option<usize>)> = parent
            .slots()
            .map(|(e, slot)| (e.page_index, (e, slot)))
            .collect();
        let mut resolved = PagesBuilder::default();
        for (e, slot) in self.slots() {
            if !e.in_parent {
                resolved.copy(self, e, slot);
                continue;
            }
            match parent_slots.get(&e.page_index) {
                Some(&(pe, slot)) if !pe.in_parent => resolved.copy(parent, pe, slot),
                _ => return Err(ImageError::BadPages),
            }
        }
        Ok(resolved.finish())
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
        for (at, e) in self.entries.iter().enumerate() {
            by_index.insert(e.page_index, at);
        }
        let mut picked = vec![false; self.entries.len()];
        let mut picks: Vec<usize> = Vec::with_capacity(self.entries.len());
        for idx in order {
            if let Some(&at) = by_index.get(idx) {
                if !picked[at] {
                    picked[at] = true;
                    picks.push(at);
                }
            }
        }
        picks.extend((0..self.entries.len()).filter(|&at| !picked[at]));

        let slots: Vec<Option<usize>> = self.slots().map(|(_, slot)| slot).collect();
        let mut out = PagesBuilder::default();
        for at in picks {
            out.copy(self, self.entries[at], slots[at]);
        }
        out.finish()
    }

    /// This image's entries followed by `other`'s, payload moving with
    /// each entry.
    pub(crate) fn concat(&self, other: &PagesImage) -> PagesImage {
        let mut out = PagesBuilder::default();
        for image in [self, other] {
            for (e, slot) in image.slots() {
                out.copy(image, e, slot);
            }
        }
        out.finish()
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
        let mut hot = PagesBuilder::default();
        let mut fallback = PagesBuilder::default();
        for (e, slot) in self.slots() {
            let target = if slot.is_some() && !hot_set.contains(&e.page_index) {
                &mut fallback
            } else {
                &mut hot
            };
            target.copy(self, e, slot);
        }
        Some((hot.finish(), fallback.finish()))
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

    /// Serialises the working-set image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_WS);
        w.u32(self.pages.len() as u32);
        for &p in &self.pages {
            w.u64(p);
        }
        w.finish()
    }

    /// `encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_LEN + 4 + self.pages.len() * 8 + CHECKSUM_LEN
    }

    /// Parses a working-set image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<WsImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_WS)?;
        let count = r.count(8)?;
        let mut pages = Vec::with_capacity(count);
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
/// serialising it again would double the snapshot's footprint. In
/// memory the store holds no payload either: each frame is the stored
/// page of its first reference, read out of the [`PagesImage`] the store
/// mirrors. [`PageStoreImage::parse`] checks every page's content hash,
/// as computed when that pages image was parsed, against its frame's
/// declared hash.
///
/// Incremental dumps (entries deferring to a parent snapshot) have no
/// page-store view: their payload is split across files, so
/// [`PageStoreImage::from_pages`] returns `None` for them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageStoreImage {
    /// Content hash of each unique frame, in first-reference order.
    pub hashes: Vec<u64>,
    /// `(page_index, frame_index)` for every non-zero stored page, in
    /// pagemap order. `frame_index` indexes [`PageStoreImage::hashes`].
    pub refs: Vec<(u64, u32)>,
    /// Rank among the mirrored image's stored pages of each frame's first
    /// reference; that page's payload is the frame's. In-memory only.
    first_slots: Vec<u32>,
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
        for (slot, page_index) in pages.stored_indices().enumerate() {
            let hash = pages.hashes[slot];
            let frame_idx = *frame_of.entry(hash).or_insert_with(|| {
                store.hashes.push(hash);
                store.first_slots.push(slot as u32);
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

    /// Iterates `(page_index, frame_hash, frame)` over every reference,
    /// in pagemap order, each frame a view into `pages` — the image this
    /// store mirrors.
    pub(crate) fn iter_refs<'a>(
        &'a self,
        pages: &'a PagesImage,
    ) -> impl Iterator<Item = (u64, u64, Page)> + 'a {
        self.refs.iter().map(move |&(page_index, frame_idx)| {
            let frame = frame_idx as usize;
            (
                page_index,
                self.hashes[frame],
                pages.page_view(self.first_slots[frame] as usize),
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

    /// `encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_LEN + 4 + self.hashes.len() * 8 + 4 + self.refs.len() * (8 + 4) + CHECKSUM_LEN
    }

    /// Parses a page-store image against the pages image it mirrors,
    /// comparing every stored page's content hash (computed when `pages`
    /// was parsed or built) with its frame's declared hash.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPageStore`] when the reference table does not
    /// line up with `pages` (count, page order, or frame range), when a
    /// page's content does not hash to its frame's declared value, or
    /// when a frame is never referenced; or any codec error.
    pub fn parse(bytes: &[u8], pages: &PagesImage) -> Result<PageStoreImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_PAGESTORE)?;
        let frame_count = r.count(8)?;
        let mut hashes = Vec::with_capacity(frame_count);
        for _ in 0..frame_count {
            hashes.push(r.u64()?);
        }
        let ref_count = r.count(8 + 4)?;
        let mut refs = Vec::with_capacity(ref_count);
        for _ in 0..ref_count {
            refs.push((r.u64()?, r.u32()?));
        }
        r.done()?;

        if ref_count != pages.stored_pages() {
            return Err(ImageError::BadPageStore);
        }
        const UNSEEN: u32 = u32::MAX;
        let mut first_slots = vec![UNSEEN; frame_count];
        for (slot, (&(page_index, frame_idx), idx)) in
            refs.iter().zip(pages.stored_indices()).enumerate()
        {
            let frame = frame_idx as usize;
            if frame >= frame_count || idx != page_index || pages.hashes[slot] != hashes[frame] {
                return Err(ImageError::BadPageStore);
            }
            if first_slots[frame] == UNSEEN {
                first_slots[frame] = slot as u32;
            }
        }
        if first_slots.contains(&UNSEEN) {
            return Err(ImageError::BadPageStore);
        }
        Ok(PageStoreImage {
            hashes,
            refs,
            first_slots,
        })
    }

    /// Checks the store against the pages image it claims to mirror:
    /// same stored pages, and every page byte-identical to its frame.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadPageStore`] when the views disagree.
    pub fn verify_against(&self, pages: &PagesImage) -> Result<(), ImageError> {
        if pages.parent_pages() > 0 || self.refs.len() != pages.stored_pages() {
            return Err(ImageError::BadPageStore);
        }
        for (slot, (&(page_index, frame_idx), idx)) in
            self.refs.iter().zip(pages.stored_indices()).enumerate()
        {
            let first = self.first_slots.get(frame_idx as usize);
            match first {
                Some(&first)
                    if idx == page_index
                        && (first as usize) < pages.stored_pages()
                        && pages.page(first as usize) == pages.page(slot) => {}
                _ => return Err(ImageError::BadPageStore),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- extents

/// One coalesced pagemap run: `pages` consecutive guest pages starting
/// at `start_index`, all backed by payload stored contiguously in
/// `pages.img`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageExtent {
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
/// real CRIU uses to amortise per-page syscall overhead. Every dump and
/// repack writes it, and reading an image set without it fails.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ExtentsImage {
    /// Coalesced runs in ascending `start_index` order.
    pub extents: Vec<PageExtent>,
}

impl ExtentsImage {
    /// Coalesces a pages image into maximal stored-page runs.
    pub(crate) fn from_pages(pages: &PagesImage) -> ExtentsImage {
        let mut extents: Vec<PageExtent> = Vec::new();
        for (page_index, src) in pages.iter_pages() {
            if !matches!(src, PageSource::Stored(_)) {
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

    /// `encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_LEN + 4 + self.extents.len() * (8 + 4) + CHECKSUM_LEN
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
        let count = r.count(8 + 4)?;
        let mut extents = Vec::with_capacity(count);
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

/// Tag of a listener entry in `files.img`. Tags 0–2 named file and
/// pipe descriptors, which no process can open.
const TAG_LISTENER: u8 = 3;
/// Bytes per `files.img` entry: the `i32` descriptor, the tag and the
/// `u16` port.
const FD_ENTRY_LEN: usize = 4 + 1 + 2;

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
        for (fd, FdEntry::Listener { port }) in &self.fds {
            w.i32(*fd);
            w.u8(TAG_LISTENER);
            w.u16(*port);
        }
        w.finish()
    }

    /// `encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_LEN + 4 + self.fds.len() * FD_ENTRY_LEN + CHECKSUM_LEN
    }

    /// Parses a files image.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`] describing the malformation; an entry tagged as
    /// anything but a listener is [`ImageError::BadTag`].
    pub fn parse(bytes: &[u8]) -> Result<FilesImage, ImageError> {
        let mut r = Reader::open(bytes, KIND_FILES)?;
        let count = r.count(FD_ENTRY_LEN)?;
        let mut fds = Vec::with_capacity(count);
        for _ in 0..count {
            let fd = r.i32()?;
            match r.u8()? {
                TAG_LISTENER => fds.push((fd, FdEntry::Listener { port: r.u16()? })),
                t => return Err(ImageError::BadTag(t)),
            }
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
    pub(crate) core: CoreImage,
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
    /// Coalesced pagemap runs (`extents.img`).
    pub(crate) extents: ExtentsImage,
    /// Compaction fallback layer (`fallback-pagemap.img` +
    /// `fallback-pages.img`): the never-faulted stored pages a
    /// `--compact` repack dropped out of the hot image. Optional; when
    /// present, `pages` holds only the hot working set and a restore
    /// must register these pages for demand paging — each fault into
    /// them pays the kernel's `fault_fallback` penalty.
    pub(crate) fallback: Option<PagesImage>,
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
    /// `extents.img` — the coalesced pagemap runs.
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

    /// Total serialised size across all image files — `ws.img`,
    /// `pagestore.img`, `extents.img` and the compaction fallback layer
    /// included.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.hot_bytes()
            + self.fallback.as_ref().map_or(0, |f| {
                (f.pagemap_encoded_len() + f.pages_encoded_len()) as u64
            })
    }

    /// Bytes on a cold start's critical path: every image file *except*
    /// the compaction fallback layer, which is only opened when a fault
    /// misses the hot set. This is what `--compact` shrinks — and what a
    /// registry tier ships to a node ahead of a start. Equals
    /// [`ImageSet::total_bytes`] for uncompacted sets. Sized by
    /// arithmetic: nothing is encoded.
    pub(crate) fn hot_bytes(&self) -> u64 {
        (self.core.encoded_len()
            + self.mm.encoded_len()
            + self.pages.pagemap_encoded_len()
            + self.pages.pages_encoded_len()
            + self.files.encoded_len()
            + self.ws.as_ref().map_or(0, WsImage::encoded_len)
            + self
                .pagestore
                .as_ref()
                .map_or(0, PageStoreImage::encoded_len)
            + self.extents.encoded_len()) as u64
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
        let mut p = PagesBuilder::default();
        let mut data = Page::zeroed();
        data.bytes_mut()[17] = 0xAB;
        p.push(100, &data);
        p.push(101, &Page::zeroed());
        p.push(102, &data);
        let p = p.finish();
        assert_eq!(p.stored_pages(), 2);
        assert_eq!(p.zero_pages(), 1);

        let back = PagesImage::parse(&p.encode_pagemap(), &p.encode_pages()).unwrap();
        assert_eq!(back, p);
        let collected: Vec<(u64, bool)> = back
            .iter_pages()
            .map(|(i, src)| (i, matches!(src, PageSource::Stored(_))))
            .collect();
        assert_eq!(collected, vec![(100, true), (101, false), (102, true)]);
        let first = back.iter_pages().next().unwrap().1;
        match first {
            PageSource::Stored(first) => assert_eq!(first.bytes()[17], 0xAB),
            other => panic!("expected payload, got {other:?}"),
        };
    }

    #[test]
    fn parent_refs_roundtrip_and_resolve() {
        // Parent holds pages 10 (data) and 11 (zero).
        let mut parent = PagesBuilder::default();
        let mut data = Page::zeroed();
        data.bytes_mut().fill(0x77);
        parent.push(10, &data);
        parent.push(11, &Page::zeroed());
        let parent = parent.finish();

        // Child: page 10 unchanged (parent ref), 11 unchanged (parent
        // ref), 12 freshly written.
        let mut child = PagesBuilder::default();
        child.push_parent_ref(10);
        child.push_parent_ref(11);
        let mut fresh = Page::zeroed();
        fresh.bytes_mut().fill(0x33);
        child.push(12, &fresh);
        let child = child.finish();

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
            .map(|(i, s)| (i, matches!(s, PageSource::Stored(_))))
            .collect();
        assert_eq!(bytes, vec![(10, true), (11, false), (12, true)]);
    }

    #[test]
    fn resolve_missing_parent_page_fails() {
        let mut child = PagesBuilder::default();
        child.push_parent_ref(99);
        let child = child.finish();
        let empty = PagesImage::default();
        assert_eq!(child.resolve_parent(&empty), Err(ImageError::BadPages));
    }

    #[test]
    fn pages_payload_mismatch_detected() {
        let mut p = PagesBuilder::default();
        let mut data = Page::zeroed();
        data.bytes_mut()[0] = 1;
        p.push(5, &data);
        let p = p.finish();
        let pagemap = p.encode_pagemap();
        // Claim the page but strip the payload.
        let empty = PagesImage::default().encode_pages();
        assert_eq!(
            PagesImage::parse(&pagemap, &empty),
            Err(ImageError::BadPages)
        );
    }

    fn sample_files() -> FilesImage {
        FilesImage {
            fds: vec![
                (3, FdEntry::Listener { port: 8080 }),
                (4, FdEntry::Listener { port: 9090 }),
            ],
        }
    }

    #[test]
    fn files_roundtrip() {
        let f = sample_files();
        assert_eq!(FilesImage::parse(&f.encode()).unwrap(), f);
    }

    #[test]
    fn files_image_bytes_are_pinned() {
        // Written when `files.img` still had tags 0-2: a listener entry
        // is the same `i32` fd, tag 3 and `u16` port it was then. Version
        // 3 changed only the version field and the (now XXH64) checksum.
        const FILES: [u8; 33] = [
            0x43, 0x52, 0x49, 0x4D, 0x00, 0x03, 0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
            0x03, 0x03, 0x1F, 0x90, 0x00, 0x00, 0x00, 0x04, 0x03, 0x23, 0x82, 0xCD, 0x69, 0xBD,
            0x76, 0xBA, 0x88, 0x72, 0xFB,
        ];
        assert_eq!(sample_files().encode(), FILES);
        assert_eq!(sample_files().encoded_len(), FILES.len());
    }

    #[test]
    fn files_tags_other_than_listener_are_rejected() {
        // The first entry's tag follows the header, the count and its fd.
        let at = HEADER_LEN + 4 + 4;
        for tag in [0, 1, 2, 4] {
            let mut raw = sample_files().encode();
            raw[at] = tag;
            reseal(&mut raw);
            assert_eq!(FilesImage::parse(&raw), Err(ImageError::BadTag(tag)));
        }
    }

    #[test]
    fn only_the_current_version_parses() {
        for version in [1, 2, IMAGE_VERSION + 1] {
            let mut raw = sample_core().encode();
            raw[4..6].copy_from_slice(&version.to_be_bytes());
            reseal(&mut raw);
            assert_eq!(CoreImage::parse(&raw), Err(ImageError::BadVersion(version)));
        }
    }

    #[test]
    fn version_2_pages_images_are_rejected() {
        let mut one = PagesBuilder::default();
        one.push(0, &filled(0xAA));
        let pagemap = one.finish().encode_pagemap();
        // Version 2 `pages.img` files as that format wrote them: one
        // 0xAA page, and no page, each sealed with FNV-1a over every byte.
        let mut old_one = vec![
            0x43, 0x52, 0x49, 0x4D, 0x00, 0x02, 0x04, 0x00, 0x00, 0x10, 0x00,
        ];
        old_one.extend_from_slice(&[0xAA; PAGE_SIZE]);
        old_one.extend_from_slice(&[0x01, 0x04, 0x19, 0x79, 0xE3, 0xFD, 0xF3, 0x98]);
        let old_empty = vec![
            0x43, 0x52, 0x49, 0x4D, 0x00, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00, 0x83, 0xE8, 0xFB,
            0x71, 0x73, 0xDD, 0xE1, 0x08,
        ];
        let empty_pagemap = PagesImage::default().encode_pagemap();
        for (pagemap, mut old) in [(&pagemap, old_one), (&empty_pagemap, old_empty)] {
            assert_eq!(
                PagesImage::parse(pagemap, &Bytes::from(old.clone())),
                Err(ImageError::BadChecksum)
            );
            reseal_pages(&mut old);
            assert_eq!(
                PagesImage::parse(pagemap, &Bytes::from(old)),
                Err(ImageError::BadVersion(2))
            );
        }
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
        let mut pages = PagesBuilder::default();
        let mut page = Page::zeroed();
        page.bytes_mut().fill(0x5A);
        for i in 0..100 {
            pages.push(i, &page);
        }
        let pages = pages.finish();
        let set = ImageSet {
            core: sample_core(),
            mm: sample_mm(),
            pages,
            files: FilesImage::default(),
            ws: None,
            pagestore: None,
            extents: ExtentsImage::default(),
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
        assert_eq!(ws.pages.len(), 4);
        let back = WsImage::parse(&ws.encode()).unwrap();
        assert_eq!(back, ws);
        assert_eq!(back.pages, vec![900, 3, 77, 12], "fault order kept");

        let empty = WsImage::default();
        assert!(empty.pages.is_empty());
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

    /// Rewrites the trailing checksum of an encoded image to match its
    /// (edited) contents.
    fn reseal(raw: &mut [u8]) {
        let at = raw.len() - CHECKSUM_LEN;
        let sum = xxh64(&raw[..at]);
        raw[at..].copy_from_slice(&sum.to_be_bytes());
    }

    /// [`reseal`] for `pages.img`, whose checksum hashes page hashes.
    fn reseal_pages(raw: &mut [u8]) {
        let at = raw.len() - CHECKSUM_LEN;
        let (sum, _) = pages_sum_with_page_hashes(&raw[..at], PAGES_PAYLOAD_AT);
        raw[at..].copy_from_slice(&sum.to_be_bytes());
    }

    fn filled(fill: u8) -> Page {
        let mut p = Page::zeroed();
        p.bytes_mut().fill(fill);
        p
    }

    #[test]
    fn pagestore_dedups_identical_pages() {
        let mut pages = PagesBuilder::default();
        pages.push(10, &filled(0xAA));
        pages.push(11, &filled(0xBB));
        pages.push(12, &Page::zeroed());
        pages.push(13, &filled(0xAA));
        pages.push(14, &filled(0xAA));
        let pages = pages.finish();

        let store = PageStoreImage::from_pages(&pages).unwrap();
        assert_eq!(store.unique_pages(), 2, "0xAA and 0xBB frames");
        assert_eq!(store.refs.len(), 4, "zero page carries no ref");
        store.verify_against(&pages).unwrap();

        let refs: Vec<(u64, u8)> = store
            .iter_refs(&pages)
            .map(|(idx, _, frame)| (idx, frame.bytes()[0]))
            .collect();
        assert_eq!(refs, vec![(10, 0xAA), (11, 0xBB), (13, 0xAA), (14, 0xAA)]);
        let (_, h13, _) = store.iter_refs(&pages).nth(2).unwrap();
        let (_, h10, _) = store.iter_refs(&pages).next().unwrap();
        assert_eq!(h10, h13, "identical content shares one hash");
    }

    #[test]
    fn pagestore_roundtrip_and_validation() {
        let mut pages = PagesBuilder::default();
        pages.push(1, &filled(1));
        pages.push(2, &filled(2));
        pages.push(3, &filled(1));
        let pages = pages.finish();
        let store = PageStoreImage::from_pages(&pages).unwrap();
        // The encoding is metadata-only; parse checks it against the
        // pages image's page hashes and lands on the identical store.
        assert!(store.encode().len() < PAGE_SIZE, "no payload on disk");
        let back = PageStoreImage::parse(&store.encode(), &pages).unwrap();
        assert_eq!(back, store);

        // Flipping a page byte breaks its frame's declared content hash,
        // even in a pages.img resealed with a matching checksum.
        let mut raw = pages.encode_pages().to_vec();
        raw[PAGES_PAYLOAD_AT + 100] ^= 0xFF;
        reseal_pages(&mut raw);
        let tampered = PagesImage::parse(&pages.encode_pagemap(), &Bytes::from(raw)).unwrap();
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
        let mut other = PagesBuilder::default();
        other.push(1, &filled(7));
        let other = other.finish();
        assert_eq!(store.verify_against(&other), Err(ImageError::BadPageStore));
    }

    #[test]
    fn pagestore_absent_for_incremental_dumps() {
        let mut pages = PagesBuilder::default();
        pages.push(1, &filled(1));
        pages.push_parent_ref(2);
        let pages = pages.finish();
        assert!(PageStoreImage::from_pages(&pages).is_none());
    }

    #[test]
    fn extents_coalesce_stored_runs_only() {
        let mut pages = PagesBuilder::default();
        pages.push(10, &filled(1));
        pages.push(11, &filled(2));
        pages.push(12, &Page::zeroed()); // zero breaks the run
        pages.push(13, &filled(3));
        pages.push(20, &filled(4)); // index gap breaks the run
        pages.push(21, &filled(5));
        let pages = pages.finish();
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
        let mut pages = PagesBuilder::default();
        pages.push(5, &filled(1));
        pages.push_parent_ref(6);
        pages.push(7, &filled(2));
        let pages = pages.finish();
        let ext = ExtentsImage::from_pages(&pages);
        assert_eq!(ext.len(), 2, "parent-deferred page is not in pages.img");
        assert_eq!(ext.extents.iter().map(|e| e.pages as u64).sum::<u64>(), 2);
    }

    #[test]
    fn extents_roundtrip_and_validation() {
        let mut pages = PagesBuilder::default();
        pages.push(1, &filled(1));
        pages.push(2, &filled(2));
        pages.push(9, &filled(3));
        let pages = pages.finish();
        let ext = ExtentsImage::from_pages(&pages);
        let back = ExtentsImage::parse(&ext.encode(), &pages).unwrap();
        assert_eq!(back, ext);

        // An empty table round-trips against an all-zero image.
        let mut zeros = PagesBuilder::default();
        zeros.push(1, &Page::zeroed());
        let zeros = zeros.finish();
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
    fn image_set_charges_pagestore_and_exposes_non_payload_base() {
        let mut pages = PagesBuilder::default();
        for i in 0..8 {
            pages.push(i, &filled(0x11)); // 8 refs, 1 unique frame
        }
        let pages = pages.finish();
        let store = PageStoreImage::from_pages(&pages).unwrap();
        let without = ImageSet {
            core: sample_core(),
            mm: sample_mm(),
            pages,
            files: FilesImage::default(),
            ws: None,
            pagestore: None,
            extents: ExtentsImage::default(),
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

    #[test]
    fn page_hashes_and_checksums_are_xxh64() {
        // Checksums, page hashes, registry manifests and shared-pool keys
        // all depend on these values: XXH64 (seed 0) reference vectors.
        assert_eq!(page_content_hash(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(page_content_hash(b"abc"), 0x44BC_2CF5_AD77_0999);
        let raw = sample_core().encode();
        let (body, sum) = raw.split_at(raw.len() - CHECKSUM_LEN);
        assert_eq!(sum, xxh64(body).to_be_bytes());
    }

    #[test]
    fn fused_pass_handles_empty_and_headless_buffers() {
        let empty = (xxh64(&[]), vec![]);
        assert_eq!(pages_sum_with_page_hashes(&[], 0), empty);
        assert_eq!(pages_sum_with_page_hashes(&[], 11), empty);
        let short = [7u8; 5];
        assert_eq!(
            pages_sum_with_page_hashes(&short, 11),
            (xxh64(&short), vec![])
        );
    }

    proptest::proptest! {
        /// One pass returns the tree sum built page by page (the head,
        /// each whole page's hash in little-endian order, then the ragged
        /// tail) and the content hash of every whole page after `at`; a
        /// payload shorter than a page hashes no page.
        #[test]
        fn fused_pass_matches_separate_hashes(
            at in 0usize..20,
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..3 * PAGE_SIZE + 100),
        ) {
            let (sum, hashes) = pages_sum_with_page_hashes(&bytes, at);
            let (head, body) = bytes.split_at(at.min(bytes.len()));
            let expected: Vec<u64> = body.chunks_exact(PAGE_SIZE).map(page_content_hash).collect();
            let mut tree = head.to_vec();
            for h in &expected {
                tree.extend_from_slice(&h.to_le_bytes());
            }
            tree.extend_from_slice(&body[expected.len() * PAGE_SIZE..]);
            proptest::prop_assert_eq!(sum, xxh64(&tree));
            proptest::prop_assert_eq!(hashes, expected);
        }
    }

    #[test]
    fn encoded_len_matches_encode_for_every_kind() {
        let mut pages = PagesBuilder::default();
        pages.push(1, &filled(1));
        pages.push(2, &Page::zeroed());
        pages.push(3, &filled(1));
        pages.push(4, &filled(2));
        let pages = pages.finish();
        let mut parent_refs = PagesBuilder::default();
        parent_refs.push_parent_ref(7);
        let parent_refs = parent_refs.finish();
        let store = PageStoreImage::from_pages(&pages).unwrap();
        let extents = ExtentsImage::from_pages(&pages);
        let ws = WsImage::from_fault_log(vec![3, 1]);
        let core = sample_core();
        let mm = sample_mm();
        let files = sample_files();

        assert_eq!(core.encoded_len(), core.encode().len());
        assert_eq!(mm.encoded_len(), mm.encode().len());
        assert_eq!(files.encoded_len(), files.encode().len());
        assert_eq!(ws.encoded_len(), ws.encode().len());
        assert_eq!(store.encoded_len(), store.encode().len());
        assert_eq!(extents.encoded_len(), extents.encode().len());
        for p in [&pages, &parent_refs, &PagesImage::default()] {
            assert_eq!(p.pagemap_encoded_len(), p.encode_pagemap().len());
            assert_eq!(p.pages_encoded_len(), p.encode_pages().len());
        }
        let empty = (
            CoreImage {
                comm: String::new(),
                cmdline: vec![],
                threads: vec![],
                ..core.clone()
            },
            MmImage::default(),
            FilesImage::default(),
            WsImage::default(),
            PageStoreImage::default(),
            ExtentsImage::default(),
        );
        assert_eq!(empty.0.encoded_len(), empty.0.encode().len());
        assert_eq!(empty.1.encoded_len(), empty.1.encode().len());
        assert_eq!(empty.2.encoded_len(), empty.2.encode().len());
        assert_eq!(empty.3.encoded_len(), empty.3.encode().len());
        assert_eq!(empty.4.encoded_len(), empty.4.encode().len());
        assert_eq!(empty.5.encoded_len(), empty.5.encode().len());

        // The set's sizes are the sums of its files' encodings.
        let set = ImageSet {
            core,
            mm,
            pages: pages.clone(),
            files,
            ws: Some(ws),
            pagestore: Some(store),
            extents,
            fallback: Some(pages),
        };
        let encoded = |p: &PagesImage| (p.encode_pagemap().len() + p.encode_pages().len()) as u64;
        let hot = (set.core.encode().len()
            + set.mm.encode().len()
            + set.files.encode().len()
            + set.ws.as_ref().unwrap().encode().len()
            + set.pagestore.as_ref().unwrap().encode().len()
            + set.extents.encode().len()) as u64
            + encoded(&set.pages);
        assert_eq!(set.hot_bytes(), hot);
        assert_eq!(
            set.total_bytes(),
            hot + encoded(set.fallback.as_ref().unwrap())
        );
    }
}
