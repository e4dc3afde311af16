//! Parser fuzzing for the image read path.
//!
//! Truncated, bit-flipped and mutated-then-resealed `pagemap.img`,
//! `pages.img`, `pagestore.img` and `extents.img` bytes go through
//! `read_images` (eager and lazy) on a sim kernel, and through
//! `PagesImage::parse` / `PageStoreImage::parse`. Truncations, bit flips
//! and edits the cross-checks cover must come back as `Err`; a resealed
//! edit the format cannot tell from a real image may parse, but then its
//! payload view must lie inside the file it came from. Nothing may panic.

use bytes::Bytes;
use proptest::prelude::*;

use prebake_criu::dump::{dump, read_images, read_images_lazy, DumpOptions};
use prebake_criu::image::{page_content_hash, ImageError, ImageSet, PageStoreImage, PagesImage};
use prebake_sim::error::Errno;
use prebake_sim::hash::xxh64;
use prebake_sim::kernel::{Kernel, INIT_PID};
use prebake_sim::mem::{Prot, VmaKind, PAGE_SIZE};

const DIR: &str = "/img";
const PAGEMAP: &str = ImageSet::PAGEMAP_NAME;
const PAGES: &str = ImageSet::PAGES_NAME;
const PAGESTORE: &str = "pagestore.img";
const EXTENTS: &str = "extents.img";
const FUZZED: [&str; 4] = [PAGEMAP, PAGES, PAGESTORE, EXTENTS];

/// Magic, version and kind tag open every image file.
const HEADER: usize = 7;
/// `pages.img` payload offset: the header, then the payload's `u32` length.
const PAYLOAD_AT: usize = HEADER + 4;
/// Every image file ends in an 8-byte checksum.
const CHECKSUM: usize = 8;

/// A kernel with one process dumped into [`DIR`]: two identical pages,
/// two distinct ones, a resident zero page and an index gap, so every
/// fuzzed file has entries, frames and more than one extent.
fn dumped() -> Kernel {
    let mut k = Kernel::free(7);
    let tracer = k.sys_clone(INIT_PID).unwrap();
    let target = k.sys_clone(INIT_PID).unwrap();
    let addr = k
        .sys_mmap(target, 8 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
        .unwrap();
    for (page, fill) in [(0u64, 0xAA), (1, 0xAA), (2, 0xBB), (5, 0xCC)] {
        k.mem_write(
            target,
            addr.add(page * PAGE_SIZE as u64),
            &[fill; PAGE_SIZE],
        )
        .unwrap();
    }
    k.mem_write(target, addr.add(3 * PAGE_SIZE as u64), &[0u8; 8])
        .unwrap();
    k.sys_listen(target, 8080).unwrap();
    dump(&mut k, tracer, &DumpOptions::new(target, DIR)).unwrap();
    k
}

fn path(name: &str) -> String {
    format!("{DIR}/{name}")
}

fn file(k: &mut Kernel, name: &str) -> Vec<u8> {
    k.fs_mut().read_file(&path(name)).unwrap().0.to_vec()
}

fn put(k: &mut Kernel, name: &str, bytes: Vec<u8>) {
    k.fs_mut().write_file(&path(name), bytes).unwrap();
}

/// Recomputes the trailing checksum of the edited image file `name`:
/// XXH64 over everything before it, except in `pages.img`, whose sum is
/// XXH64 over the bytes before the payload, each whole page's
/// `page_content_hash` (little-endian), then any ragged tail.
fn reseal(name: &str, raw: &mut [u8]) {
    let at = raw.len() - CHECKSUM;
    let body = &raw[..at];
    let sum = if name == PAGES {
        let (head, payload) = body.split_at(PAYLOAD_AT.min(at));
        let pages = payload.chunks_exact(PAGE_SIZE);
        let mut tree = head.to_vec();
        let tail = pages.remainder();
        for page in pages {
            tree.extend_from_slice(&page_content_hash(page).to_le_bytes());
        }
        tree.extend_from_slice(tail);
        xxh64(&tree)
    } else {
        xxh64(body)
    };
    raw[at..].copy_from_slice(&sum.to_be_bytes());
}

/// Index `at` (in `[0, 1)`) of the way into `len` bytes.
fn pick(len: usize, at: f64) -> usize {
    ((len as f64 * at) as usize).min(len - 1)
}

fn both_reads_fail(k: &mut Kernel) -> bool {
    read_images(k, DIR).is_err() && read_images_lazy(k, DIR).is_err()
}

/// An image that parsed must view its payload inside the `pages.img`
/// bytes the filesystem holds, one page per stored entry.
fn assert_view_in_bounds(k: &mut Kernel, set: &ImageSet) {
    let (pages, _) = k.fs_mut().read_file(&path(PAGES)).unwrap();
    let file = pages.as_ptr_range();
    let view = set.pages.payload().as_ptr_range();
    assert!(file.start <= view.start && view.end <= file.end);
    assert_eq!(
        set.pages.payload().len(),
        set.pages.stored_pages() * PAGE_SIZE
    );
    if let Some(store) = &set.pagestore {
        assert_eq!(store.refs.len(), set.pages.stored_pages());
        let _ = store.verify_against(&set.pages);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A file cut short anywhere fails the read in both modes.
    #[test]
    fn truncated_images_are_rejected(which in 0usize..4, keep in 0.0f64..1.0) {
        let mut k = dumped();
        let name = FUZZED[which];
        let raw = file(&mut k, name);
        let cut = pick(raw.len(), keep);
        put(&mut k, name, raw[..cut].to_vec());
        prop_assert!(both_reads_fail(&mut k));
    }

    /// The two parsers reject truncated input directly, too.
    #[test]
    fn parsers_reject_truncated_input(keep in 0.0f64..1.0) {
        let mut k = dumped();
        let pagemap = file(&mut k, PAGEMAP);
        let pages = file(&mut k, PAGES);
        let store = file(&mut k, PAGESTORE);
        let whole = Bytes::from(pages.clone());
        let short = Bytes::from(pages[..pick(pages.len(), keep)].to_vec());
        prop_assert!(PagesImage::parse(&pagemap[..pick(pagemap.len(), keep)], &whole).is_err());
        prop_assert!(PagesImage::parse(&pagemap, &short).is_err());
        let image = PagesImage::parse(&pagemap, &whole).unwrap();
        prop_assert!(PageStoreImage::parse(&store[..pick(store.len(), keep)], &image).is_err());
    }

    /// One flipped bit anywhere, checksum included, fails the read.
    #[test]
    fn bit_flips_are_rejected(which in 0usize..4, at in 0.0f64..1.0, bit in 0u8..8) {
        let mut k = dumped();
        let name = FUZZED[which];
        let mut raw = file(&mut k, name);
        let i = pick(raw.len(), at);
        raw[i] ^= 1 << bit;
        put(&mut k, name, raw);
        prop_assert!(both_reads_fail(&mut k));
    }

    /// Edits resealed with a valid checksum reach the structural checks:
    /// they may be rejected or (when the format cannot tell) accepted,
    /// but never panic or view bytes outside the file.
    #[test]
    fn resealed_edits_never_panic(
        which in 0usize..4,
        edits in prop::collection::vec((0.0f64..1.0, 1u8..=255), 1..4),
    ) {
        let mut k = dumped();
        let name = FUZZED[which];
        let mut raw = file(&mut k, name);
        let body = raw.len() - CHECKSUM;
        for (at, x) in edits {
            raw[pick(body, at)] ^= x;
        }
        reseal(name, &mut raw);
        put(&mut k, name, raw);
        let reads = [read_images(&mut k, DIR), read_images_lazy(&mut k, DIR)];
        for set in reads.into_iter().flatten() {
            assert_view_in_bounds(&mut k, &set);
        }
    }

    /// A resealed edit to stored page bytes leaves a well-formed
    /// `pages.img` whose page no longer hashes to its declared frame.
    #[test]
    fn resealed_page_edits_break_the_frame_hash(at in 0.0f64..1.0, x in 1u8..=255) {
        let mut k = dumped();
        let mut raw = file(&mut k, PAGES);
        let i = PAYLOAD_AT + pick(raw.len() - PAYLOAD_AT - CHECKSUM, at);
        raw[i] ^= x;
        reseal(PAGES, &mut raw);
        let pages = PagesImage::parse(&file(&mut k, PAGEMAP), &Bytes::from(raw.clone())).unwrap();
        prop_assert_eq!(
            PageStoreImage::parse(&file(&mut k, PAGESTORE), &pages),
            Err(ImageError::BadPageStore)
        );
        put(&mut k, PAGES, raw);
        prop_assert!(both_reads_fail(&mut k));
    }
}

#[test]
fn declared_pages_length_must_match_the_file() {
    let mut k = dumped();
    let pagemap = file(&mut k, PAGEMAP);
    let raw = file(&mut k, PAGES);
    let len = u32::from_be_bytes(raw[HEADER..PAYLOAD_AT].try_into().unwrap());
    for declared in [0, len - 1, len + 1, len + PAGE_SIZE as u32, u32::MAX] {
        let mut bad = raw.clone();
        bad[HEADER..PAYLOAD_AT].copy_from_slice(&declared.to_be_bytes());
        reseal(PAGES, &mut bad);
        assert_eq!(
            PagesImage::parse(&pagemap, &Bytes::from(bad.clone())),
            Err(ImageError::Truncated),
            "declared {declared} of {len}"
        );
        put(&mut k, PAGES, bad);
        assert!(both_reads_fail(&mut k));
    }
}

#[test]
fn payload_must_be_whole_pages_matching_the_pagemap() {
    let mut k = dumped();
    let pagemap = file(&mut k, PAGEMAP);
    let raw = file(&mut k, PAGES);
    let len = raw.len() - PAYLOAD_AT - CHECKSUM;
    for extra in [1, 100, PAGE_SIZE] {
        let mut bad = raw[..PAYLOAD_AT + len].to_vec();
        bad.extend(std::iter::repeat_n(0x5A, extra + CHECKSUM));
        bad[HEADER..PAYLOAD_AT].copy_from_slice(&((len + extra) as u32).to_be_bytes());
        reseal(PAGES, &mut bad);
        assert_eq!(
            PagesImage::parse(&pagemap, &Bytes::from(bad.clone())),
            Err(ImageError::BadPages),
            "{extra} extra bytes"
        );
        put(&mut k, PAGES, bad);
        assert!(both_reads_fail(&mut k));
    }
}

#[test]
fn frame_index_past_the_frame_table_is_rejected() {
    let mut k = dumped();
    let pages =
        PagesImage::parse(&file(&mut k, PAGEMAP), &Bytes::from(file(&mut k, PAGES))).unwrap();
    let raw = file(&mut k, PAGESTORE);
    let frames = u32::from_be_bytes(raw[HEADER..HEADER + 4].try_into().unwrap());
    assert_eq!(frames, 3, "0xAA, 0xBB and 0xCC frames");
    // After the frame hashes and the reference count: the first
    // reference's page index, then its frame index.
    let first_ref_frame = HEADER + 4 + 8 * frames as usize + 4 + 8;
    for frame in [frames, frames + 1, u32::MAX] {
        let mut bad = raw.clone();
        bad[first_ref_frame..first_ref_frame + 4].copy_from_slice(&frame.to_be_bytes());
        reseal(PAGESTORE, &mut bad);
        assert_eq!(
            PageStoreImage::parse(&bad, &pages),
            Err(ImageError::BadPageStore),
            "frame {frame} of {frames}"
        );
        put(&mut k, PAGESTORE, bad);
        assert!(both_reads_fail(&mut k));
    }
}

/// The parsed payload is a view into the very buffer the sim filesystem
/// holds for `pages.img`, in both read modes: between its header and
/// its checksum, never a copy.
#[test]
fn parsed_payload_shares_the_file_buffer() {
    let mut k = dumped();
    let (pages, _) = k.fs_mut().read_file(&path(PAGES)).unwrap();
    let file = pages.as_ptr_range();
    for set in [
        read_images(&mut k, DIR).unwrap(),
        read_images_lazy(&mut k, DIR).unwrap(),
    ] {
        let view = set.pages.payload().as_ptr_range();
        assert_eq!(view.start, file.start.wrapping_add(PAYLOAD_AT));
        assert_eq!(view.end, file.end.wrapping_sub(CHECKSUM));
        assert_eq!(set.pages.stored_pages(), 4);
    }
}

/// Only the current format version reads: a version-1 header on any
/// image file is `Einval` in both read modes.
#[test]
fn version_1_images_are_rejected() {
    for name in [ImageSet::CORE_NAME, PAGEMAP, PAGES, ImageSet::FILES_NAME] {
        let mut k = dumped();
        let mut raw = file(&mut k, name);
        raw[4..6].copy_from_slice(&1u16.to_be_bytes());
        reseal(name, &mut raw);
        put(&mut k, name, raw);
        assert_eq!(
            read_images(&mut k, DIR).unwrap_err(),
            Errno::Einval,
            "{name}"
        );
        assert_eq!(
            read_images_lazy(&mut k, DIR).unwrap_err(),
            Errno::Einval,
            "{name}"
        );
    }
}
