//! Content-addressed image manifests.
//!
//! A manifest describes one function's snapshot image the way the
//! registry stores it: a list of unique page-frame content hashes (the
//! same XXH64 `page_content_hash` keys `pagestore.img` and the
//! machine-wide shared pool use) plus the non-page metadata bytes (core,
//! mm, fds, pagemap, extent table). Transfers are frame-granular: a node that
//! already holds a frame — from *any* image — never fetches it again.

use std::collections::BTreeSet;

use prebake_criu::image::page_content_hash;
use prebake_sim::mem::PAGE_SIZE;

/// The registry's view of one snapshot image: an id, the content hashes
/// of its unique page frames, and its non-page metadata size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageManifest {
    id: String,
    /// Unique frame hashes, ascending (set semantics; order carries no
    /// layout information at the registry tier).
    frame_hashes: Vec<u64>,
    metadata_bytes: u64,
}

impl ImageManifest {
    /// Builds a manifest from raw parts. Duplicate hashes collapse.
    pub(crate) fn new(
        id: impl Into<String>,
        hashes: impl IntoIterator<Item = u64>,
        metadata_bytes: u64,
    ) -> ImageManifest {
        let set: BTreeSet<u64> = hashes.into_iter().collect();
        ImageManifest {
            id: id.into(),
            frame_hashes: set.into_iter().collect(),
            metadata_bytes,
        }
    }

    /// A deterministic synthetic manifest of roughly `image_bytes`,
    /// where `shared_fraction` of the frames come from a runtime-wide
    /// base pool common to *every* synthetic manifest (the warm JLVM
    /// pages all functions share) and the rest are unique to `(id,
    /// seed)`. This is the shape HotSwap measures in production images:
    /// most bytes are the runtime, a thin layer is the function.
    pub fn synthetic(
        id: impl Into<String>,
        image_bytes: u64,
        shared_fraction: f64,
        seed: u64,
    ) -> ImageManifest {
        let id = id.into();
        let frames = (image_bytes / PAGE_SIZE as u64) as usize;
        let metadata_bytes = image_bytes % PAGE_SIZE as u64;
        let shared = (frames as f64 * shared_fraction.clamp(0.0, 1.0)).round() as usize;
        let mut hashes = Vec::with_capacity(frames);
        for i in 0..shared {
            hashes.push(synthetic_frame_hash("runtime-base", 0, i as u64));
        }
        for i in 0..frames - shared {
            hashes.push(synthetic_frame_hash(&id, seed, i as u64));
        }
        ImageManifest::new(id, hashes, metadata_bytes)
    }

    /// The image id (function name, or `function@version`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Unique frame hashes, ascending.
    pub(crate) fn frame_hashes(&self) -> &[u64] {
        &self.frame_hashes
    }

    /// Number of unique frames.
    pub fn frame_count(&self) -> usize {
        self.frame_hashes.len()
    }

    /// Bytes of unique frame payload.
    pub(crate) fn frame_bytes(&self) -> u64 {
        (self.frame_hashes.len() * PAGE_SIZE) as u64
    }

    /// Non-page metadata bytes (always fetched, never deduped).
    pub(crate) fn metadata_bytes(&self) -> u64 {
        self.metadata_bytes
    }

    /// Total bytes a node with an empty cache must transfer.
    pub fn total_bytes(&self) -> u64 {
        self.metadata_bytes + self.frame_bytes()
    }
}

/// Content hash of a synthetic frame: the XXH64 `page_content_hash`
/// over a page filled with the `(tag, seed, index)` pattern —
/// collision-free in practice and identical across processes and runs.
fn synthetic_frame_hash(tag: &str, seed: u64, index: u64) -> u64 {
    let mut page = [0u8; 64];
    let tag_bytes = tag.as_bytes();
    let n = tag_bytes.len().min(48);
    page[..n].copy_from_slice(&tag_bytes[..n]);
    page[48..56].copy_from_slice(&seed.to_be_bytes());
    page[56..64].copy_from_slice(&index.to_be_bytes());
    page_content_hash(&page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_dedups_and_sorts() {
        let m = ImageManifest::new("f", [3, 1, 3, 2, 1], 100);
        assert_eq!(m.frame_hashes(), &[1, 2, 3]);
        assert_eq!(m.frame_count(), 3);
        assert_eq!(m.metadata_bytes(), 100);
        assert_eq!(m.total_bytes(), 100 + 3 * PAGE_SIZE as u64);
        assert_eq!(m.id(), "f");
    }

    #[test]
    fn synthetic_is_deterministic_and_shares_the_base() {
        let a = ImageManifest::synthetic("fn-a", 40 << 20, 0.6, 7);
        let a2 = ImageManifest::synthetic("fn-a", 40 << 20, 0.6, 7);
        assert_eq!(a, a2, "same inputs, same manifest");

        let b = ImageManifest::synthetic("fn-b", 40 << 20, 0.6, 7);
        assert_ne!(a, b);
        let set_a: BTreeSet<u64> = a.frame_hashes().iter().copied().collect();
        let shared = b
            .frame_hashes()
            .iter()
            .filter(|h| set_a.contains(h))
            .count();
        // 60% of frames come from the common runtime base.
        let expect = (a.frame_count() as f64 * 0.6).round() as usize;
        assert_eq!(shared, expect, "base frames are common across functions");

        // A different seed moves the unique frames, not the base.
        let a_reseeded = ImageManifest::synthetic("fn-a", 40 << 20, 0.6, 8);
        let still_shared = a_reseeded
            .frame_hashes()
            .iter()
            .filter(|h| set_a.contains(h))
            .count();
        assert_eq!(still_shared, expect);
    }

    #[test]
    fn synthetic_sizes_add_up() {
        let m = ImageManifest::synthetic("f", (10 << 20) + 123, 0.5, 1);
        assert_eq!(m.total_bytes(), 10 << 20 | 123);
        assert_eq!(m.metadata_bytes(), 123);
        // Fraction clamps.
        let all = ImageManifest::synthetic("f", 1 << 20, 2.0, 1);
        let none = ImageManifest::synthetic("g", 1 << 20, -1.0, 1);
        assert_eq!(all.frame_count(), none.frame_count());
    }
}
