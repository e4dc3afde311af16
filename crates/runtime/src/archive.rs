//! The JLAR application archive: the deployable artifact holding a
//! function's class files (the "jar" the Function Builder produces).

use std::collections::BTreeMap;
use std::fmt;

use prebake_sim::hash::{xxh64, Xxh64};

use crate::classfile::ClassFile;

/// Format magic: `"JLAR"`.
pub(crate) const ARCHIVE_MAGIC: u32 = 0x4A4C_4152;
/// Current format version. Version 2 moved the trailing checksum from
/// FNV-1a to XXH64.
pub(crate) const ARCHIVE_VERSION: u16 = 2;
/// Bytes before the first entry: magic, version and entry count.
const ARCHIVE_HEADER_LEN: usize = 4 + 2 + 4;
/// Bytes after the last entry: the XXH64 checksum of all before it.
const ARCHIVE_CHECKSUM_LEN: usize = 8;

/// Errors produced while parsing an archive.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArchiveError {
    /// Input ended before a declared structure.
    Truncated,
    /// Magic number mismatch.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
    /// Trailing checksum mismatch.
    BadChecksum,
    /// An entry name was not valid UTF-8.
    BadName,
    /// Two entries share a name.
    DuplicateEntry(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Truncated => write!(f, "archive truncated"),
            ArchiveError::BadMagic(m) => write!(f, "bad archive magic {m:#010x}"),
            ArchiveError::BadVersion(v) => write!(f, "unsupported archive version {v}"),
            ArchiveError::BadChecksum => write!(f, "archive checksum mismatch"),
            ArchiveError::BadName => write!(f, "entry name is not valid utf-8"),
            ArchiveError::DuplicateEntry(name) => write!(f, "duplicate entry {name}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// An in-memory application archive: named class-file entries in
/// insertion order, with an O(log n) name index.
///
/// # Examples
///
/// ```
/// use prebake_runtime::archive::Archive;
/// use prebake_runtime::gen::synth_class;
///
/// let class = synth_class("com.example.Main", 1, 1024);
/// let a = Archive::from_classes([&class]);
/// assert_eq!(a.len(), 1);
/// assert!(a.get("com.example.Main").is_some());
/// assert!(a.encode().len() as u64 > a.payload_bytes(), "framing and checksum");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Archive {
    entries: Vec<(String, Vec<u8>)>,
    index: BTreeMap<String, usize>,
}

impl Archive {
    /// An empty archive.
    pub fn new() -> Self {
        Archive::default()
    }

    /// Adds a raw entry. Replaces any entry with the same name.
    pub fn add(&mut self, name: impl Into<String>, data: Vec<u8>) {
        let name = name.into();
        if let Some(&i) = self.index.get(&name) {
            self.entries[i].1 = data;
        } else {
            self.index.insert(name.clone(), self.entries.len());
            self.entries.push((name, data));
        }
    }

    /// Adds an encoded class file under its class name.
    pub(crate) fn add_class(&mut self, class: &ClassFile) {
        self.add(class.name.clone(), class.encode());
    }

    /// Looks up an entry's bytes by name.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.index.get(name).map(|&i| self.entries[i].1.as_slice())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the archive has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of entry payload sizes.
    pub fn payload_bytes(&self) -> u64 {
        self.entries.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// Serialises the archive (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() as usize + 64);
        out.extend_from_slice(&ARCHIVE_MAGIC.to_be_bytes());
        out.extend_from_slice(&ARCHIVE_VERSION.to_be_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (name, data) in &self.entries {
            out.extend_from_slice(&(name.len() as u16).to_be_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(data);
        }
        let sum = xxh64(&out);
        out.extend_from_slice(&sum.to_be_bytes());
        out
    }

    /// Builds an archive from a set of class files.
    pub fn from_classes<'a>(classes: impl IntoIterator<Item = &'a ClassFile>) -> Archive {
        let mut a = Archive::new();
        for c in classes {
            a.add_class(c);
        }
        a
    }
}

/// Where each entry of an encoded archive lies, without its payload:
/// what the runtime keeps to read class files straight out of the
/// memory-mapped archive.
///
/// # Examples
///
/// ```
/// use prebake_runtime::archive::{Archive, ArchiveIndex};
///
/// let mut a = Archive::new();
/// a.add("x", vec![1, 2, 3]);
/// let bytes = a.encode();
/// let (offset, len) = ArchiveIndex::parse(&bytes).unwrap().entry_offset("x").unwrap();
/// assert_eq!(&bytes[offset as usize..(offset + len) as usize], &[1, 2, 3]);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct ArchiveIndex {
    /// Entry name → `(offset, len)` of its payload in the encoded image.
    spans: BTreeMap<String, (u64, u64)>,
}

impl ArchiveIndex {
    /// Verifies a contiguous archive image's checksum and indexes its
    /// entries; no payload is copied. The one-chunk case of
    /// `ArchiveIndex::parse_chunks`.
    ///
    /// # Errors
    ///
    /// Any [`ArchiveError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<ArchiveIndex, ArchiveError> {
        ArchiveIndex::parse_chunks(&[bytes])
    }

    /// Verifies and indexes an archive image that arrives as consecutive
    /// chunks, such as the page slices `Kernel::mem_view` lends for an
    /// archive mapped in guest memory. The chunks are read in place: the
    /// checksum streams over them, then the entry headers are read and
    /// each payload is skipped, so nothing the size of the archive is
    /// allocated. Offsets in the index count from the image's first byte.
    ///
    /// # Errors
    ///
    /// Any [`ArchiveError`] describing the malformation; a checksum
    /// mismatch is reported before any other.
    pub(crate) fn parse_chunks(chunks: &[&[u8]]) -> Result<ArchiveIndex, ArchiveError> {
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let body_len = total
            .checked_sub(ARCHIVE_CHECKSUM_LEN)
            .filter(|&len| len >= ARCHIVE_HEADER_LEN)
            .ok_or(ArchiveError::Truncated)?;
        let mut image = Cursor::new(chunks, total);
        let mut hasher = Xxh64::new();
        image.take(body_len, |s| hasher.update(s))?;
        if hasher.digest() != u64::from_be_bytes(image.array()?) {
            return Err(ArchiveError::BadChecksum);
        }

        let mut r = Cursor::new(chunks, body_len);
        let magic = u32::from_be_bytes(r.array()?);
        if magic != ARCHIVE_MAGIC {
            return Err(ArchiveError::BadMagic(magic));
        }
        let version = u16::from_be_bytes(r.array()?);
        if version != ARCHIVE_VERSION {
            return Err(ArchiveError::BadVersion(version));
        }
        let count = u32::from_be_bytes(r.array()?);
        let mut spans = BTreeMap::new();
        for _ in 0..count {
            let name_len = u16::from_be_bytes(r.array()?) as usize;
            let mut name = Vec::with_capacity(name_len);
            r.take(name_len, |s| name.extend_from_slice(s))?;
            let data_len = u32::from_be_bytes(r.array()?) as usize;
            let name = String::from_utf8(name).map_err(|_| ArchiveError::BadName)?;
            let offset = body_len - r.left;
            r.take(data_len, |_| {})?;
            if spans.contains_key(&name) {
                return Err(ArchiveError::DuplicateEntry(name));
            }
            spans.insert(name, (offset as u64, data_len as u64));
        }
        if r.left != 0 {
            return Err(ArchiveError::Truncated);
        }
        Ok(ArchiveIndex { spans })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if the archive image holds no entries.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Byte range `(offset, len)` of an entry's payload within the
    /// encoded archive image.
    pub fn entry_offset(&self, name: &str) -> Option<(u64, u64)> {
        self.spans.get(name).copied()
    }
}

/// A read position in an archive image that arrives as consecutive
/// chunks, limited to its first `left` bytes.
struct Cursor<'a> {
    chunks: std::slice::Iter<'a, &'a [u8]>,
    current: &'a [u8],
    left: usize,
}

impl<'a> Cursor<'a> {
    fn new(chunks: &'a [&'a [u8]], len: usize) -> Self {
        Cursor {
            chunks: chunks.iter(),
            current: &[],
            left: len,
        }
    }

    /// Passes the next `n` bytes to `f`, one slice per chunk they span.
    fn take(&mut self, mut n: usize, mut f: impl FnMut(&'a [u8])) -> Result<(), ArchiveError> {
        self.left = self.left.checked_sub(n).ok_or(ArchiveError::Truncated)?;
        while n > 0 {
            if self.current.is_empty() {
                self.current = self.chunks.next().expect("`left` counts chunk bytes");
                continue;
            }
            let (now, rest) = self.current.split_at(n.min(self.current.len()));
            f(now);
            self.current = rest;
            n -= now.len();
        }
        Ok(())
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ArchiveError> {
        let (mut out, mut at) = ([0u8; N], 0);
        self.take(N, |s| {
            out[at..at + s.len()].copy_from_slice(s);
            at += s.len();
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::synth_class_set;

    fn sample() -> Archive {
        let classes = synth_class_set("pkg", 11, 5, 20_000);
        Archive::from_classes(&classes)
    }

    #[test]
    fn roundtrip() {
        let a = sample();
        let bytes = a.encode();
        let index = ArchiveIndex::parse(&bytes).unwrap();
        assert_eq!(index.len(), 5);
        for (name, data) in &a.entries {
            let (off, len) = index.entry_offset(name).unwrap();
            assert_eq!(&bytes[off as usize..(off + len) as usize], &data[..]);
        }
    }

    #[test]
    fn get_by_name() {
        let a = sample();
        let name = a
            .entries
            .iter()
            .map(|(n, _)| n.as_str())
            .next()
            .unwrap()
            .to_owned();
        assert!(a.get(&name).is_some());
        assert!(a.get("no.such.Class").is_none());
    }

    #[test]
    fn add_replaces_same_name() {
        let mut a = Archive::new();
        a.add("x", vec![1]);
        a.add("x", vec![2, 3]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get("x").unwrap(), &[2, 3]);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x55;
        assert_eq!(ArchiveIndex::parse(&bytes), Err(ArchiveError::BadChecksum));
    }

    #[test]
    fn truncated_detected() {
        let bytes = sample().encode();
        assert_eq!(
            ArchiveIndex::parse(&bytes[..10]),
            Err(ArchiveError::Truncated)
        );
    }

    #[test]
    fn empty_archive_roundtrip() {
        let a = Archive::new();
        assert!(a.is_empty());
        assert!(ArchiveIndex::parse(&a.encode()).unwrap().is_empty());
        assert_eq!(a.payload_bytes(), 0);
    }

    #[test]
    fn payload_bytes_counts_entries_only() {
        let mut a = Archive::new();
        a.add("a", vec![0; 100]);
        a.add("b", vec![0; 50]);
        assert_eq!(a.payload_bytes(), 150);
        assert!(a.encode().len() > 150, "encoding adds framing");
    }

    #[test]
    fn entry_offset_points_at_payload() {
        let a = sample();
        let encoded = a.encode();
        let index = ArchiveIndex::parse(&encoded).unwrap();
        assert_eq!(index.len(), a.len());
        for name in a.entries.iter().map(|(n, _)| n.as_str()) {
            let (off, len) = index.entry_offset(name).unwrap();
            let slice = &encoded[off as usize..(off + len) as usize];
            assert_eq!(slice, a.get(name).unwrap(), "offset wrong for {name}");
        }
        assert!(index.entry_offset("missing").is_none());
    }

    /// Rewrites an encoded archive's trailing checksum to match its
    /// (edited) contents.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - ARCHIVE_CHECKSUM_LEN;
        let sum = xxh64(&bytes[..at]);
        bytes[at..].copy_from_slice(&sum.to_be_bytes());
    }

    #[test]
    fn only_the_current_version_parses() {
        for version in [1, ARCHIVE_VERSION + 1] {
            let mut bytes = sample().encode();
            bytes[4..6].copy_from_slice(&version.to_be_bytes());
            reseal(&mut bytes);
            assert_eq!(
                ArchiveIndex::parse(&bytes),
                Err(ArchiveError::BadVersion(version))
            );
        }
    }

    #[test]
    fn duplicate_entries_are_rejected() {
        let mut a = Archive::new();
        a.add("x", vec![1]);
        a.add("y", vec![2]);
        let mut bytes = a.encode();
        // Rename "y" to "x": the second entry's one-byte name follows the
        // header, the first entry (2 + 1 + 4 + 1 bytes) and its own
        // two-byte name length.
        bytes[ARCHIVE_HEADER_LEN + 8 + 2] = b'x';
        reseal(&mut bytes);
        assert_eq!(
            ArchiveIndex::parse(&bytes),
            Err(ArchiveError::DuplicateEntry("x".into()))
        );
    }

    proptest::proptest! {
        /// Any split of an image into chunks indexes like the contiguous
        /// image, and a flipped byte is caught wherever the cuts fall.
        #[test]
        fn chunked_parse_matches_contiguous(
            cuts in proptest::collection::vec(0usize..20_000, 0..8),
            flip in 0usize..20_000,
        ) {
            let mut bytes = sample().encode();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % bytes.len()).collect();
            cuts.sort_unstable();
            let chunked = |bytes: &[u8]| {
                let mut chunks = Vec::new();
                let mut at = 0;
                for &cut in &cuts {
                    chunks.push(&bytes[at..cut]);
                    at = cut;
                }
                chunks.push(&bytes[at..]);
                ArchiveIndex::parse_chunks(&chunks)
            };
            proptest::prop_assert_eq!(chunked(&bytes), Ok(ArchiveIndex::parse(&bytes).unwrap()));
            let flip = flip % bytes.len();
            bytes[flip] ^= 0x20;
            proptest::prop_assert!(chunked(&bytes).is_err(), "flip at {} undetected", flip);
        }
    }

    #[test]
    fn classes_parse_back_from_archive() {
        let classes = synth_class_set("pkg2", 3, 4, 8_000);
        let a = Archive::from_classes(&classes);
        for c in &classes {
            let bytes = a.get(&c.name).unwrap();
            let parsed = crate::classfile::ClassFile::parse(bytes).unwrap();
            assert_eq!(&parsed, c);
        }
    }
}
