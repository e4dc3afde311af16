//! Guest physical pages.

use std::fmt;

/// Size of a guest page in bytes (matches Linux on x86-64).
pub const PAGE_SIZE: usize = 4096;

/// Rounds `len` up to a whole number of pages.
pub(crate) const fn pages_for(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE as u64)
}

/// A 4 KiB guest page with real backing bytes.
///
/// Pages materialise on first write (anonymous memory reads as zeros until
/// then), exactly like demand-zero faulting. The checkpoint engine walks
/// materialised pages only — the same visibility `/proc/<pid>/pagemap`
/// gives the real CRIU.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A fresh zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Builds a page from a full page of bytes.
    pub fn from_bytes(bytes: &[u8; PAGE_SIZE]) -> Self {
        Page {
            data: Box::new(*bytes),
        }
    }

    /// Read-only view of the page contents.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the page contents.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Returns `true` if every byte is zero. The dump path uses this for
    /// zero-page deduplication (CRIU's `zero page` optimisation).
    pub fn is_zero(&self) -> bool {
        // Compare 8 bytes at a time; pages are always 8-aligned in length.
        self.data
            .chunks_exact(8)
            .all(|c| u64::from_ne_bytes(c.try_into().unwrap()) == 0)
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.data.iter().filter(|&&b| b != 0).count();
        write!(f, "Page {{ nonzero_bytes: {nonzero} }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        assert!(Page::zeroed().is_zero());
    }

    #[test]
    fn written_page_is_not_zero() {
        let mut p = Page::zeroed();
        p.bytes_mut()[100] = 1;
        assert!(!p.is_zero());
        p.bytes_mut()[100] = 0;
        assert!(p.is_zero());
    }

    #[test]
    fn last_byte_detected() {
        let mut p = Page::zeroed();
        p.bytes_mut()[PAGE_SIZE - 1] = 0xFF;
        assert!(!p.is_zero());
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut raw = [0u8; PAGE_SIZE];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let p = Page::from_bytes(&raw);
        assert_eq!(p.bytes(), &raw);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE as u64), 1);
        assert_eq!(pages_for(PAGE_SIZE as u64 + 1), 2);
        assert_eq!(pages_for(10 * PAGE_SIZE as u64), 10);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Page::zeroed());
        assert!(s.contains("Page"));
    }
}
