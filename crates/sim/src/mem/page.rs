//! Guest physical pages.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

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
///
/// On the host a page is a refcounted view: either a page-sized window
/// into a shared buffer (a snapshot's `pages.img`, see [`Page::view`]) or
/// a buffer of its own. Cloning bumps a refcount, and the first
/// [`Page::bytes_mut`] on a shared page takes a private copy. This is
/// host bookkeeping only: the model still prices an eager restore as a
/// copy per page and a write to a copy-on-write frame as a break, and
/// neither is counted when the host unshares a buffer.
#[derive(Clone)]
pub struct Page(Backing);

#[derive(Clone)]
enum Backing {
    /// `PAGE_SIZE` bytes of a shared buffer, from `offset` on.
    View { buf: Bytes, offset: usize },
    /// A `PAGE_SIZE` buffer of the page's own, shared only with its
    /// clones.
    Own(Arc<[u8]>),
}

impl Page {
    /// A fresh zero-filled page.
    pub fn zeroed() -> Self {
        static ZERO: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        Page::own(&ZERO)
    }

    /// Builds a page from a full page of bytes.
    #[cfg(test)]
    pub(crate) fn from_bytes(bytes: &[u8; PAGE_SIZE]) -> Self {
        Page::own(bytes)
    }

    /// A page of its own holding a copy of `bytes`: one allocation and
    /// one copy straight from `bytes`.
    fn own(bytes: &[u8; PAGE_SIZE]) -> Self {
        Page(Backing::Own(Arc::from(&bytes[..])))
    }

    /// The page `buf[offset..offset + PAGE_SIZE]`, without copying it.
    ///
    /// # Panics
    ///
    /// If `buf` is shorter than `offset + PAGE_SIZE`.
    pub fn view(buf: &Bytes, offset: usize) -> Self {
        assert!(offset + PAGE_SIZE <= buf.len(), "page view past its buffer");
        Page(Backing::View {
            buf: buf.clone(),
            offset,
        })
    }

    /// Read-only view of the page contents.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        match &self.0 {
            Backing::View { buf, offset } => {
                buf[*offset..].first_chunk().expect("checked by Page::view")
            }
            Backing::Own(own) => own.first_chunk().expect("a page of its own"),
        }
    }

    /// Mutable view of the page contents. A page that shares its buffer
    /// copies it first, so no other page sees the write.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        if let Backing::View { .. } = self.0 {
            *self = Page::own(self.bytes());
        }
        match &mut self.0 {
            Backing::Own(own) => Arc::make_mut(own)
                .first_chunk_mut()
                .expect("a page of its own"),
            Backing::View { .. } => unreachable!("unshared above"),
        }
    }

    /// Whether this page and `other` read through the same host buffer.
    #[cfg(test)]
    pub(crate) fn shares_buffer(&self, other: &[u8]) -> bool {
        std::ptr::eq(self.bytes().as_ptr(), other.as_ptr())
    }

    /// Returns `true` if every byte is zero. The dump path uses this for
    /// zero-page deduplication (CRIU's `zero page` optimisation).
    pub fn is_zero(&self) -> bool {
        // Compare 8 bytes at a time; pages are always 8-aligned in length.
        self.bytes()
            .chunks_exact(8)
            .all(|c| u64::from_ne_bytes(c.try_into().unwrap()) == 0)
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Page {}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes().iter().filter(|&&b| b != 0).count();
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
    fn view_shares_until_written() {
        let raw: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        let buf = Bytes::from(raw.clone());
        let mut page = Page::view(&buf, PAGE_SIZE);
        assert!(
            page.shares_buffer(&buf[PAGE_SIZE..]),
            "a view copies nothing"
        );
        assert_eq!(&page.bytes()[..], &raw[PAGE_SIZE..2 * PAGE_SIZE]);
        let twin = page.clone();
        assert!(
            twin.shares_buffer(&buf[PAGE_SIZE..]),
            "a clone copies nothing"
        );

        page.bytes_mut()[0] ^= 0xFF;
        assert!(!page.shares_buffer(&buf[PAGE_SIZE..]), "a write unshares");
        assert_eq!(page.bytes()[0], raw[PAGE_SIZE] ^ 0xFF);
        assert_eq!(&page.bytes()[1..], &raw[PAGE_SIZE + 1..2 * PAGE_SIZE]);
        assert_eq!(&buf[..], &raw[..], "the source buffer is untouched");
        assert_eq!(&twin.bytes()[..], &raw[PAGE_SIZE..2 * PAGE_SIZE]);
    }

    #[test]
    fn own_page_clones_share_until_written() {
        let mut a = Page::from_bytes(&[4u8; PAGE_SIZE]);
        let b = a.clone();
        assert!(a.shares_buffer(b.bytes()));
        a.bytes_mut()[7] = 5;
        assert!(!a.shares_buffer(b.bytes()));
        assert_eq!(b.bytes(), &[4u8; PAGE_SIZE], "the clone keeps its bytes");
    }

    #[test]
    #[should_panic(expected = "page view past its buffer")]
    fn view_past_the_buffer_panics() {
        Page::view(&Bytes::from(vec![0u8; PAGE_SIZE]), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Page::zeroed());
        assert!(s.contains("Page"));
    }
}
