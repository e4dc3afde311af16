//! Virtual memory areas.

use std::fmt;

use crate::mem::page::PAGE_SIZE;

/// A guest virtual address.
///
/// Newtype over `u64`; arithmetic helpers keep page math in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The page index containing this address.
    pub(crate) const fn page_index(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Offset of this address within its page.
    pub(crate) const fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Returns `true` if the address is page-aligned.
    pub const fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE as u64)
    }

    /// Byte offset addition.
    pub const fn add(self, offset: u64) -> VirtAddr {
        VirtAddr(self.0 + offset)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}", self.0)
    }
}

/// Memory protection bits for a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Prot {
    /// `rw-`
    pub const RW: Prot = Prot {
        read: true,
        write: true,
        exec: false,
    };
    /// `r-x`
    pub const RX: Prot = Prot {
        read: true,
        write: false,
        exec: true,
    };
    /// `rwx`
    pub const RWX: Prot = Prot {
        read: true,
        write: true,
        exec: true,
    };

    /// `/proc/<pid>/maps`-style rendering (`rw-p`).
    pub(crate) fn render(&self) -> String {
        format!(
            "{}{}{}p",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' },
        )
    }
}

impl fmt::Display for Prot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// What backs a mapping. The checkpoint engine treats kinds differently:
/// file-backed clean pages can be re-faulted from the file, while
/// anonymous and dirtied pages must travel in the image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Anonymous memory (heap arenas, malloc'd buffers).
    Anon,
    /// The process stack.
    Stack,
    /// Program text/data mapped from a binary.
    Binary {
        /// Guest path of the executable.
        path: String,
    },
    /// A file mapping (e.g. an application archive mapped by the runtime).
    File {
        /// Guest path of the mapped file.
        path: String,
        /// Byte offset of the mapping within the file.
        offset: u64,
    },
    /// Managed-runtime heap.
    RuntimeHeap,
    /// Managed-runtime metaspace (loaded class representations).
    Metaspace,
    /// JIT code cache.
    CodeCache,
    /// Scratch region injected by the checkpointer (parasite code).
    Parasite,
}

impl VmaKind {
    /// Label rendered in `/proc/<pid>/maps`.
    pub(crate) fn label(&self) -> String {
        match self {
            VmaKind::Anon => String::new(),
            VmaKind::Stack => "[stack]".to_owned(),
            VmaKind::Binary { path } => path.clone(),
            VmaKind::File { path, .. } => path.clone(),
            VmaKind::RuntimeHeap => "[runtime:heap]".to_owned(),
            VmaKind::Metaspace => "[runtime:metaspace]".to_owned(),
            VmaKind::CodeCache => "[runtime:codecache]".to_owned(),
            VmaKind::Parasite => "[criu:parasite]".to_owned(),
        }
    }
}

/// A contiguous mapping in a process address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// First address of the mapping (page-aligned).
    pub start: VirtAddr,
    /// Length in bytes (page-aligned).
    pub len: u64,
    /// Protection bits.
    pub prot: Prot,
    /// Backing kind.
    pub kind: VmaKind,
}

impl Vma {
    /// One-past-the-end address.
    pub(crate) fn end(&self) -> VirtAddr {
        VirtAddr(self.start.0 + self.len)
    }

    /// Number of pages spanned.
    pub(crate) fn page_count(&self) -> u64 {
        self.len / PAGE_SIZE as u64
    }

    /// First page index.
    pub fn first_page(&self) -> u64 {
        self.start.page_index()
    }

    /// Returns `true` if `addr` falls inside this mapping.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Returns `true` if two mappings overlap.
    pub fn overlaps(&self, other: &Vma) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for Vma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:012x}-{:012x} {} {}",
            self.start.0,
            self.end().0,
            self.prot,
            self.kind.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma(start: u64, len: u64) -> Vma {
        Vma {
            start: VirtAddr(start),
            len,
            prot: Prot::RW,
            kind: VmaKind::Anon,
        }
    }

    #[test]
    fn virt_addr_page_math() {
        let a = VirtAddr(0x5003);
        assert_eq!(a.page_index(), 5);
        assert_eq!(a.page_offset(), 3);
        assert!(!a.is_page_aligned());
        assert!(VirtAddr(0x5000).is_page_aligned());
    }

    #[test]
    fn vma_contains() {
        let v = vma(0x1000, 0x2000);
        assert!(v.contains(VirtAddr(0x1000)));
        assert!(v.contains(VirtAddr(0x2FFF)));
        assert!(!v.contains(VirtAddr(0x3000)));
        assert!(!v.contains(VirtAddr(0xFFF)));
    }

    #[test]
    fn vma_overlap() {
        let a = vma(0x1000, 0x2000);
        assert!(a.overlaps(&vma(0x2000, 0x2000)));
        assert!(!a.overlaps(&vma(0x3000, 0x1000)));
        assert!(a.overlaps(&vma(0x0, 0x1001)));
        assert!(!a.overlaps(&vma(0x0, 0x1000)));
    }

    #[test]
    fn prot_renders_like_proc_maps() {
        assert_eq!(Prot::RW.render(), "rw-p");
        assert_eq!(Prot::RX.render(), "r-xp");
        let r = Prot {
            read: true,
            write: false,
            exec: false,
        };
        assert_eq!(r.render(), "r--p");
        assert_eq!(Prot::RWX.render(), "rwxp");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(VmaKind::Stack.label(), "[stack]");
        assert_eq!(
            VmaKind::Binary {
                path: "/bin/jlvm".into()
            }
            .label(),
            "/bin/jlvm"
        );
        assert_eq!(VmaKind::Anon.label(), "");
    }

    #[test]
    fn vma_display_mentions_range() {
        let v = vma(0x1000, 0x1000);
        let s = v.to_string();
        assert!(s.contains("000000001000-000000002000"), "{s}");
        assert!(s.contains("rw-p"));
    }
}
