//! Guest memory: pages, virtual memory areas and address spaces.

pub mod page;
pub mod space;
pub mod vma;

pub use page::{Page, PAGE_SIZE};
pub use space::{AddressSpace, TouchStats, MMAP_BASE};
pub use vma::{Prot, VirtAddr, Vma, VmaKind};
