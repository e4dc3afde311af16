//! A counting global allocator: every allocation the benchmark process
//! makes is tallied (count and bytes) so per-op allocation cost can be
//! read at the same boundaries as the host-time spans.
//!
//! The counters are statistics only — they publish no other data — so
//! `Relaxed` ordering is enough. The numbers are diagnostic, not
//! gating: a faster design may allocate more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting each allocation on the way.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one allocator call; charge the new size so
        // a doubling `Vec` counts what it asked for each time.
        count(new_size);
        // SAFETY: `ptr` came from this allocator (i.e. from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Allocator calls and bytes requested since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counters right now.
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation_pattern() {
        // Other test threads allocate concurrently, so the deltas are
        // lower bounds; the pattern is big enough to stand out.
        let before = AllocSnapshot::now();
        let boxes: Vec<Box<[u8; 1024]>> = (0..100).map(|_| Box::new([7u8; 1024])).collect();
        let delta = AllocSnapshot::now().since(before);
        assert_eq!(boxes.len(), 100);
        assert!(delta.allocs >= 101, "100 boxes + the vec: {}", delta.allocs);
        assert!(delta.bytes >= 100 * 1024 + 100 * 8, "{} bytes", delta.bytes);

        let before = AllocSnapshot::now();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend(0..4);
        v.push(4); // forces one realloc
        let delta = AllocSnapshot::now().since(before);
        assert!(delta.allocs >= 2, "alloc + realloc: {}", delta.allocs);
        drop(boxes);
    }
}
