//! Property tests for the memory and filesystem substrates.

use proptest::prelude::*;

use prebake_sim::error::Errno;
use prebake_sim::fs::SimFs;
use prebake_sim::mem::{AddressSpace, Prot, VirtAddr, VmaKind, PAGE_SIZE};

proptest! {
    /// Any interleaving of mmap/munmap keeps the VMA set overlap-free.
    #[test]
    fn address_space_never_overlaps(ops in prop::collection::vec((0u8..3, 1u64..200_000), 1..60)) {
        let mut space = AddressSpace::new();
        let mut starts: Vec<VirtAddr> = Vec::new();
        for (op, len) in ops {
            match op {
                0 => {
                    let addr = space.mmap(len, Prot::RW, VmaKind::Anon).unwrap();
                    starts.push(addr);
                }
                1 if !starts.is_empty() => {
                    let victim = starts.remove((len as usize) % starts.len());
                    space.munmap(victim).unwrap();
                }
                _ => {
                    // fixed mapping in a private window derived from len
                    let base = 0x4000_0000_0000 + (len % 512) * 0x100_000;
                    if space.mmap_fixed(VirtAddr(base), len, Prot::RW, VmaKind::Anon).is_ok() {
                        starts.push(VirtAddr(base));
                    }
                }
            }
            let vmas: Vec<_> = space.vmas().cloned().collect();
            for (i, a) in vmas.iter().enumerate() {
                for b in &vmas[i + 1..] {
                    prop_assert!(!a.overlaps(b), "{a} overlaps {b}");
                }
            }
        }
    }

    /// Writes followed by reads always round-trip, at any offset/length.
    #[test]
    fn memory_write_read_roundtrip(
        offset in 0u64..10_000,
        data in prop::collection::vec(any::<u8>(), 1..20_000),
    ) {
        let mut space = AddressSpace::new();
        let base = space.mmap(64 << 10, Prot::RW, VmaKind::Anon).unwrap();
        space.write(base.add(offset), &data).unwrap();
        let (back, _) = space.read(base.add(offset), data.len() as u64).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Resident page count equals the number of distinct pages written.
    #[test]
    fn resident_pages_counted_exactly(pages in prop::collection::btree_set(0u64..64, 1..32)) {
        let mut space = AddressSpace::new();
        let base = space.mmap(64 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon).unwrap();
        for &p in &pages {
            space.write(base.add(p * PAGE_SIZE as u64), &[1u8]).unwrap();
        }
        prop_assert_eq!(space.resident_pages(), pages.len() as u64);
    }

    /// The filesystem accepts any create/write/read/remove sequence
    /// without panicking, and reads always return the latest write.
    #[test]
    fn simfs_last_write_wins(
        names in prop::collection::vec("[a-z]{1,8}", 1..10),
        writes in prop::collection::vec((0usize..10, prop::collection::vec(any::<u8>(), 0..512)), 1..30),
    ) {
        let mut fs = SimFs::new();
        fs.create_dir_all("/d").unwrap();
        let mut expected: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
        for (idx, data) in writes {
            let name = &names[idx % names.len()];
            let path = format!("/d/{name}");
            fs.write_file(&path, data.clone()).unwrap();
            expected.insert(path, data);
        }
        for (path, data) in &expected {
            let (got, _) = fs.read_file(path).unwrap();
            prop_assert_eq!(&got[..], &data[..]);
        }
    }

    /// drop_caches never changes contents, only cache state.
    #[test]
    fn drop_caches_preserves_contents(data in prop::collection::vec(any::<u8>(), 1..2048)) {
        let mut fs = SimFs::new();
        fs.write_file("/f", data.clone()).unwrap();
        fs.drop_caches();
        let (got, cached) = fs.read_file("/f").unwrap();
        prop_assert!(!cached);
        prop_assert_eq!(&got[..], &data[..]);
    }

    /// Reading unmapped addresses always faults, never panics.
    #[test]
    fn unmapped_reads_fault(addr in 0u64..1 << 40, len in 1u64..4096) {
        let space = AddressSpace::new();
        prop_assert_eq!(space.read(VirtAddr(addr), len).unwrap_err(), Errno::Efault);
    }
}
