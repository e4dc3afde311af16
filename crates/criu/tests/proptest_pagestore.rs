//! Property tests for the content-addressed page store: the dedup view
//! must mirror the pages image for arbitrary page mixtures, and a
//! copy-on-write restore must never let one replica's writes alias into
//! another replica sharing the same frames.

use proptest::prelude::*;

use prebake_criu::dump::{dump, DumpOptions};
use prebake_criu::image::{PageStoreImage, PagesBuilder};
use prebake_criu::restore::{restore, RestoreMode, RestoreOptions};
use prebake_sim::kernel::{Kernel, INIT_PID};
use prebake_sim::mem::{Page, Prot, VmaKind, PAGE_SIZE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dedup view matches the pages image byte-for-byte across
    /// arbitrary mixtures of zero, duplicate and distinct pages, and
    /// survives its codec.
    #[test]
    fn pagestore_mirrors_pages_image(
        entries in prop::collection::vec((0u64..64, 0u8..6), 0..32),
    ) {
        let mut pages = PagesBuilder::default();
        let mut seen = std::collections::BTreeSet::new();
        for (idx, fill) in entries {
            if !seen.insert(idx) {
                continue;
            }
            // Few distinct fills so duplicates are common; fill 0 keeps
            // the page zero (never stored).
            let mut page = Page::zeroed();
            if fill != 0 {
                page.bytes_mut().fill(fill);
            }
            pages.push(idx, &page);
        }
        let pages = pages.finish();
        let store = PageStoreImage::from_pages(&pages).unwrap();
        prop_assert_eq!(store.refs.len(), pages.stored_pages());
        prop_assert!(store.unique_pages() <= store.refs.len());
        store.verify_against(&pages).unwrap();
        // Metadata-only codec: checked against the pages image's page
        // hashes, it comes back bit-identical to the pre-encode store.
        let back = PageStoreImage::parse(&store.encode(), &pages).unwrap();
        prop_assert_eq!(back, store);
    }

    /// Dump → dedup → CoW-restore two replicas → overwrite every page of
    /// one: the sibling still observes the original memory, bit-equal to
    /// an eager (private-copy) restore of the same snapshot.
    #[test]
    fn cow_break_never_aliases_across_replicas(
        regions in prop::collection::vec(
            (1u64..6, prop::collection::vec(any::<u8>(), 1..1500)),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let mut kernel = Kernel::free(seed);
        let tracer = kernel.sys_clone(INIT_PID).unwrap();
        let target = kernel.sys_clone(INIT_PID).unwrap();
        let mut writes = Vec::new();
        for (pages, data) in &regions {
            let len = pages * PAGE_SIZE as u64;
            let addr = kernel
                .sys_mmap(target, len, Prot::RW, VmaKind::RuntimeHeap)
                .unwrap();
            let data = &data[..data.len().min(len as usize)];
            kernel.mem_write(target, addr, data).unwrap();
            writes.push((addr, len, data.to_vec()));
        }
        dump(&mut kernel, tracer, &DumpOptions::new(target, "/img")).unwrap();

        let cow = RestoreOptions::with_mode("/img", RestoreMode::Cow);
        let a = restore(&mut kernel, tracer, &cow).unwrap();
        let b = restore(&mut kernel, tracer, &cow).unwrap();
        let eager = restore(&mut kernel, tracer, &RestoreOptions::new("/img")).unwrap();

        // Scribble over replica A completely — every shared frame it
        // references breaks into a private copy.
        for (addr, len, _) in &writes {
            let junk: Vec<u8> = (0..*len).map(|i| (i % 249) as u8 ^ 0x5A).collect();
            kernel.mem_write(a.pid, *addr, &junk).unwrap();
        }

        // Replica B still reads the checkpointed bytes...
        for (addr, _, data) in &writes {
            let back = kernel.mem_read(b.pid, *addr, data.len() as u64).unwrap();
            prop_assert_eq!(&back, data);
        }
        // ...and its whole address space is observably identical to the
        // eager restore's private copies.
        let b_mem = &kernel.process(b.pid).unwrap().mem;
        let eager_mem = &kernel.process(eager.pid).unwrap().mem;
        prop_assert!(b_mem.observably_equal(eager_mem));
    }
}
