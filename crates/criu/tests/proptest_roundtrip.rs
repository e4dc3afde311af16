//! Property tests for the checkpoint machinery: image codecs and the
//! dump→restore pipeline over randomly shaped processes.

use proptest::prelude::*;

use prebake_criu::dump::{dump, repack, DumpOptions, RepackOptions};
use prebake_criu::image::{
    CoreImage, FilesImage, MmImage, PagesBuilder, PagesImage, ThreadImage, WsImage,
};
use prebake_criu::restore::{restore, RestoreMode, RestoreOptions};
use prebake_sim::error::Errno;
use prebake_sim::kernel::{Kernel, INIT_PID};
use prebake_sim::mem::{Page, Prot, Vma, VmaKind, PAGE_SIZE};
use prebake_sim::proc::{FdEntry, Pid, Regs, Tid};

/// Deterministic Fisher–Yates driven by a splitmix stream, so property
/// inputs choose the permutation without pulling in an RNG dependency.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core/mm/pages/files images round-trip for arbitrary contents.
    #[test]
    fn image_codecs_roundtrip(
        pid in 2u32..100_000,
        comm in "[a-z]{1,15}",
        args in prop::collection::vec("[ -~]{0,30}", 0..5),
        caps in any::<u8>(),
        threads in prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 1..5),
        vmas in prop::collection::vec((0u64..1000, 1u64..64), 0..10),
        fds in prop::collection::vec(3i32..100, 0..8),
    ) {
        let core = CoreImage {
            pid: Pid(pid),
            comm,
            cmdline: args,
            cap_bits: caps & 0b111,
            threads: threads
                .into_iter()
                .map(|(tid, ip, sp)| ThreadImage { tid: Tid(tid), regs: Regs { ip, sp } })
                .collect(),
        };
        prop_assert_eq!(CoreImage::parse(&core.encode()).unwrap(), core);

        // Non-overlapping VMAs from (slot, len) pairs.
        let mut mm = MmImage::default();
        let mut cursor = 0x1000_0000u64;
        for (gap, len) in vmas {
            cursor += gap * PAGE_SIZE as u64;
            mm.vmas.push(Vma {
                start: prebake_sim::mem::VirtAddr(cursor),
                len: len * PAGE_SIZE as u64,
                prot: Prot::RW,
                kind: VmaKind::Anon,
            });
            cursor += (len + 1) * PAGE_SIZE as u64;
        }
        prop_assert_eq!(MmImage::parse(&mm.encode()).unwrap(), mm);

        let mut files = FilesImage::default();
        let mut used = std::collections::BTreeSet::new();
        for fd in fds {
            if used.insert(fd) {
                files.fds.push((fd, FdEntry::Listener { port: 1000 + fd as u16 }));
            }
        }
        prop_assert_eq!(FilesImage::parse(&files.encode()).unwrap(), files);
    }

    /// Pages image: zero pages are deduplicated, payload pages preserved,
    /// for arbitrary mixtures.
    #[test]
    fn pages_image_roundtrip(entries in prop::collection::vec((any::<u64>(), any::<bool>(), any::<u8>()), 0..32)) {
        let mut pages = PagesBuilder::default();
        let mut seen = std::collections::BTreeSet::new();
        for (idx, zero, fill) in entries {
            if !seen.insert(idx) {
                continue;
            }
            let mut page = Page::zeroed();
            if !zero {
                page.bytes_mut().fill(fill.max(1));
            }
            pages.push(idx, &page);
        }
        let pages = pages.finish();
        let back = PagesImage::parse(&pages.encode_pagemap(), &pages.encode_pages()).unwrap();
        prop_assert_eq!(&back, &pages);
        prop_assert_eq!(back.stored_pages() + back.zero_pages(), back.entries().len());
    }

    /// Dump→restore over a randomly shaped process reproduces every byte
    /// of observable memory and every descriptor.
    #[test]
    fn dump_restore_preserves_process(
        regions in prop::collection::vec((1u64..12, prop::collection::vec(any::<u8>(), 1..2000)), 1..5),
        port in 2000u16..60_000,
        seed in any::<u64>(),
    ) {
        let mut kernel = Kernel::free(seed);
        let tracer = kernel.sys_clone(INIT_PID).unwrap();
        let target = kernel.sys_clone(INIT_PID).unwrap();
        let mut writes = Vec::new();
        for (pages, data) in &regions {
            let len = pages * PAGE_SIZE as u64;
            let addr = kernel.sys_mmap(target, len, Prot::RW, VmaKind::RuntimeHeap).unwrap();
            let data = &data[..data.len().min(len as usize)];
            kernel.mem_write(target, addr, data).unwrap();
            writes.push((addr, data.to_vec()));
        }
        kernel.sys_listen(target, port).unwrap();

        dump(&mut kernel, tracer, &DumpOptions::new(target, "/img")).unwrap();
        prop_assert!(kernel.process(target).is_err(), "dump kills the bakee");
        prop_assert_eq!(kernel.port_owner(port), None);

        let stats = restore(&mut kernel, tracer, &RestoreOptions::new("/img")).unwrap();
        for (addr, data) in writes {
            let back = kernel.mem_read(stats.pid, addr, data.len() as u64).unwrap();
            prop_assert_eq!(back, data);
        }
        prop_assert_eq!(kernel.port_owner(port), Some(stats.pid));
    }

    /// An extent-coalesced dump restores bit-identically in every
    /// install variant — eager run-at-a-time, page-at-a-time and sharded
    /// over 2 and 4 threads, then lazy, CoW and prefetch — and an image
    /// set without `extents.img` fails to restore, as one without
    /// `pages.img` does.
    #[test]
    fn extent_restore_is_bit_identical_across_modes(
        regions in prop::collection::vec((1u64..10, prop::collection::vec(any::<u8>(), 1..2000)), 1..4),
        window in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut kernel = Kernel::free(seed);
        let tracer = kernel.sys_clone(INIT_PID).unwrap();
        let target = kernel.sys_clone(INIT_PID).unwrap();
        let mut writes = Vec::new();
        for (pages, data) in &regions {
            let len = pages * PAGE_SIZE as u64;
            let addr = kernel.sys_mmap(target, len, Prot::RW, VmaKind::RuntimeHeap).unwrap();
            let data = &data[..data.len().min(len as usize)];
            kernel.mem_write(target, addr, data).unwrap();
            writes.push((addr, data.to_vec()));
        }
        dump(&mut kernel, tracer, &DumpOptions::new(target, "/img")).unwrap();

        // Record a working set so the Prefetch mode has a `ws.img`.
        {
            let opts = RestoreOptions::with_mode("/img", RestoreMode::Record);
            let stats = restore(&mut kernel, tracer, &opts).unwrap();
            for (addr, data) in &writes {
                kernel.mem_read(stats.pid, *addr, data.len() as u64).unwrap();
            }
            let log = kernel.uffd_take_log(stats.pid).unwrap();
            kernel.fs_write_file("/img/ws.img", WsImage::from_fault_log(log).encode()).unwrap();
            kernel.sys_exit(stats.pid, 0).unwrap();
            kernel.reap(stats.pid).unwrap();
        }

        let expected: Vec<u8> = writes.iter().flat_map(|(_, d)| d.clone()).collect();
        let mut variants = Vec::new();
        for (vectored, threads) in [(true, 1), (false, 1), (true, 2), (true, 4)] {
            let mut opts = RestoreOptions::new("/img");
            opts.vectored = vectored;
            opts.threads = threads;
            variants.push(opts);
        }
        for mode in [RestoreMode::Lazy, RestoreMode::Cow, RestoreMode::Prefetch] {
            variants.push(RestoreOptions::with_mode("/img", mode));
        }
        for mut opts in variants {
            opts.fault_around = window;
            let stats = restore(&mut kernel, tracer, &opts).unwrap();
            let mut bytes = Vec::new();
            for (addr, data) in &writes {
                bytes.extend(kernel.mem_read(stats.pid, *addr, data.len() as u64).unwrap());
            }
            prop_assert_eq!(
                &bytes, &expected,
                "{:?} (vectored {}, threads {}) diverges", opts.mode, opts.vectored, opts.threads
            );
            kernel.sys_exit(stats.pid, 0).unwrap();
            kernel.reap(stats.pid).unwrap();
        }

        // Every dump writes the extent table; a set without it is
        // incomplete.
        kernel.fs_remove_file("/img/extents.img").unwrap();
        let missing = restore(&mut kernel, tracer, &RestoreOptions::new("/img"));
        prop_assert_eq!(missing.err(), Some(Errno::Enoent));
    }

    /// A fault-order repack under an arbitrary recorded order restores
    /// bit-identically to the original image in all four memory modes:
    /// the layout pass may permute the payload, never the contents.
    #[test]
    fn repacked_image_restores_identically_across_modes(
        regions in prop::collection::vec((1u64..8, prop::collection::vec(1u8..=255, 1..1500)), 1..4),
        order_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut kernel = Kernel::free(seed);
        let tracer = kernel.sys_clone(INIT_PID).unwrap();
        let target = kernel.sys_clone(INIT_PID).unwrap();
        let mut writes = Vec::new();
        for (pages, data) in &regions {
            let len = pages * PAGE_SIZE as u64;
            let addr = kernel.sys_mmap(target, len, Prot::RW, VmaKind::RuntimeHeap).unwrap();
            let data = &data[..data.len().min(len as usize)];
            kernel.mem_write(target, addr, data).unwrap();
            writes.push((addr, data.to_vec()));
        }
        dump(&mut kernel, tracer, &DumpOptions::new(target, "/img")).unwrap();

        // An arbitrary fault order over every written page.
        let mut ws_pages: Vec<u64> = writes
            .iter()
            .flat_map(|(addr, data)| {
                let pages = (data.len() as u64).div_ceil(PAGE_SIZE as u64);
                (0..pages).map(move |i| addr.0 / PAGE_SIZE as u64 + i)
            })
            .collect();
        shuffle(&mut ws_pages, order_seed);
        kernel
            .fs_write_file("/img/ws.img", WsImage::from_fault_log(ws_pages).encode())
            .unwrap();

        let stats = repack(&mut kernel, &RepackOptions::new("/img")).unwrap();
        prop_assert_eq!(stats.pages_compacted, 0, "layout-only pass keeps all pages hot");
        prop_assert_eq!(stats.hot_bytes_after, stats.hot_bytes_before);

        let expected: Vec<u8> = writes.iter().flat_map(|(_, d)| d.clone()).collect();
        for mode in [RestoreMode::Eager, RestoreMode::Lazy, RestoreMode::Cow, RestoreMode::Prefetch] {
            let opts = RestoreOptions::with_mode("/img", mode);
            let stats = restore(&mut kernel, tracer, &opts).unwrap();
            let mut bytes = Vec::new();
            for (addr, data) in &writes {
                bytes.extend(kernel.mem_read(stats.pid, *addr, data.len() as u64).unwrap());
            }
            prop_assert_eq!(&bytes, &expected, "repacked restore diverges in {:?}", mode);
            kernel.sys_exit(stats.pid, 0).unwrap();
            kernel.reap(stats.pid).unwrap();
        }
    }

    /// A compacted image plus its fallback layer restores bit-identically
    /// to the full image whatever order the pages fault back in.
    #[test]
    fn compacted_image_restores_identically_under_any_fault_order(
        regions in prop::collection::vec((1u64..6, prop::collection::vec(1u8..=255, 1..1200)), 2..5),
        order_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut kernel = Kernel::free(seed);
        let tracer = kernel.sys_clone(INIT_PID).unwrap();
        let target = kernel.sys_clone(INIT_PID).unwrap();
        let mut writes = Vec::new();
        for (pages, data) in &regions {
            let len = pages * PAGE_SIZE as u64;
            let addr = kernel.sys_mmap(target, len, Prot::RW, VmaKind::RuntimeHeap).unwrap();
            let data = &data[..data.len().min(len as usize)];
            kernel.mem_write(target, addr, data).unwrap();
            writes.push((addr, data.to_vec()));
        }
        dump(&mut kernel, tracer, &DumpOptions::new(target, "/img")).unwrap();

        // The recorded working set covers only the first region: every
        // other stored page gets compacted into the fallback layer.
        let (ws_addr, ws_data) = &writes[0];
        let ws_pages: Vec<u64> = (0..(ws_data.len() as u64).div_ceil(PAGE_SIZE as u64))
            .map(|i| ws_addr.0 / PAGE_SIZE as u64 + i)
            .collect();
        kernel
            .fs_write_file("/img/ws.img", WsImage::from_fault_log(ws_pages).encode())
            .unwrap();

        let mut opts = RepackOptions::new("/img");
        opts.compact = true;
        let stats = repack(&mut kernel, &opts).unwrap();
        prop_assert!(stats.pages_compacted > 0, "regions past the ws compact");
        prop_assert!(stats.hot_bytes_after < stats.hot_bytes_before);
        let (stats_compacted, stats_total) = (stats.pages_compacted, stats.pages_total);

        // Fault the memory back in an arbitrary order, eagerly and
        // lazily: contents must match the full image bit for bit.
        let mut order: Vec<usize> = (0..writes.len()).collect();
        shuffle(&mut order, order_seed);
        for mode in [RestoreMode::Eager, RestoreMode::Lazy] {
            let opts = RestoreOptions::with_mode("/img", mode);
            let stats = restore(&mut kernel, tracer, &opts).unwrap();
            for &i in &order {
                let (addr, data) = &writes[i];
                let back = kernel.mem_read(stats.pid, *addr, data.len() as u64).unwrap();
                prop_assert_eq!(&back, data, "fallback fault diverges in {:?}", mode);
            }
            // One trap per page: eager restores fault only the compacted
            // pages in, lazy ones every stored page.
            let faults = match mode {
                RestoreMode::Eager => stats_compacted,
                _ => stats_total,
            };
            prop_assert_eq!(
                kernel.uffd_fault_counts(stats.pid).0,
                faults as u64,
                "compacted pages fault through the fallback layer in {:?}",
                mode
            );
            kernel.sys_exit(stats.pid, 0).unwrap();
            kernel.reap(stats.pid).unwrap();
        }
    }

    /// `ws.img` round-trips arbitrary fault logs, preserving order and
    /// repeats exactly.
    #[test]
    fn ws_image_roundtrip(log in prop::collection::vec(any::<u64>(), 0..256)) {
        let ws = WsImage::from_fault_log(log.clone());
        prop_assert_eq!(&ws.pages, &log);
        let back = WsImage::parse(&ws.encode()).unwrap();
        prop_assert_eq!(back, ws);
    }

    /// A record-mode restore over the same seed and process shape yields
    /// the identical fault sequence and identical fault counters: the
    /// demand-paging path is deterministic.
    #[test]
    fn recorded_fault_sequence_is_deterministic(
        regions in prop::collection::vec((1u64..8, prop::collection::vec(any::<u8>(), 1..1500)), 1..4),
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| -> (Vec<u64>, (u64, u64)) {
            let mut kernel = Kernel::new(seed);
            let tracer = kernel.sys_clone(INIT_PID).unwrap();
            let target = kernel.sys_clone(INIT_PID).unwrap();
            let mut writes = Vec::new();
            for (pages, data) in &regions {
                let len = pages * PAGE_SIZE as u64;
                let addr = kernel.sys_mmap(target, len, Prot::RW, VmaKind::RuntimeHeap).unwrap();
                let data = &data[..data.len().min(len as usize)];
                kernel.mem_write(target, addr, data).unwrap();
                writes.push((addr, data.len() as u64));
            }
            dump(&mut kernel, tracer, &DumpOptions::new(target, "/img")).unwrap();
            let opts = RestoreOptions::with_mode("/img", RestoreMode::Record);
            let stats = restore(&mut kernel, tracer, &opts).unwrap();
            // Drive the "first invocation": touch every region in order.
            for (addr, len) in writes {
                kernel.mem_read(stats.pid, addr, len).unwrap();
            }
            let log = kernel.uffd_take_log(stats.pid).unwrap();
            let counts = kernel.uffd_fault_counts(stats.pid);
            (log, counts)
        };
        let (log_a, counts_a) = run(seed);
        let (log_b, counts_b) = run(seed);
        prop_assert_eq!(&log_a, &log_b, "fault order differs across identical runs");
        prop_assert_eq!(counts_a, counts_b);
        prop_assert_eq!(log_a.len() as u64, counts_a.0, "every major fault is logged");
    }
}
