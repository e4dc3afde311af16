//! Shared-frame lifecycle across many concurrent replicas: N processes
//! CoW-restored from one snapshot reference each distinct page frame
//! exactly once machine-wide, and when the last replica exits the pool
//! reclaims everything — no leaked shared pages.

use prebake_criu::dump::{dump, DumpOptions};
use prebake_criu::restore::{restore, RestoreMode, RestoreOptions, RestoreStats};
use prebake_sim::kernel::{Kernel, INIT_PID};
use prebake_sim::mem::{Prot, VmaKind, PAGE_SIZE};
use prebake_sim::proc::Pid;

const REPLICAS: usize = 8;
const PAGES: u64 = 32;
const DISTINCT: u64 = 16; // each content appears on two pages

fn baked_kernel() -> (Kernel, Pid) {
    let mut k = Kernel::free(0xC0C0);
    let tracer = k.sys_clone(INIT_PID).unwrap();
    let target = k.sys_clone(INIT_PID).unwrap();
    let addr = k
        .sys_mmap(
            target,
            PAGES * PAGE_SIZE as u64,
            Prot::RW,
            VmaKind::RuntimeHeap,
        )
        .unwrap();
    for i in 0..PAGES {
        let fill = (i % DISTINCT) as u8 + 1;
        k.mem_write(target, addr.add(i * PAGE_SIZE as u64), &[fill; PAGE_SIZE])
            .unwrap();
    }
    dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
    (k, tracer)
}

#[test]
fn refcounts_drop_to_zero_after_all_replicas_exit() {
    let (mut k, tracer) = baked_kernel();
    let opts = RestoreOptions::with_mode("/img", RestoreMode::Cow);
    let replicas: Vec<RestoreStats> = (0..REPLICAS)
        .map(|_| restore(&mut k, tracer, &opts).unwrap())
        .collect();

    // Every replica maps all 32 stored pages onto the same 16 frames.
    for r in &replicas {
        assert_eq!(r.pages_cow, PAGES as usize);
    }
    assert_eq!(k.page_store().resident_bytes(), DISTINCT * PAGE_SIZE as u64);
    assert_eq!(
        k.page_store().external_refs(),
        (REPLICAS as u64) * PAGES,
        "one mapping per stored page per replica"
    );

    // Half the replicas dirty their first page: each break releases one
    // frame reference and nothing else.
    let vma = k
        .process(replicas[0].pid)
        .unwrap()
        .mem
        .vmas()
        .next()
        .unwrap()
        .clone();
    for r in replicas.iter().take(REPLICAS / 2) {
        k.mem_write(r.pid, vma.start, &[0xFF; 8]).unwrap();
    }
    assert_eq!(
        k.page_store().external_refs(),
        (REPLICAS as u64) * PAGES - (REPLICAS as u64) / 2
    );
    assert_eq!(k.page_store().resident_bytes(), DISTINCT * PAGE_SIZE as u64);

    // Retire replicas one by one; the pool drains monotonically and the
    // frames stay resident while anyone still maps them.
    for (i, r) in replicas.iter().enumerate() {
        k.sys_exit(r.pid, 0).unwrap();
        if i < REPLICAS - 1 {
            assert!(
                k.page_store().resident_bytes() > 0,
                "frames alive with mappers"
            );
        }
    }
    assert_eq!(k.page_store().external_refs(), 0, "no dangling frame refs");
    assert_eq!(
        k.page_store().resident_bytes(),
        0,
        "all shared pages reclaimed"
    );
}

#[test]
fn replicas_from_distinct_snapshots_share_common_content() {
    // Cross-snapshot dedup: two different functions whose snapshots
    // overlap in content (same runtime pages, different app pages) share
    // the overlapping frames in the machine pool.
    let mut k = Kernel::free(0xD0D0);
    let tracer = k.sys_clone(INIT_PID).unwrap();
    for (dir, app_fill) in [("/img-a", 0x21u8), ("/img-b", 0x42u8)] {
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, 8 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        // Four "runtime" pages identical across both functions...
        for i in 0..4u64 {
            k.mem_write(
                target,
                addr.add(i * PAGE_SIZE as u64),
                &[(i as u8) + 1; PAGE_SIZE],
            )
            .unwrap();
        }
        // ...and four app pages unique to each.
        for i in 4..8u64 {
            k.mem_write(
                target,
                addr.add(i * PAGE_SIZE as u64),
                &[app_fill ^ (i as u8); PAGE_SIZE],
            )
            .unwrap();
        }
        dump(&mut k, tracer, &DumpOptions::new(target, dir)).unwrap();
    }

    let a = restore(
        &mut k,
        tracer,
        &RestoreOptions::with_mode("/img-a", RestoreMode::Cow),
    )
    .unwrap();
    let b = restore(
        &mut k,
        tracer,
        &RestoreOptions::with_mode("/img-b", RestoreMode::Cow),
    )
    .unwrap();
    assert_eq!(a.pages_cow, 8);
    assert_eq!(b.pages_cow, 8);
    assert_eq!(
        k.page_store().resident_bytes(),
        12 * PAGE_SIZE as u64,
        "4 shared runtime frames + 2x4 app frames"
    );

    k.sys_exit(a.pid, 0).unwrap();
    assert_eq!(
        k.page_store().resident_bytes(),
        8 * PAGE_SIZE as u64,
        "b's frames survive a's exit"
    );
    k.sys_exit(b.pid, 0).unwrap();
    assert_eq!(k.page_store().resident_bytes(), 0);
}
