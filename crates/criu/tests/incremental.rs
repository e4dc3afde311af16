//! End-to-end tests of the incremental (pre-dump + `--track-mem`)
//! checkpoint flow — the paper's §7 plan for reducing checkpoint cost on
//! big functions.

use prebake_criu::dump::{dump, pre_dump, DumpOptions};
use prebake_criu::restore::{restore, RestoreOptions};
use prebake_sim::cost::CostModel;
use prebake_sim::kernel::{Kernel, INIT_PID};
use prebake_sim::mem::{Prot, VirtAddr, VmaKind, PAGE_SIZE};
use prebake_sim::noise::Noise;
use prebake_sim::proc::Pid;

/// A target with `pages` resident pages of distinct content.
fn setup(pages: u64) -> (Kernel, Pid, Pid, VirtAddr) {
    let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
    let tracer = k.sys_clone(INIT_PID).unwrap();
    let target = k.sys_clone(INIT_PID).unwrap();
    let addr = k
        .sys_mmap(
            target,
            pages * PAGE_SIZE as u64,
            Prot::RW,
            VmaKind::RuntimeHeap,
        )
        .unwrap();
    for i in 0..pages {
        let fill = vec![(i % 250 + 1) as u8; PAGE_SIZE];
        k.mem_write(target, addr.add(i * PAGE_SIZE as u64), &fill)
            .unwrap();
    }
    (k, tracer, target, addr)
}

#[test]
fn incremental_dump_defers_clean_pages() {
    let (mut k, tracer, target, addr) = setup(64);

    // Pre-dump stages all 64 pages without freezing.
    let pre = pre_dump(&mut k, tracer, &DumpOptions::new(target, "/pre")).unwrap();
    assert_eq!(pre.pages_stored, 64);
    assert!(pre.frozen_for.is_zero(), "pre-dump never freezes");
    assert!(k.process(target).is_ok(), "target keeps running");

    // The task keeps working: dirty 4 pages.
    for i in 0..4u64 {
        k.mem_write(target, addr.add(i * PAGE_SIZE as u64), &[0xEE; 64])
            .unwrap();
    }

    // Final incremental dump only carries the dirty residue.
    let mut opts = DumpOptions::new(target, "/final");
    opts.parent = Some("/pre".to_owned());
    let fin = dump(&mut k, tracer, &opts).unwrap();
    assert_eq!(fin.pages_stored, 4, "only dirtied pages stored");
    assert_eq!(fin.parent_pages, 60, "clean pages deferred to parent");
    assert!(
        fin.image_bytes < pre.image_bytes / 4,
        "incremental image {} !<< full {}",
        fin.image_bytes,
        pre.image_bytes
    );
}

#[test]
fn incremental_restore_is_byte_faithful() {
    let (mut k, tracer, target, addr) = setup(32);
    pre_dump(&mut k, tracer, &DumpOptions::new(target, "/pre")).unwrap();

    // Mutate a few pages, then snapshot incrementally.
    k.mem_write(target, addr, b"mutated-after-predump").unwrap();
    k.mem_write(target, addr.add(9 * PAGE_SIZE as u64), &[0x42; 128])
        .unwrap();
    let expected: Vec<u8> = k.mem_read(target, addr, 32 * PAGE_SIZE as u64).unwrap();

    let mut opts = DumpOptions::new(target, "/final");
    opts.parent = Some("/pre".to_owned());
    dump(&mut k, tracer, &opts).unwrap();

    let stats = restore(&mut k, tracer, &RestoreOptions::new("/final")).unwrap();
    let restored = k.mem_read(stats.pid, addr, 32 * PAGE_SIZE as u64).unwrap();
    assert_eq!(restored, expected, "parent + residue reassemble exactly");
}

#[test]
fn incremental_freeze_window_is_much_shorter() {
    // Full dump of 4096 pages vs incremental with 32 dirty pages.
    let (mut k, tracer, target, _) = setup(4096);
    let mut full_opts = DumpOptions::new(target, "/full");
    full_opts.leave_running = true;
    let full = dump(&mut k, tracer, &full_opts).unwrap();

    let (mut k, tracer, target, addr) = setup(4096);
    pre_dump(&mut k, tracer, &DumpOptions::new(target, "/pre")).unwrap();
    for i in 0..32u64 {
        k.mem_write(target, addr.add(i * PAGE_SIZE as u64), &[1; 8])
            .unwrap();
    }
    let mut inc_opts = DumpOptions::new(target, "/final");
    inc_opts.parent = Some("/pre".to_owned());
    let inc = dump(&mut k, tracer, &inc_opts).unwrap();

    // The freeze window keeps its fixed costs (parasite injection, dump
    // preparation, pagemap walks) but sheds the per-page transfer of the
    // 4064 clean pages.
    assert!(
        inc.frozen_for.as_nanos() * 2 < full.frozen_for.as_nanos(),
        "incremental freeze {} !<< full freeze {}",
        inc.frozen_for,
        full.frozen_for
    );
    assert!(
        inc.frozen_for.as_millis_f64() < 5.0,
        "incremental freeze should be fixed-cost bound, got {}",
        inc.frozen_for
    );
}

#[test]
fn restore_without_parent_resolution_refuses() {
    use prebake_criu::image::PagesBuilder;
    use prebake_criu::restore::restore_set;
    use prebake_criu::ImageSet;

    let (mut k, tracer, target, _) = setup(4);
    let mut opts = DumpOptions::new(target, "/full");
    opts.leave_running = true;
    dump(&mut k, tracer, &opts).unwrap();
    let mut set = prebake_criu::read_images(&mut k, "/full").unwrap();

    // Forge an unresolved parent reference.
    let mut pages = PagesBuilder::default();
    pages.push_parent_ref(set.mm.vmas[0].first_page());
    set.pages = pages.finish();
    let err = restore_set(&mut k, tracer, &set, &RestoreOptions::new("/full")).unwrap_err();
    assert_eq!(err, prebake_sim::Errno::Einval);
    let _ = ImageSet::PARENT_LINK;
}
