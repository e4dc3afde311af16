//! Cross-crate state-fidelity tests: a restored replica must be
//! *observably identical* to the process that was dumped — memory,
//! descriptors, runtime state and behaviour.

use prebake_core::env::{provision_machine, Deployment};
use prebake_core::prebaker::{bake, SnapshotPolicy};
use prebake_core::starter::{PrebakeStarter, Starter, VanillaStarter};
use prebake_criu::{dump, restore, DumpOptions, RestoreOptions};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_runtime::jvm::Jlvm;
use prebake_runtime::Replica;
use prebake_sim::kernel::Kernel;

#[test]
fn dumped_and_restored_memory_observably_equal() {
    let mut kernel = Kernel::new(1);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let dep = Deployment::install(&mut kernel, FunctionSpec::markdown(), 8080).unwrap();
    let mut started = VanillaStarter.start(&mut kernel, watchdog, &dep).unwrap();
    let req = dep.spec.sample_request();
    started.replica.handle(&mut kernel, &req).unwrap();
    let pid = started.replica.pid();

    let mut opts = DumpOptions::new(pid, "/ckpt");
    opts.leave_running = true;
    dump(&mut kernel, watchdog, &opts).unwrap();

    // Free the port so the twin can bind it, then restore. Memory
    // fidelity is checked by comparing two restores of the same image.
    kernel.sys_exit(pid, 0).unwrap();
    kernel.reap(pid).unwrap();

    let twin_a = restore(&mut kernel, watchdog, &RestoreOptions::new("/ckpt")).unwrap();
    // Second twin cannot bind the same port; compare memory only.
    let mem_a = kernel.process(twin_a.pid).unwrap().mem.clone();
    kernel.sys_exit(twin_a.pid, 0).unwrap();
    kernel.reap(twin_a.pid).unwrap();
    let twin_b = restore(&mut kernel, watchdog, &RestoreOptions::new("/ckpt")).unwrap();
    let mem_b = &kernel.process(twin_b.pid).unwrap().mem;

    assert!(
        mem_a.observably_equal(mem_b),
        "two restores from one image must be identical"
    );
    assert_eq!(twin_a.pages_installed, twin_b.pages_installed);
}

#[test]
fn restored_replica_serves_identical_responses() {
    let mut kernel = Kernel::new(2);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let dep = Deployment::install(&mut kernel, FunctionSpec::markdown(), 8080).unwrap();
    let req = dep.spec.sample_request();

    // Reference response from a vanilla replica.
    let mut vanilla = VanillaStarter.start(&mut kernel, watchdog, &dep).unwrap();
    let reference = vanilla.replica.handle(&mut kernel, &req).unwrap();
    kernel.sys_exit(vanilla.replica.pid(), 0).unwrap();
    kernel.reap(vanilla.replica.pid()).unwrap();

    // Prebake (warmed) and restore.
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterWarmup(1),
        &dep.images_dir(),
    )
    .unwrap();
    let mut restored = PrebakeStarter::new()
        .start(&mut kernel, watchdog, &dep)
        .unwrap();
    let response = restored.replica.handle(&mut kernel, &req).unwrap();

    assert_eq!(reference.status, response.status);
    assert_eq!(reference.body, response.body, "byte-identical rendering");
}

#[test]
fn runtime_state_record_survives_restore() {
    let mut kernel = Kernel::new(3);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let spec = FunctionSpec::synthetic(SyntheticSize::Small);
    let dep = Deployment::install(&mut kernel, spec, 8080).unwrap();

    // Boot, warm (loads all classes + JIT), record state, dump.
    let mut started = VanillaStarter.start(&mut kernel, watchdog, &dep).unwrap();
    started
        .replica
        .handle(&mut kernel, &dep.spec.sample_request())
        .unwrap();
    let expected_state = started.replica.jvm().state().clone();
    let pid = started.replica.pid();
    dump(&mut kernel, watchdog, &DumpOptions::new(pid, "/ckpt")).unwrap();

    let stats = restore(&mut kernel, watchdog, &RestoreOptions::new("/ckpt")).unwrap();
    let attached = Jlvm::attach(&mut kernel, stats.pid, dep.jlvm_config()).unwrap();
    assert_eq!(attached.state(), &expected_state);
    assert_eq!(
        attached.state().classes.len(),
        dep.spec.archive().len(),
        "every class the warm-up loaded is present after restore"
    );
    assert!(attached.state().classes.iter().all(|c| c.jitted));
}

#[test]
fn warm_restored_replica_skips_all_loading() {
    let mut kernel = Kernel::new(4);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let spec = FunctionSpec::synthetic(SyntheticSize::Small);
    let dep = Deployment::install(&mut kernel, spec, 8080).unwrap();
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterWarmup(1),
        &dep.images_dir(),
    )
    .unwrap();

    let stats = restore(
        &mut kernel,
        watchdog,
        &RestoreOptions::new(dep.images_dir()),
    )
    .unwrap();
    let handler = dep.spec.make_handler(&dep.app_dir);
    let mut replica = Replica::attach(&mut kernel, stats.pid, dep.jlvm_config(), handler).unwrap();

    // The first request on a warm restore does no loading, no JIT, no
    // lazy link: it must complete in single-digit milliseconds.
    let t0 = kernel.now();
    let resp = replica
        .handle(&mut kernel, &dep.spec.sample_request())
        .unwrap();
    let elapsed = (kernel.now() - t0).as_millis_f64();
    assert_eq!(resp.status, 200);
    assert!(
        elapsed < 5.0,
        "first request after warm restore took {elapsed}ms"
    );
}

#[test]
fn cold_restored_replica_still_pays_lazy_work() {
    let mut kernel = Kernel::new(5);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let spec = FunctionSpec::synthetic(SyntheticSize::Small);
    let dep = Deployment::install(&mut kernel, spec, 8080).unwrap();
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterReady,
        &dep.images_dir(),
    )
    .unwrap();

    let stats = restore(
        &mut kernel,
        watchdog,
        &RestoreOptions::new(dep.images_dir()),
    )
    .unwrap();
    let handler = dep.spec.make_handler(&dep.app_dir);
    let mut replica = Replica::attach(&mut kernel, stats.pid, dep.jlvm_config(), handler).unwrap();

    let t0 = kernel.now();
    replica
        .handle(&mut kernel, &dep.spec.sample_request())
        .unwrap();
    let elapsed = (kernel.now() - t0).as_millis_f64();
    // lazy link (35ms) + parse/verify/JIT of 2.8MB (~84ms)
    assert!(
        (90.0..150.0).contains(&elapsed),
        "first request after cold restore took {elapsed}ms"
    );
}

#[test]
fn snapshot_images_are_checksummed_end_to_end() {
    use prebake_sim::fs::join_path;
    let mut kernel = Kernel::new(6);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let dep = Deployment::install(&mut kernel, FunctionSpec::noop(), 8080).unwrap();
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterReady,
        &dep.images_dir(),
    )
    .unwrap();

    // Corrupt one byte of pages.img; restore must refuse.
    let path = join_path(&dep.images_dir(), "pages.img");
    let (data, _) = kernel.fs_mut().read_file(&path).unwrap();
    let mut corrupted = data.to_vec();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x40;
    kernel.fs_mut().write_file(&path, corrupted).unwrap();

    let err = restore(
        &mut kernel,
        watchdog,
        &RestoreOptions::new(dep.images_dir()),
    )
    .unwrap_err();
    assert_eq!(err, prebake_sim::Errno::Einval);
}

#[test]
fn corrupt_mapped_archive_fails_attach() {
    use prebake_core::prebaker::record_working_set;
    use prebake_criu::{read_images, RestoreMode};
    use prebake_sim::mem::{VirtAddr, PAGE_SIZE};
    use prebake_sim::probe::ProbeCounters;
    let mut kernel = Kernel::new(7);
    let watchdog = provision_machine(&mut kernel).unwrap();
    let dep = Deployment::install(&mut kernel, FunctionSpec::markdown(), 8080).unwrap();
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterReady,
        &dep.images_dir(),
    )
    .unwrap();
    let record = record_working_set(&mut kernel, watchdog, &dep, &dep.images_dir()).unwrap();
    kernel.sys_exit(record.pid, 0).unwrap();
    let ws = read_images(&mut kernel, &dep.images_dir())
        .unwrap()
        .ws
        .unwrap()
        .pages;

    // Every gear: the restored archive verifies; then one byte of it
    // flips in guest memory, and attaching must re-read it and refuse.
    // The byte sits mid-archive (a page the gear installed its own way)
    // or in the archive's last, partial page.
    for mode in [
        RestoreMode::Eager,
        RestoreMode::Lazy,
        RestoreMode::Prefetch,
        RestoreMode::Cow,
        RestoreMode::CowPrefetch,
    ] {
        for last_page in [false, true] {
            let opts = RestoreOptions::with_mode(dep.images_dir(), mode);
            let pid = restore(&mut kernel, watchdog, &opts).unwrap().pid;
            let state = Jlvm::attach(&mut kernel, pid, dep.jlvm_config())
                .unwrap()
                .state()
                .clone();
            let (base, len) = (state.jar_base, state.jar_len);
            assert!(len % PAGE_SIZE as u64 != 0, "the archive ends mid-page");
            let at = match last_page {
                true => base + len - 1,
                false => base + len / 2,
            };
            let page = at / PAGE_SIZE as u64;
            let (majors, _) = kernel.uffd_fault_counts(pid);

            kernel.set_tracing(true);
            let byte = kernel.mem_read(pid, VirtAddr(at), 1).unwrap()[0];
            kernel.mem_write(pid, VirtAddr(at), &[byte ^ 0x01]).unwrap();
            let probes = ProbeCounters::from_events(&kernel.take_trace());
            kernel.set_tracing(false);
            // How the page holding the byte was installed, per gear: the
            // first attach read the whole archive, so in the lazy gear the
            // fault handler served it; the prefetch gear loaded the recorded
            // working set from the same backend; the cow gears mapped it
            // as a pool frame, and the flip broke that frame.
            let shared = mode == RestoreMode::Cow
                || (mode == RestoreMode::CowPrefetch && ws.contains(&page));
            assert_eq!(probes.cow_breaks, shared as u64, "{mode:?} page {page}");
            match mode {
                RestoreMode::Lazy => assert!(majors > 0, "fault-served"),
                RestoreMode::Prefetch | RestoreMode::CowPrefetch if !shared => {
                    assert!(ws.contains(&page) || majors > 0, "backend-served");
                }
                _ => {}
            }

            let handler = dep.spec.make_handler(&dep.app_dir);
            let err = Replica::attach(&mut kernel, pid, dep.jlvm_config(), handler).unwrap_err();
            assert_eq!(
                err,
                prebake_sim::Errno::Einval,
                "{mode:?}, last page {last_page}"
            );
            kernel.sys_exit(pid, 0).unwrap();
        }
    }
}
