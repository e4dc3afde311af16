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
    use prebake_sim::mem::VirtAddr;
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
    let stats = restore(
        &mut kernel,
        watchdog,
        &RestoreOptions::new(dep.images_dir()),
    )
    .unwrap();

    // The restored archive verifies; then one byte of it flips in guest
    // memory, and attaching must re-read it and refuse.
    let state = Jlvm::attach(&mut kernel, stats.pid, dep.jlvm_config())
        .unwrap()
        .state()
        .clone();
    assert!(state.jar_len > 0);
    let at = VirtAddr(state.jar_base + state.jar_len / 2);
    let byte = kernel.mem_read(stats.pid, at, 1).unwrap()[0];
    kernel.mem_write(stats.pid, at, &[byte ^ 0x01]).unwrap();

    let handler = dep.spec.make_handler(&dep.app_dir);
    let err = Replica::attach(&mut kernel, stats.pid, dep.jlvm_config(), handler).unwrap_err();
    assert_eq!(err, prebake_sim::Errno::Einval);
}
