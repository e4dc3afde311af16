//! The prebaker: build-time snapshot generation.
//!
//! Per the paper's §3.1, the Function Builder — not the request path —
//! triggers snapshot creation when a new function version is deployed:
//! boot a replica, optionally warm it with requests (forcing class
//! loading and JIT compilation), then `criu dump` it into the function's
//! container image. The same snapshot then seeds every future replica.

use prebake_criu::{dump, DumpOptions, DumpStats};
use prebake_runtime::Replica;
use prebake_sim::error::SysResult;
use prebake_sim::kernel::Kernel;
use prebake_sim::proc::{CapSet, Pid};

use crate::env::{Deployment, RUNTIME_BIN};

/// When, in the function's lifecycle, the snapshot is taken — the paper's
/// central design knob (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotPolicy {
    /// Right after the function becomes ready to serve
    /// (PB-NoWarmup): the runtime is booted but classes are unloaded and
    /// nothing is JIT-compiled.
    AfterReady,
    /// After serving `n` warm-up requests (PB-Warmup): class loading and
    /// JIT state ride along in the snapshot. The paper uses `n = 1`.
    AfterWarmup(u32),
}

/// Outcome of a bake.
#[derive(Debug, Clone)]
pub struct BakeReport {
    /// Dump statistics (page counts, image bytes).
    pub dump: DumpStats,
}

impl BakeReport {
    /// Total snapshot size in bytes.
    pub fn snapshot_bytes(&self) -> u64 {
        self.dump.image_bytes
    }
}

/// Bakes a snapshot of `dep` under `policy` into `images_dir`.
///
/// Boots a throwaway replica exactly like a vanilla start, optionally
/// serves warm-up requests to it, dumps it (killing it — its job is
/// done), and leaves the images on the builder's filesystem.
///
/// # Errors
///
/// Propagates kernel/runtime/CRIU errors.
pub fn bake(
    kernel: &mut Kernel,
    builder: Pid,
    dep: &Deployment,
    policy: SnapshotPolicy,
    images_dir: &str,
) -> SysResult<BakeReport> {
    // Boot the function exactly as production would.
    let pid = kernel.sys_clone(builder)?;
    kernel.process_mut(pid)?.caps = CapSet::empty();
    let config = dep.jlvm_config();
    kernel.sys_execve(
        pid,
        RUNTIME_BIN,
        &[
            RUNTIME_BIN.to_owned(),
            config.archive_path.clone(),
            dep.port.to_string(),
        ],
    )?;
    let handler = dep.spec.make_handler(&dep.app_dir);
    let mut replica = Replica::boot(kernel, pid, config, handler)?;

    // Warm-up: "sending one request to the serverless function, which
    // triggers the code compilation".
    if let SnapshotPolicy::AfterWarmup(n) = policy {
        let req = dep.spec.sample_request();
        for _ in 0..n {
            replica.handle(kernel, &req)?;
        }
    }

    // Dump; the baked process is killed (its port frees for replicas).
    let dump_stats = dump(kernel, builder, &DumpOptions::new(pid, images_dir))?;

    Ok(BakeReport { dump: dump_stats })
}

/// Bake-time working-set recording (the `prebake-lazy` record pass):
/// restores the just-baked snapshot in record mode, drives one sample
/// invocation through a re-attached replica — exactly what a production
/// first request does — and persists the ordered fault log as `ws.img`
/// beside the other images. The record replica is retired afterwards so
/// its port frees for real replicas.
///
/// # Errors
///
/// Propagates restore/runtime/filesystem errors.
pub fn record_working_set(
    kernel: &mut Kernel,
    builder: Pid,
    dep: &Deployment,
    images_dir: &str,
) -> SysResult<prebake_lazy::RecordOutcome> {
    let handler = dep.spec.make_handler(&dep.app_dir);
    let config = dep.jlvm_config();
    let req = dep.spec.sample_request();
    let outcome =
        prebake_lazy::record_working_set(kernel, builder, images_dir, move |kernel, pid| {
            let mut replica = Replica::attach(kernel, pid, config, handler)?;
            replica.handle(kernel, &req)?;
            Ok(())
        })?;
    kernel.sys_exit(outcome.pid, 0)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{provision_machine, Deployment};
    use prebake_functions::{FunctionSpec, SyntheticSize};

    fn deployed(spec: FunctionSpec, seed: u64) -> (Kernel, Pid, Deployment) {
        let mut kernel = Kernel::new(seed);
        let watchdog = provision_machine(&mut kernel).unwrap();
        let dep = Deployment::install(&mut kernel, spec, 8080).unwrap();
        (kernel, watchdog, dep)
    }

    #[test]
    fn noop_snapshot_is_about_13mb() {
        let (mut kernel, watchdog, dep) = deployed(FunctionSpec::noop(), 1);
        let report = bake(
            &mut kernel,
            watchdog,
            &dep,
            SnapshotPolicy::AfterReady,
            "/snap",
        )
        .unwrap();
        let mb = report.snapshot_bytes() as f64 / 1e6;
        // Paper §4.2.1: NOOP snapshot ≈ 13 MB.
        assert!((11.0..16.0).contains(&mb), "NOOP snapshot {mb} MB");
        assert!(kernel.fs_exists("/snap/pages.img"));
        // builder's throwaway replica is gone and the port is free
        assert_eq!(kernel.port_owner(8080), None);
    }

    #[test]
    fn warmup_snapshot_is_larger_than_nowarmup() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let (mut k1, w1, d1) = deployed(spec.clone(), 2);
        let cold = bake(&mut k1, w1, &d1, SnapshotPolicy::AfterReady, "/snap").unwrap();

        let (mut k2, w2, d2) = deployed(spec, 3);
        let warm = bake(&mut k2, w2, &d2, SnapshotPolicy::AfterWarmup(1), "/snap").unwrap();

        assert!(
            warm.snapshot_bytes() > cold.snapshot_bytes() + 2_000_000,
            "warm {} vs cold {}: classes+JIT must ride along",
            warm.snapshot_bytes(),
            cold.snapshot_bytes()
        );
    }

    #[test]
    fn record_pass_writes_ws_beside_the_images() {
        let (mut kernel, watchdog, dep) = deployed(FunctionSpec::noop(), 11);
        bake(
            &mut kernel,
            watchdog,
            &dep,
            SnapshotPolicy::AfterWarmup(1),
            "/snap",
        )
        .unwrap();
        let outcome = record_working_set(&mut kernel, watchdog, &dep, "/snap").unwrap();
        assert!(!outcome.ws.pages.is_empty(), "attach+invoke touches pages");
        assert_eq!(outcome.major_faults, outcome.ws.pages.len() as u64);
        assert!(kernel.fs_exists("/snap/ws.img"));
        // The record replica is retired: its port is free again.
        assert_eq!(kernel.port_owner(8080), None);
    }

    #[test]
    fn bake_is_repeatable_after_failure_free_run() {
        let (mut kernel, watchdog, dep) = deployed(FunctionSpec::noop(), 4);
        bake(
            &mut kernel,
            watchdog,
            &dep,
            SnapshotPolicy::AfterReady,
            "/s1",
        )
        .unwrap();
        // A second bake (new function version) works on the same machine.
        bake(
            &mut kernel,
            watchdog,
            &dep,
            SnapshotPolicy::AfterWarmup(1),
            "/s2",
        )
        .unwrap();
        assert!(kernel.fs_exists("/s1/pages.img"));
        assert!(kernel.fs_exists("/s2/pages.img"));
    }
}
