//! # prebake-lazy
//!
//! Lazy restore with working-set recording and prefetch — the REAP-style
//! (ASPLOS '21) refinement of prebaking's eager snapshot restore, built
//! over [`prebake_criu`]'s `--lazy-pages` analogue.
//!
//! The paper restores snapshots *eagerly*: every dumped page is read and
//! installed before the replica resumes, so restore time grows with
//! snapshot size (Fig. 5). But a function's first invocation touches only
//! a fraction of those pages. This crate packages the three-step remedy:
//!
//! 1. **Record** ([`record_working_set`]) — restore once in
//!    [`RestoreMode::Record`], drive the first invocation, and harvest
//!    the *ordered* page-fault log as a [`WsImage`] (`ws.img`) stored
//!    beside the other snapshot images.
//! 2. **Prefetch** ([`RestoreMode::Prefetch`]) — later restores map the
//!    address space empty, bulk-load exactly the recorded working set in
//!    one batched copy, and resume; the cost is proportional to the
//!    working set, not the snapshot.
//! 3. **Demand-fault the rest** — residual pages outside the working set
//!    arrive through the fault handler on first touch.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use prebake_criu::restore::{restore, RestoreMode, RestoreOptions};
use prebake_criu::{ImageSet, WsImage};
use prebake_sim::error::SysResult;
use prebake_sim::fs::join_path;
use prebake_sim::kernel::Kernel;
use prebake_sim::proc::Pid;
use prebake_sim::time::SimDuration;

/// Outcome of a working-set recording pass.
#[derive(Debug, Clone)]
pub struct RecordOutcome {
    /// The replica the record restore produced. It has served the drive
    /// closure's invocation; the caller retires it (`sys_exit`) or keeps
    /// serving with it.
    pub pid: Pid,
    /// The recorded working set, already persisted to [`RecordOutcome::ws_path`].
    pub ws: WsImage,
    /// Guest path the working set was written to (`<images_dir>/ws.img`).
    pub ws_path: String,
    /// Major faults the drive took (equals `ws.pages.len()`).
    pub major_faults: u64,
    /// Minor (demand-zero) faults the drive took.
    pub minor_faults: u64,
    /// Virtual time of the whole pass: restore + drive + persist.
    pub elapsed: SimDuration,
}

/// Restores the snapshot in `images_dir` in [`RestoreMode::Record`],
/// drives the first invocation via `drive`, and persists the ordered
/// fault log as `ws.img` next to the other images.
///
/// This is the bake-time step of the record/prefetch cycle: the builder
/// runs it once per function version, and the `ws.img` it writes ships in
/// the container image with the rest of the snapshot.
///
/// # Errors
///
/// Propagates restore, drive and filesystem errors.
pub fn record_working_set<F>(
    kernel: &mut Kernel,
    requester: Pid,
    images_dir: &str,
    drive: F,
) -> SysResult<RecordOutcome>
where
    F: FnOnce(&mut Kernel, Pid) -> SysResult<()>,
{
    let t0 = kernel.now();
    let opts = RestoreOptions::with_mode(images_dir, RestoreMode::Record);
    let stats = restore(kernel, requester, &opts)?;
    drive(kernel, stats.pid)?;
    let log = kernel.uffd_take_log(stats.pid)?;
    let (major_faults, minor_faults) = kernel.uffd_fault_counts(stats.pid);
    let ws = WsImage::from_fault_log(log);
    let ws_path = join_path(images_dir, ImageSet::WS_NAME);
    kernel.fs_write_file(&ws_path, ws.encode())?;
    Ok(RecordOutcome {
        pid: stats.pid,
        ws,
        ws_path,
        major_faults,
        minor_faults,
        elapsed: kernel.now() - t0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_criu::dump::{dump, read_images, DumpOptions};
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::{Prot, VmaKind, PAGE_SIZE};

    fn checkpointed(seed: u64, pages: u64) -> (Kernel, Pid, prebake_sim::mem::VirtAddr) {
        let mut k = Kernel::new(seed);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let a = k
            .sys_mmap(
                target,
                pages * PAGE_SIZE as u64,
                Prot::RW,
                VmaKind::RuntimeHeap,
            )
            .unwrap();
        for i in 0..pages {
            k.mem_write(
                target,
                a.add(i * PAGE_SIZE as u64),
                &[(i % 200 + 1) as u8; 64],
            )
            .unwrap();
        }
        dump(&mut k, tracer, &DumpOptions::new(target, "/img")).unwrap();
        (k, tracer, a)
    }

    #[test]
    fn record_persists_the_touched_prefix() {
        let (mut k, tracer, a) = checkpointed(1, 8);
        // The "first invocation" touches only the first 3 pages.
        let outcome = record_working_set(&mut k, tracer, "/img", |k, pid| {
            k.mem_read(pid, a, 3 * PAGE_SIZE as u64)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(outcome.ws.pages.len(), 3);
        assert_eq!(outcome.major_faults, 3);
        assert!(k.fs_exists("/img/ws.img"));
        k.sys_exit(outcome.pid, 0).unwrap();

        // The image set now carries exactly those 3 of its 8 pages.
        let set = read_images(&mut k, "/img").unwrap();
        assert_eq!(set.ws.as_ref(), Some(&outcome.ws));
        assert_eq!(set.pages.stored_pages(), 8);
    }

    #[test]
    fn prefetch_after_record_serves_without_major_faults() {
        let (mut k, tracer, a) = checkpointed(2, 6);
        let outcome = record_working_set(&mut k, tracer, "/img", |k, pid| {
            k.mem_read(pid, a, 6 * PAGE_SIZE as u64)?;
            Ok(())
        })
        .unwrap();
        k.sys_exit(outcome.pid, 0).unwrap();

        let opts = RestoreOptions::with_mode("/img", RestoreMode::Prefetch);
        let stats = restore(&mut k, tracer, &opts).unwrap();
        assert_eq!(stats.pages_prefetched, 6);
        k.mem_read(stats.pid, a, 6 * PAGE_SIZE as u64).unwrap();
        assert_eq!(k.uffd_fault_counts(stats.pid), (0, 0));
    }

    #[test]
    fn missing_working_set_is_none() {
        let (mut k, _, _) = checkpointed(3, 2);
        assert!(read_images(&mut k, "/img").unwrap().ws.is_none());
    }

    #[test]
    fn corrupt_working_set_is_einval() {
        let (mut k, _, _) = checkpointed(4, 2);
        k.fs_write_file("/img/ws.img", vec![0xAB; 40]).unwrap();
        assert_eq!(
            read_images(&mut k, "/img").unwrap_err(),
            prebake_sim::Errno::Einval
        );
    }
}
