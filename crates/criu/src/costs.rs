//! Checkpoint/restore cost table.
//!
//! Calibration (DESIGN.md §2): Table 1's PB-Warmup column regresses to a
//! restore cost of ≈45 ms base plus ≈0.3 ms per MiB of snapshot. The
//! per-MiB share is dominated by reading the (page-cache-resident) image
//! files — priced by the kernel's warm-read rate — plus a small per-page
//! install cost; the base covers the restorer's own start-up, image
//! parsing and resource re-creation. Every experiment in `EXPERIMENTS.md`
//! runs on this one table.

use prebake_sim::time::SimDuration;

/// Injecting the parasite blob into the target (dump side).
pub(crate) const PARASITE_INJECT: SimDuration = SimDuration::from_micros(1200);
/// Fixed dump preparation (collecting task state beyond what kernel
/// calls already charge).
pub(crate) const DUMP_PREPARE: SimDuration = SimDuration::from_millis(2);
/// Fixed restore cost: restorer start-up, inventory parsing, namespace
/// preparation.
pub(crate) const RESTORE_BASE: SimDuration = SimDuration::from_millis(44);
/// Re-creating one VMA at restore.
pub(crate) const RESTORE_PER_VMA: SimDuration = SimDuration::from_micros(10);
/// Installing one non-zero page at restore (map + copy from the image
/// mapping; the image *read* is charged separately at fs rates).
pub(crate) const RESTORE_PER_PAGE: SimDuration = SimDuration::from_nanos(150);
/// Re-opening one file descriptor at restore.
pub(crate) const RESTORE_PER_FD: SimDuration = SimDuration::from_micros(150);
/// Registering the restored address space with the fault handler in a
/// lazy-mode restore (`userfaultfd` open + `UFFDIO_REGISTER` ioctls,
/// amortised over the whole space).
pub(crate) const LAZY_REGISTER: SimDuration = SimDuration::from_micros(300);
/// Mapping one shared frame copy-on-write at restore: a PTE pointing
/// at an existing physical page, write-protected. No payload copy —
/// that is deferred to the first write (priced by the kernel's
/// `cow_break`) — so this sits well below [`RESTORE_PER_PAGE`].
pub(crate) const RESTORE_PER_COW_PAGE: SimDuration = SimDuration::from_nanos(40);
/// The syscall-equivalent dispatch a *page-granular* restore pays for
/// every single page it reinstates (one `pread`+`mmap`-slot update
/// per 4 KiB page — the per-page overhead REAP and Tan et al. single
/// out). The vectored extent path replaces this with one
/// `extent_setup` charge per *run*, which is where its speed-up comes
/// from; [`RESTORE_PER_PAGE`] (the in-kernel install) is still paid by
/// both paths.
pub(crate) const RESTORE_PAGE_OP: SimDuration = SimDuration::from_nanos(2500);
/// Spawning (and later joining) one restorer worker thread in a
/// sharded parallel restore: `clone(CLONE_VM)`, stack setup and the
/// join-side futex wake. Paid once per shard on the critical path —
/// overlapped page installation only wins while `shards ×
/// SHARD_SPAWN` stays far below the serial install time it displaces,
/// which is what caps useful shard counts on small snapshots.
pub(crate) const SHARD_SPAWN: SimDuration = SimDuration::from_micros(15);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_base_is_about_45ms() {
        let ms = RESTORE_BASE.as_millis_f64();
        assert!((40.0..=50.0).contains(&ms), "restore base {ms}ms");
    }

    #[test]
    fn per_page_install_below_warm_read() {
        // The dominant per-MiB share must be the image read (0.3 ms/MiB
        // warm), not the install, to match Table 1's slope.
        let per_mib_install = RESTORE_PER_PAGE.as_nanos() as f64 * 256.0 / 1e6;
        assert!(per_mib_install < 0.1, "install {per_mib_install} ms/MiB");
    }

    #[test]
    fn cow_mapping_cheaper_than_page_install() {
        // CoW restore only wins if pointing a PTE at a shared frame is
        // cheaper than installing a private copy of the page.
        assert!(RESTORE_PER_COW_PAGE.as_nanos() < RESTORE_PER_PAGE.as_nanos());
        assert!(RESTORE_PER_COW_PAGE.as_nanos() > 0);
    }

    #[test]
    fn page_op_dwarfs_page_install() {
        // The per-page syscall dispatch is the overhead extents remove;
        // it must dominate the in-kernel install it wraps, or coalescing
        // runs would buy nothing (REAP's per-page-overhead observation).
        assert!(RESTORE_PAGE_OP.as_nanos() > 10 * RESTORE_PER_PAGE.as_nanos());
    }

    #[test]
    fn shard_spawn_amortises_over_a_shard() {
        // Eight worker threads must cost a tiny fraction of the restore
        // base they shave time off — else parallel restore could never
        // pay for itself — yet one spawn must out-price a per-VMA
        // re-creation (spawning a thread is heavier than an mmap).
        assert!(SHARD_SPAWN.as_nanos() * 8 * 20 < RESTORE_BASE.as_nanos());
        assert!(SHARD_SPAWN > RESTORE_PER_VMA);
    }

    #[test]
    fn lazy_register_far_below_restore_base() {
        // Lazy restore only pays off if registration is much cheaper than
        // the eager page reinstatement it displaces.
        assert!(LAZY_REGISTER.as_nanos() * 10 < RESTORE_BASE.as_nanos());
    }
}
