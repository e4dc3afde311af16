//! OS-level cost model.
//!
//! Every kernel operation charges virtual time according to this table.
//! The constants are calibrated against the paper's measurements (see
//! `DESIGN.md` §2): `clone`+`exec` are a "tiny fraction" of start-up
//! (Fig. 4), cold file reads cost ≈6.7 ms/MB (the I/O share of the
//! 36.7 ms/MB vanilla class-load slope regressed from Table 1), and page
//! operations are priced so that snapshot restore lands at ≈0.26 ms/MB
//! (Table 1, PB-Warmup slope).
//!
//! Domain layers (the managed runtime and the CRIU engine) keep their own
//! cost tables; this module only prices primitives every layer shares.

use crate::time::SimDuration;

/// Converts a cost expressed in milliseconds-per-MiB into ns-per-byte.
pub fn ms_per_mib_to_ns_per_byte(ms_per_mib: f64) -> f64 {
    ms_per_mib * 1_000_000.0 / (1024.0 * 1024.0)
}

/// Per-byte cost helper: `bytes` at `ns_per_byte` nanoseconds each.
pub fn per_byte(bytes: u64, ns_per_byte: f64) -> SimDuration {
    SimDuration::from_nanos_f64(bytes as f64 * ns_per_byte)
}

/// OS-level virtual-time cost table.
///
/// Construct with [`CostModel::paper_calibrated`] (the default) for
/// experiment runs, or [`CostModel::free`] for pure-logic tests that should
/// not advance the clock.
///
/// # Examples
///
/// ```
/// use prebake_sim::cost::CostModel;
///
/// let costs = CostModel::paper_calibrated();
/// assert!(costs.mmap_base > CostModel::free().mmap_base);
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    // -- process lifecycle ---------------------------------------------
    /// One `clone(2)` call (paper Fig. 4: CLONE phase, ≈0.4 ms).
    pub(crate) clone_call: SimDuration,
    /// Fixed part of `execve(2)` (paper Fig. 4: EXEC phase, ≈1.2 ms);
    /// reading the binary is charged separately as a file read.
    pub(crate) exec_base: SimDuration,
    /// Scheduling latency to resume a stopped/frozen task.
    pub sched_resume: SimDuration,
    /// Process teardown (`exit` + reaping).
    pub(crate) exit_call: SimDuration,

    // -- memory ---------------------------------------------------------
    /// Establishing a mapping (`mmap` bookkeeping, excludes faults).
    pub mmap_base: SimDuration,
    /// Removing a mapping.
    pub(crate) munmap_base: SimDuration,
    /// First-touch fault + zero-fill of one page.
    pub(crate) page_touch: SimDuration,
    /// Copying one page of memory (used by reads/writes of resident pages).
    pub(crate) page_copy: SimDuration,
    /// Trap + handler round-trip for one *major* demand-paging fault: the
    /// `userfaultfd(2)` wakeup, handler dispatch and `UFFDIO_COPY` ioctl,
    /// excluding the data movement (charged per byte at the warm read
    /// rate) and the page copy itself. REAP (ASPLOS '21) reports ~5-8 µs
    /// per userfaultfd round-trip.
    pub(crate) fault_trap: SimDuration,
    /// Bookkeeping overhead for a *minor* fault (first touch of a
    /// demand-zero page) while the address space is fault-registered.
    /// Charged on top of [`CostModel::page_touch`].
    pub(crate) fault_minor: SimDuration,
    /// Write-protect fault on a shared (copy-on-write) page: trap,
    /// private-copy allocation and the page copy itself. Priced like a
    /// hardware CoW break (trap ≪ `userfaultfd` round-trip) — the moment
    /// a restored replica first writes a shared frame.
    pub cow_break: SimDuration,
    /// Extra service charge when a major fault misses the compacted *hot*
    /// image and falls through to the fallback layer (the full snapshot
    /// kept cold): re-opening the cold image region, an extra seek and
    /// the handler's second lookup. Dearer than `fault_trap` — the whole
    /// point of compaction is that these are rare.
    pub fault_fallback: SimDuration,
    /// Fixed setup charge for one scatter-gather memory operation over a
    /// run of contiguous pages (`copy_extent`, `cow_map_extent`,
    /// vectored prefetch): the single syscall-equivalent entry
    /// (`preadv`/iovec dispatch, VMA lookup, TLB bookkeeping) that a
    /// vectored op pays *once* where the per-page path pays it per page.
    /// The per-page streaming share stays with the caller (criu's
    /// per-page install charge and the warm read rate) — bytes move at
    /// the same rate on both gears.
    pub extent_setup: SimDuration,

    // -- filesystem -----------------------------------------------------
    /// Metadata operation (open/stat/close/mkdir/unlink).
    pub(crate) fs_meta: SimDuration,
    /// Starting a *discontiguous* read of an image file: the extra seek —
    /// an `lseek`+`pread` dispatch that breaks the kernel's readahead
    /// window — paid once per non-sequential jump. A fault-order-packed
    /// image streams with (nearly) no seeks, which is exactly the win
    /// REAP's working-set-ordered snapshot layout measures. Sits between
    /// `extent_setup` (a seek is a heavier dispatch than an iovec entry)
    /// and `fault_trap` (still far below a userfaultfd round-trip).
    pub fs_seek: SimDuration,
    /// Cold (uncached) read, ns per byte. Calibrated to ≈6.7 ms/MiB — the
    /// I/O share of the paper's vanilla class-load slope.
    pub(crate) fs_read_cold_ns_per_byte: f64,
    /// Warm (page-cache) read, ns per byte (≈0.3 ms/MiB).
    pub fs_read_warm_ns_per_byte: f64,
    /// Write, ns per byte (≈1.0 ms/MiB; build-time path only).
    pub(crate) fs_write_ns_per_byte: f64,

    // -- pipes ------------------------------------------------------------
    /// Streaming data through a pipe, ns per byte.
    pub(crate) pipe_ns_per_byte: f64,

    // -- ptrace -----------------------------------------------------------
    /// `PTRACE_SEIZE` of one task.
    pub(crate) ptrace_attach: SimDuration,
    /// `PTRACE_INTERRUPT` + wait until one thread is frozen.
    pub(crate) ptrace_freeze_per_thread: SimDuration,
    /// Reading or writing one page of a tracee's memory.
    pub(crate) ptrace_xfer_per_page: SimDuration,
    /// `PTRACE_DETACH`.
    pub ptrace_detach: SimDuration,

    // -- sockets ----------------------------------------------------------
    /// Creating + binding + listening on a socket.
    pub(crate) socket_listen: SimDuration,
    /// Accept/connect handshake.
    pub socket_accept: SimDuration,

    // -- /proc --------------------------------------------------------------
    /// Rendering a `/proc/<pid>/maps`-style view.
    pub(crate) procfs_read: SimDuration,
    /// Scanning one page's worth of `/proc/<pid>/pagemap`.
    pub(crate) pagemap_per_page: SimDuration,
}

impl CostModel {
    /// The calibration used by every experiment in `EXPERIMENTS.md`.
    pub fn paper_calibrated() -> Self {
        CostModel {
            clone_call: SimDuration::from_micros(400),
            exec_base: SimDuration::from_micros(1200),
            sched_resume: SimDuration::from_micros(50),
            exit_call: SimDuration::from_micros(80),

            mmap_base: SimDuration::from_micros(8),
            munmap_base: SimDuration::from_micros(5),
            page_touch: SimDuration::from_nanos(180),
            page_copy: SimDuration::from_nanos(220),
            fault_trap: SimDuration::from_micros(6),
            fault_minor: SimDuration::from_nanos(250),
            cow_break: SimDuration::from_micros(4),
            fault_fallback: SimDuration::from_micros(25),
            extent_setup: SimDuration::from_micros(2),

            fs_meta: SimDuration::from_micros(15),
            fs_seek: SimDuration::from_micros(5),
            fs_read_cold_ns_per_byte: ms_per_mib_to_ns_per_byte(6.7),
            fs_read_warm_ns_per_byte: ms_per_mib_to_ns_per_byte(0.3),
            fs_write_ns_per_byte: ms_per_mib_to_ns_per_byte(1.0),

            pipe_ns_per_byte: 0.12,

            ptrace_attach: SimDuration::from_micros(60),
            ptrace_freeze_per_thread: SimDuration::from_micros(35),
            ptrace_xfer_per_page: SimDuration::from_nanos(1400),
            ptrace_detach: SimDuration::from_micros(40),

            socket_listen: SimDuration::from_micros(120),
            socket_accept: SimDuration::from_micros(25),

            procfs_read: SimDuration::from_micros(30),
            pagemap_per_page: SimDuration::from_nanos(90),
        }
    }

    /// A zero-cost table: no operation advances the clock. Useful for unit
    /// tests that assert on state rather than timing.
    pub fn free() -> Self {
        CostModel {
            clone_call: SimDuration::ZERO,
            exec_base: SimDuration::ZERO,
            sched_resume: SimDuration::ZERO,
            exit_call: SimDuration::ZERO,
            mmap_base: SimDuration::ZERO,
            munmap_base: SimDuration::ZERO,
            page_touch: SimDuration::ZERO,
            page_copy: SimDuration::ZERO,
            fault_trap: SimDuration::ZERO,
            fault_minor: SimDuration::ZERO,
            cow_break: SimDuration::ZERO,
            fault_fallback: SimDuration::ZERO,
            extent_setup: SimDuration::ZERO,
            fs_meta: SimDuration::ZERO,
            fs_seek: SimDuration::ZERO,
            fs_read_cold_ns_per_byte: 0.0,
            fs_read_warm_ns_per_byte: 0.0,
            fs_write_ns_per_byte: 0.0,
            pipe_ns_per_byte: 0.0,
            ptrace_attach: SimDuration::ZERO,
            ptrace_freeze_per_thread: SimDuration::ZERO,
            ptrace_xfer_per_page: SimDuration::ZERO,
            ptrace_detach: SimDuration::ZERO,
            socket_listen: SimDuration::ZERO,
            socket_accept: SimDuration::ZERO,
            procfs_read: SimDuration::ZERO,
            pagemap_per_page: SimDuration::ZERO,
        }
    }

    /// Cost of reading `bytes` from a file, given its cache state.
    pub(crate) fn fs_read(&self, bytes: u64, cached: bool) -> SimDuration {
        let ns_per_byte = if cached {
            self.fs_read_warm_ns_per_byte
        } else {
            self.fs_read_cold_ns_per_byte
        };
        self.fs_meta + per_byte(bytes, ns_per_byte)
    }

    /// Cost of writing `bytes` to a file.
    pub(crate) fn fs_write(&self, bytes: u64) -> SimDuration {
        self.fs_meta + per_byte(bytes, self.fs_write_ns_per_byte)
    }

    /// Cost of streaming `bytes` through a pipe.
    pub(crate) fn pipe_xfer(&self, bytes: u64) -> SimDuration {
        per_byte(bytes, self.pipe_ns_per_byte)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_helper() {
        // 1 ms/MiB == ~0.9537 ns/B
        let ns = ms_per_mib_to_ns_per_byte(1.0);
        assert!((ns - 0.95367).abs() < 1e-4);
    }

    #[test]
    fn per_byte_scales_linearly() {
        let one = per_byte(1024, 1.0);
        let two = per_byte(2048, 1.0);
        assert_eq!(two.as_nanos(), 2 * one.as_nanos());
    }

    #[test]
    fn cold_read_costs_about_6_7ms_per_mib() {
        let costs = CostModel::paper_calibrated();
        let mib = 1024 * 1024;
        let d = costs.fs_read(mib, false);
        assert!(
            (d.as_millis_f64() - 6.7).abs() < 0.1,
            "cold read of 1MiB was {d}"
        );
    }

    #[test]
    fn warm_read_much_cheaper_than_cold() {
        let costs = CostModel::paper_calibrated();
        let cold = costs.fs_read(1 << 20, false);
        let warm = costs.fs_read(1 << 20, true);
        assert!(cold.as_nanos() > 10 * warm.as_nanos());
    }

    #[test]
    fn free_model_never_charges() {
        let costs = CostModel::free();
        assert_eq!(costs.fs_read(1 << 30, false), SimDuration::ZERO);
        assert_eq!(costs.fs_write(1 << 30), SimDuration::ZERO);
        assert_eq!(costs.pipe_xfer(1 << 30), SimDuration::ZERO);
        assert_eq!(costs.clone_call, SimDuration::ZERO);
    }

    #[test]
    fn default_is_paper_calibrated() {
        let d = CostModel::default();
        let p = CostModel::paper_calibrated();
        assert_eq!(d.clone_call, p.clone_call);
        assert_eq!(d.exec_base, p.exec_base);
    }

    #[test]
    fn major_fault_dominated_by_trap_not_copy() {
        // A userfaultfd round-trip costs microseconds while the in-kernel
        // page copy costs hundreds of nanoseconds — the trap must dominate,
        // otherwise lazy restore would never lose to prefetch on hot pages.
        let costs = CostModel::paper_calibrated();
        assert!(costs.fault_trap.as_nanos() > 10 * costs.page_copy.as_nanos());
        assert!(costs.fault_minor.as_nanos() < costs.fault_trap.as_nanos());
    }

    #[test]
    fn cow_break_between_copy_and_uffd_trap() {
        // A hardware write-protect fault is far cheaper than a
        // userfaultfd round-trip but dearer than the bare page copy it
        // defers — otherwise CoW restore could never win over eager.
        let costs = CostModel::paper_calibrated();
        assert!(costs.cow_break < costs.fault_trap);
        assert!(costs.cow_break.as_nanos() > costs.page_copy.as_nanos());
    }

    #[test]
    fn extent_setup_amortises_over_a_run() {
        // A vectored op only wins if its one-time setup is far below the
        // per-page costs it replaces across a typical run: setup must sit
        // between a single page copy (else never worth batching) and the
        // cost of a uffd trap (else batched fault servicing is pointless).
        let costs = CostModel::paper_calibrated();
        assert!(costs.extent_setup.as_nanos() > costs.page_copy.as_nanos());
        assert!(costs.extent_setup < costs.fault_trap);
        assert!(CostModel::free().extent_setup.is_zero());
    }

    #[test]
    fn seek_between_extent_setup_and_fault_trap() {
        // A seek breaks readahead, so it must out-price the vectored
        // dispatch it interrupts — else fault-order packing buys nothing —
        // while staying well under a userfaultfd round-trip, or scattered
        // prefetch would price like lazy faulting and the prefetch-beats-
        // lazy calibration would collapse.
        let costs = CostModel::paper_calibrated();
        assert!(costs.fs_seek > costs.extent_setup);
        assert!(costs.fs_seek < costs.fault_trap);
        assert!(CostModel::free().fs_seek.is_zero());
    }

    #[test]
    fn fallback_fault_dearer_than_hot_fault() {
        // Falling through the compacted hot image to the cold full
        // snapshot costs strictly more than a hot-path major fault —
        // compaction is only sound as a bet that such faults are rare.
        let costs = CostModel::paper_calibrated();
        assert!(costs.fault_fallback > costs.fault_trap);
        assert!(CostModel::free().fault_fallback.is_zero());
    }

    #[test]
    fn clone_exec_are_tiny_fraction_of_70ms_rts() {
        // Paper Fig. 4: CLONE and EXEC contribute a tiny fraction of the
        // ~100ms+ start-up, dominated by the ~70ms RTS phase.
        let costs = CostModel::paper_calibrated();
        let clone_exec = costs.clone_call + costs.exec_base;
        assert!(clone_exec.as_millis_f64() < 2.0);
    }
}
