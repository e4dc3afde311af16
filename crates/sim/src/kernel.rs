//! The simulated machine: one kernel = one node.
//!
//! The kernel owns the virtual clock, the cost model, the noise source,
//! the process table, the filesystem and the port namespace. Every
//! operation other layers perform flows through a kernel method, which
//! validates it against POSIX-ish semantics, mutates real state and
//! charges calibrated virtual time.

use bytes::Bytes;

use std::collections::BTreeMap;

use crate::cost::{per_byte, CostModel};
use crate::error::{Errno, SysResult};
use crate::fs::SimFs;
use crate::mem::{Page, Prot, VirtAddr, VmaKind, PAGE_SIZE};
use crate::noise::Noise;
use crate::pagestore::SharedPageStore;
use crate::probe::{ProbeEvent, ProbeKind};
use crate::proc::{CapSet, FdEntry, Pid, ProcState, Process, ThreadState, Tid};
use crate::time::{Clock, SimDuration, SimInstant};
use crate::trace::{SpanId, TraceSpan, Tracer};
use crate::uffd::UffdBackend;

/// Pid of the always-present init process.
pub const INIT_PID: Pid = Pid(1);

/// A simulated machine.
///
/// # Examples
///
/// ```
/// use prebake_sim::kernel::{Kernel, INIT_PID};
///
/// let mut k = Kernel::new(42);
/// k.fs_create_dir_all("/app").unwrap();
/// k.fs_write_file("/app/bin", vec![0u8; 1024]).unwrap();
/// let pid = k.sys_clone(INIT_PID).unwrap();
/// k.sys_execve(pid, "/app/bin", &["bin".into()]).unwrap();
/// assert!(k.now().as_nanos() > 0, "work was charged to the clock");
/// ```
#[derive(Debug)]
pub struct Kernel {
    clock: Clock,
    costs: CostModel,
    noise: Noise,
    procs: BTreeMap<Pid, Process>,
    fs: SimFs,
    next_pid: u32,
    next_tid: u32,
    bound_ports: BTreeMap<u16, Pid>,
    tracing: bool,
    trace: Vec<ProbeEvent>,
    /// Nested span recorder (disabled by default; see [`crate::trace`]).
    tracer: Tracer,
    /// Demand-paging registrations (`userfaultfd` analogue), per process.
    uffd: BTreeMap<Pid, UffdBackend>,
    /// Machine-wide content-addressed pool of shared page frames backing
    /// copy-on-write restores.
    page_store: SharedPageStore,
}

impl Kernel {
    /// Creates a machine with paper-calibrated costs and ±1.5 % noise.
    pub fn new(seed: u64) -> Self {
        Kernel::with_config(CostModel::paper_calibrated(), Noise::new(seed, 0.015))
    }

    /// Creates a machine with explicit cost and noise configuration.
    pub fn with_config(costs: CostModel, noise: Noise) -> Self {
        let mut procs = BTreeMap::new();
        let mut init = Process::new(INIT_PID, INIT_PID, "init", Tid(1));
        init.caps = CapSet::all();
        procs.insert(INIT_PID, init);
        Kernel {
            clock: Clock::new(),
            costs,
            noise,
            procs,
            fs: SimFs::new(),
            next_pid: 2,
            next_tid: 2,
            bound_ports: BTreeMap::new(),
            tracing: false,
            trace: Vec::new(),
            tracer: Tracer::new(),
            uffd: BTreeMap::new(),
            page_store: SharedPageStore::new(),
        }
    }

    /// A machine whose operations cost nothing — for state-only tests.
    pub fn free(seed: u64) -> Self {
        Kernel::with_config(CostModel::free(), Noise::new(seed, 0.0))
    }

    // ---------------------------------------------------------------- time

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Charges `base` work to the clock, perturbed by the noise source.
    /// Returns the actual (jittered) duration.
    pub fn charge(&mut self, base: SimDuration) -> SimDuration {
        let actual = self.noise.jitter(base);
        self.clock.advance(actual);
        actual
    }

    /// Advances the clock without noise (external waits, think time).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Moves the clock forward to `t` if it lags (event-queue sync).
    pub fn advance_to(&mut self, t: SimInstant) {
        self.clock.advance_to(t);
    }

    /// Runs `f` without advancing the clock: whatever virtual time the
    /// enclosed operations would charge is rolled back afterwards.
    ///
    /// This models work that happens *outside* any measured timeline —
    /// container-image pulls, artifact installation, machine provisioning
    /// — which the paper deliberately excludes ("we deliberately excluded
    /// some typical components of FaaS platforms, such as container
    /// orchestrators"). State changes (files written, processes created,
    /// cache warmth) persist; only time is suppressed.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error; the clock is restored either way.
    pub fn uncharged<T>(
        &mut self,
        f: impl FnOnce(&mut Kernel) -> crate::error::SysResult<T>,
    ) -> crate::error::SysResult<T> {
        let before = self.clock.now();
        let result = f(self);
        self.clock.set(before);
        result
    }

    /// The cost table in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    // ------------------------------------------------------------- tracing

    /// Enables or disables probe recording.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Drains the recorded probe events.
    pub fn take_trace(&mut self) -> Vec<ProbeEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Emits a user-level marker (runtime log line analogue).
    pub fn emit_marker(&mut self, pid: Pid, name: impl Into<String>) {
        self.probe(pid, ProbeKind::Marker(name.into()));
    }

    /// Records a probe event: appended to the flat trace when probe
    /// tracing is on, and attached to the innermost open span when span
    /// tracing is on. Both sinks are independent, so span trees carry the
    /// exact event stream the `PhaseTracker` folds.
    fn probe(&mut self, pid: Pid, kind: ProbeKind) {
        if !self.tracing && !self.tracer.enabled() {
            return;
        }
        let event = ProbeEvent {
            time: self.clock.now(),
            pid,
            kind,
        };
        if self.tracer.enabled() {
            self.tracer.annotate(event.clone());
        }
        if self.tracing {
            self.trace.push(event);
        }
    }

    fn probe_enter(&mut self, pid: Pid, name: &'static str) {
        self.probe(pid, ProbeKind::SyscallEnter(name));
    }

    fn probe_exit(&mut self, pid: Pid, name: &'static str) {
        self.probe(pid, ProbeKind::SyscallExit(name));
    }

    fn probe_fault(&mut self, pid: Pid, major: bool) {
        self.probe(pid, ProbeKind::PageFault { major });
    }

    fn probe_cow_break(&mut self, pid: Pid) {
        self.probe(pid, ProbeKind::CowBreak);
    }

    fn probe_extent_copy(&mut self, pid: Pid, pages: u64) {
        self.probe(pid, ProbeKind::ExtentCopy { pages });
    }

    fn probe_fault_around(&mut self, pid: Pid, pages: u64) {
        self.probe(pid, ProbeKind::FaultAround { pages });
    }

    // --------------------------------------------------------------- spans

    /// Enables or disables span recording (independent of probe tracing).
    pub fn set_span_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Opens a named span at the current virtual time, nested under the
    /// innermost open span. Returns `SpanId::NONE` (ignored everywhere)
    /// while span tracing is off, so call sites bracket unconditionally.
    pub fn span_begin(&mut self, name: &'static str, pid: Pid) -> SpanId {
        let now = self.clock.now();
        self.tracer.begin(name, pid, now)
    }

    /// Closes a span at the current virtual time. Open descendants are
    /// closed at the same instant (error paths that skipped their own
    /// `span_end` stay well-formed).
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.clock.now();
        self.tracer.end(id, now);
    }

    /// Attaches a key/value attribute to a recorded span.
    pub fn span_attr(&mut self, id: SpanId, key: &'static str, value: impl Into<String>) {
        self.tracer.attr(id, key, value);
    }

    /// Number of spans currently open — non-zero means an enclosing
    /// tracing session owns the tree being recorded.
    pub fn open_spans(&self) -> usize {
        self.tracer.open_spans()
    }

    /// Drains recorded spans, closing any still open at the current time.
    pub fn take_spans(&mut self) -> Vec<TraceSpan> {
        let now = self.clock.now();
        self.tracer.take(now)
    }

    // ------------------------------------------------------------ processes

    /// Immutable access to a process.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process.
    pub fn process(&self, pid: Pid) -> SysResult<&Process> {
        self.procs.get(&pid).ok_or(Errno::Esrch)
    }

    /// Mutable access to a process.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process.
    pub fn process_mut(&mut self, pid: Pid) -> SysResult<&mut Process> {
        self.procs.get_mut(&pid).ok_or(Errno::Esrch)
    }

    fn alloc_tid(&mut self) -> Tid {
        let t = Tid(self.next_tid);
        self.next_tid += 1;
        t
    }

    /// `clone(2)`: creates a child duplicating the parent's memory and
    /// descriptor table.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if the parent does not exist.
    pub fn sys_clone(&mut self, parent: Pid) -> SysResult<Pid> {
        let span = self.span_begin("sys_clone", parent);
        self.probe_enter(parent, "clone");
        let cost = self.costs.clone_call;
        self.charge(cost);
        let parent_proc = self.procs.get(&parent).ok_or(Errno::Esrch)?.clone();
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let tid = self.alloc_tid();
        let mut child = Process::new(pid, parent, parent_proc.comm.clone(), tid);
        child.mem = parent_proc.mem.clone();
        child.fds = parent_proc.fds.clone();
        child.caps = parent_proc.caps;
        child.cmdline = parent_proc.cmdline.clone();
        self.procs.insert(pid, child);
        // The copied address space keeps its missing marks, so the child
        // needs the backend too (UFFD_FEATURE_FORK semantics).
        if let Some(backend) = self.uffd.get(&parent).cloned() {
            self.uffd.insert(pid, backend);
        }
        self.probe_exit(parent, "clone");
        self.span_end(span);
        Ok(pid)
    }

    /// `execve(2)`: replaces the process image with `path`.
    ///
    /// Reads the binary (cold or warm), resets the address space, maps the
    /// text/data segment and a stack, and records the command line.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] / [`Errno::Enoent`] on missing process/binary.
    pub fn sys_execve(&mut self, pid: Pid, path: &str, argv: &[String]) -> SysResult<()> {
        let span = self.span_begin("sys_execve", pid);
        self.probe_enter(pid, "execve");
        let (data, cached) = self.fs.read_file(path)?;
        let read_cost = self.costs.fs_read(data.len() as u64, cached);
        let exec_cost = self.costs.exec_base;
        self.charge(exec_cost + read_cost);

        let comm = path.rsplit('/').next().unwrap_or(path).to_owned();
        self.uffd.remove(&pid); // exec tears down the registered regions
        let proc = self.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        proc.mem = crate::mem::AddressSpace::new();
        proc.comm = comm;
        proc.cmdline = argv.to_vec();
        // Text/data segment: file-backed, pages arrive from the page cache
        // (already charged above), so they are not materialised here.
        proc.mem.mmap(
            (data.len() as u64).max(PAGE_SIZE as u64),
            Prot::RX,
            VmaKind::Binary {
                path: path.to_owned(),
            },
        )?;
        // 8 MiB stack, demand-zero.
        proc.mem.mmap(8 << 20, Prot::RW, VmaKind::Stack)?;
        self.probe_exit(pid, "execve");
        self.span_end(span);
        Ok(())
    }

    /// Terminates a process (voluntary exit or kill).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process.
    pub fn sys_exit(&mut self, pid: Pid, code: i32) -> SysResult<()> {
        let cost = self.costs.exit_call;
        self.charge(cost);
        let proc = self.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        proc.state = ProcState::Zombie;
        proc.exit_code = Some(code);
        proc.mem = crate::mem::AddressSpace::new();
        proc.fds = crate::proc::FdTable::new();
        self.bound_ports.retain(|_, owner| *owner != pid);
        self.uffd.remove(&pid);
        // Dropping the address space released its shared-frame
        // references; frames no replica maps any more go with it.
        self.page_store.reclaim();
        Ok(())
    }

    /// Reaps a zombie, removing it from the table.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process, [`Errno::Echild`] if it has
    /// not exited.
    pub fn reap(&mut self, pid: Pid) -> SysResult<i32> {
        let proc = self.procs.get(&pid).ok_or(Errno::Esrch)?;
        let code = proc.exit_code.ok_or(Errno::Echild)?;
        self.procs.remove(&pid);
        self.uffd.remove(&pid);
        Ok(code)
    }

    // -------------------------------------------------------------- memory

    /// `mmap` at an allocator-chosen address.
    ///
    /// # Errors
    ///
    /// Propagates address-space errors ([`Errno::Einval`]).
    pub fn sys_mmap(
        &mut self,
        pid: Pid,
        len: u64,
        prot: Prot,
        kind: VmaKind,
    ) -> SysResult<VirtAddr> {
        let cost = self.costs.mmap_base;
        self.charge(cost);
        self.procs
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .mem
            .mmap(len, prot, kind)
    }

    /// `mmap` at a fixed address (restore path).
    ///
    /// # Errors
    ///
    /// Propagates address-space errors ([`Errno::Eexist`], [`Errno::Einval`]).
    pub fn sys_mmap_fixed(
        &mut self,
        pid: Pid,
        start: VirtAddr,
        len: u64,
        prot: Prot,
        kind: VmaKind,
    ) -> SysResult<VirtAddr> {
        let cost = self.costs.mmap_base;
        self.charge(cost);
        self.procs
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .mem
            .mmap_fixed(start, len, prot, kind)
    }

    /// Writes guest memory, charging fault + copy costs. Missing pages in
    /// the range are demand-paged in first (major faults).
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] / [`Errno::Eperm`] per address-space rules.
    pub fn mem_write(&mut self, pid: Pid, addr: VirtAddr, bytes: &[u8]) -> SysResult<()> {
        self.resolve_faults(pid, addr, bytes.len() as u64)?;
        let stats = self
            .procs
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .mem
            .write(addr, bytes)?;
        let cost = self.costs.page_touch * stats.pages_materialized
            + self.costs.page_copy * stats.pages_touched;
        self.charge(cost);
        if stats.cow_broken > 0 {
            // Write-protect faults on shared frames: the deferred
            // private copy is paid now, once per broken page.
            let break_cost = self.costs.cow_break * stats.cow_broken;
            self.charge(break_cost);
            for _ in 0..stats.cow_broken {
                self.probe_cow_break(pid);
            }
        }
        if stats.pages_materialized > 0 && self.uffd.contains_key(&pid) {
            // Demand-zero materialisation under a registered region is a
            // minor fault: counted and lightly charged, no content fetch.
            let minor_cost = self.costs.fault_minor * stats.pages_materialized;
            self.charge(minor_cost);
            self.uffd
                .get_mut(&pid)
                .expect("registration checked above")
                .note_minor(stats.pages_materialized);
            for _ in 0..stats.pages_materialized {
                self.probe_fault(pid, false);
            }
        }
        Ok(())
    }

    /// Reads guest memory, charging copy costs. Missing pages in the range
    /// are demand-paged in first (major faults).
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] per address-space rules.
    pub fn mem_read(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SysResult<Vec<u8>> {
        self.resolve_faults(pid, addr, len)?;
        let (data, stats) = self
            .procs
            .get(&pid)
            .ok_or(Errno::Esrch)?
            .mem
            .read(addr, len)?;
        let cost = self.costs.page_copy * stats.pages_touched;
        self.charge(cost);
        Ok(data)
    }

    /// Lends guest memory `[addr, addr + len)` as one slice per page it
    /// spans, in address order, instead of copying it out. Faults and
    /// charges exactly as [`Kernel::mem_read`] does: missing pages are
    /// demand-paged in first, then each page touched costs one
    /// `CostModel::page_copy`. Unmaterialised pages lend zeros. The
    /// slices borrow the machine, so they end before its next call.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] per address-space rules.
    pub fn mem_view(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SysResult<Vec<&[u8]>> {
        self.resolve_faults(pid, addr, len)?;
        let proc = self.procs.get(&pid).ok_or(Errno::Esrch)?;
        let (chunks, stats) = proc.mem.view(addr, len)?;
        // `charge`, spelled out: the slices keep `procs` borrowed.
        let cost = self
            .noise
            .jitter(self.costs.page_copy * stats.pages_touched);
        self.clock.advance(cost);
        Ok(chunks)
    }

    /// Touches guest memory the way in-guest execution does: missing
    /// pages in the range are demand-paged in (major faults, with their
    /// usual charges), but no copy-out happens and nothing else is
    /// charged — present pages cost nothing to run over.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] per address-space rules.
    pub fn mem_touch(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SysResult<()> {
        self.resolve_faults(pid, addr, len)
    }

    // --------------------------------------------------- scatter-gather ops

    /// Installs a run of contiguous pages starting at `start_index` as
    /// one vectored copy — the `preadv`/iovec analogue the extent-based
    /// restore uses. Charges one [`CostModel::extent_setup`] for the
    /// whole run and emits a single [`ProbeKind::ExtentCopy`] event. The
    /// per-page streaming share is the caller's to charge (criu's
    /// `restore_per_page` install cost): bytes move at the same rate on
    /// both gears, so pricing it here would double-charge the vectored
    /// path relative to the page-granular one.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process; [`Errno::Efault`] if any page
    /// of the run is outside a mapping (pages before the bad one stay
    /// installed, as a partial `pwritev` would leave them).
    pub fn copy_extent(&mut self, pid: Pid, start_index: u64, pages: &[Page]) -> SysResult<()> {
        if pages.is_empty() {
            return Ok(());
        }
        let n = pages.len() as u64;
        let cost = self.costs.extent_setup;
        self.charge(cost);
        self.probe_extent_copy(pid, n);
        let proc = self.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        for (i, page) in pages.iter().enumerate() {
            proc.mem
                .install_page(start_index + i as u64, page.clone())?;
        }
        Ok(())
    }

    // ------------------------------------------------------- demand paging

    /// Registers a demand-paging backend for `pid` — the `UFFDIO_REGISTER`
    /// analogue. Every page the backend holds is marked missing in the
    /// process's address space; the first touch of each resolves it as a
    /// *major* fault, charging `CostModel::fault_trap` plus a warm
    /// per-byte fetch and a page copy. The registration lives until the
    /// process exits or execs.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process, [`Errno::Ebusy`] if already
    /// registered, [`Errno::Efault`] if a backend page is outside any
    /// mapping, [`Errno::Eexist`] if one is already materialised.
    pub fn uffd_register(&mut self, pid: Pid, backend: UffdBackend) -> SysResult<()> {
        if self.uffd.contains_key(&pid) {
            return Err(Errno::Ebusy);
        }
        let cost = self.costs.mmap_base;
        self.charge(cost);
        let proc = self.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        // Validate before mutating so a bad backend leaves no stray marks.
        for idx in backend.page_indices() {
            let addr = VirtAddr(idx * PAGE_SIZE as u64);
            if proc.mem.find_vma(addr).is_none() {
                return Err(Errno::Efault);
            }
            if proc.mem.page(idx).is_some() {
                return Err(Errno::Eexist);
            }
        }
        for idx in backend.page_indices() {
            proc.mem.mark_missing(idx)?;
        }
        self.uffd.insert(pid, backend);
        Ok(())
    }

    /// Turns working-set recording on or off for `pid`'s backend. While
    /// on, each major fault appends its page index to an ordered log.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if `pid` has no registered backend.
    pub fn uffd_set_record(&mut self, pid: Pid, on: bool) -> SysResult<()> {
        self.uffd
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .set_recording(on);
        Ok(())
    }

    /// Takes the ordered major-fault log recorded for `pid` and stops
    /// recording. First-faulted page first; refaults never appear because
    /// a resolved page is no longer missing.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if `pid` has no registered backend.
    pub fn uffd_take_log(&mut self, pid: Pid) -> SysResult<Vec<u64>> {
        Ok(self.uffd.get_mut(&pid).ok_or(Errno::Esrch)?.take_log())
    }

    /// `(major, minor)` fault counts for `pid`'s backend; zeros if none is
    /// registered.
    pub fn uffd_fault_counts(&self, pid: Pid) -> (u64, u64) {
        self.uffd
            .get(&pid)
            .map(|b| (b.major_faults(), b.minor_faults()))
            .unwrap_or((0, 0))
    }

    /// Bulk-installs `pages` from `pid`'s backend before any touch — the
    /// prefetch path. The still-missing pages are coalesced into runs of
    /// consecutive indices, each moved as one scatter-gather operation:
    /// one [`CostModel::extent_setup`] plus a warm read of the run and a
    /// page copy per page, with no per-page trap. Pages that are not
    /// missing (already resolved), unknown to the backend or repeated are
    /// skipped. Returns the number of pages installed.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if `pid` has no registered backend or no process.
    pub fn uffd_prefetch(&mut self, pid: Pid, pages: &[u64]) -> SysResult<u64> {
        let backend = self.uffd.get(&pid).ok_or(Errno::Esrch)?;
        let proc = self.procs.get(&pid).ok_or(Errno::Esrch)?;
        let mut batch: Vec<u64> = pages
            .iter()
            .copied()
            .filter(|&idx| proc.mem.is_missing(idx) && backend.page(idx).is_some())
            .collect();
        // Coalesce into maximal runs of consecutive page indices, so runs
        // only form where indices actually neighbour.
        batch.sort_unstable();
        batch.dedup();
        let n = batch.len() as u64;
        if n == 0 {
            return Ok(0);
        }
        let runs = || batch.chunk_by(|a, b| *b == a + 1);
        let span = self.span_begin("uffd_prefetch", pid);
        self.span_attr(span, "pages", n.to_string());
        self.span_attr(span, "runs", runs().count().to_string());
        for run in runs() {
            let len = run.len() as u64;
            let cost = self.costs.extent_setup
                + per_byte(len * PAGE_SIZE as u64, self.costs.fs_read_warm_ns_per_byte)
                + self.costs.page_copy * len;
            self.charge(cost);
            self.probe_extent_copy(pid, len);
            self.install_from_backend(pid, run.iter().copied())?;
        }
        self.span_end(span);
        Ok(n)
    }

    /// Resolves any missing pages in `[addr, addr+len)` before a touch:
    /// each is a major fault served from the registered backend.
    fn resolve_faults(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SysResult<()> {
        if !self.uffd.contains_key(&pid) {
            return Ok(());
        }
        let missing = match self.procs.get(&pid) {
            Some(p) => p.mem.missing_in_range(addr, len),
            None => return Ok(()),
        };
        if missing.is_empty() {
            return Ok(());
        }
        let span = self.span_begin("fault_service", pid);
        self.span_attr(span, "pages", missing.len().to_string());
        for idx in missing {
            // Fault-around servicing of an earlier trap may have already
            // installed this page — it never traps then.
            let still_missing = self.procs.get(&pid).is_some_and(|p| p.mem.is_missing(idx));
            if !still_missing {
                continue;
            }
            let backend = self.uffd.get_mut(&pid).expect("registration checked above");
            // `uffd_register` marks exactly the backend's pages missing, so
            // a missing page without content is a broken registration:
            // serving zeros would restore wrong bytes.
            if backend.page(idx).is_none() {
                return Err(Errno::Efault);
            }
            backend.note_major(idx);
            // One trap services up to `window` pages: the trapping page
            // plus forward-consecutive withheld neighbours, all moved
            // under the single fault's service charge (the handler
            // answering one uffd message with a multi-page copy).
            let window = backend.fault_around() as u64;
            let proc = self.procs.get(&pid).ok_or(Errno::Esrch)?;
            let backend = self.uffd.get(&pid).expect("registration checked above");
            let neighbours = (idx + 1..idx + window)
                .take_while(|&next| proc.mem.is_missing(next) && backend.page(next).is_some());
            let batch = idx..idx + 1 + neighbours.count() as u64;
            let n = batch.end - idx;
            // Pages missing from the compacted hot image fall through to
            // the full snapshot kept behind it — each pays the extra
            // fallback penalty on top of the normal service charge.
            let fallback = batch.clone().filter(|&i| backend.is_fallback(i)).count() as u64;
            let cost = self.costs.fault_trap
                + per_byte(n * PAGE_SIZE as u64, self.costs.fs_read_warm_ns_per_byte)
                + self.costs.page_copy * n
                + self.costs.fault_fallback * fallback;
            self.charge(cost);
            self.probe_fault(pid, true);
            if n > 1 {
                self.probe_fault_around(pid, n - 1);
            }
            self.install_from_backend(pid, batch)?;
        }
        self.span_end(span);
        Ok(())
    }

    /// Installs `pages` from `pid`'s backend, each a refcount bump on
    /// the backend's page (`UFFDIO_COPY`; the caller charges it).
    fn install_from_backend(
        &mut self,
        pid: Pid,
        pages: impl IntoIterator<Item = u64>,
    ) -> SysResult<()> {
        let backend = self.uffd.get(&pid).ok_or(Errno::Esrch)?;
        let proc = self.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        for idx in pages {
            let page = backend.page(idx).ok_or(Errno::Efault)?;
            proc.mem.install_page(idx, page.clone())?;
        }
        Ok(())
    }

    // ------------------------------------------------- shared page frames

    /// The machine's content-addressed shared frame pool.
    pub fn page_store(&self) -> &SharedPageStore {
        &self.page_store
    }

    /// Maps a run of contiguous shared frames copy-on-write in one
    /// vectored operation, starting at `start_index`: each `(hash, page)`
    /// pair is interned in the pool and its frame mapped at the next
    /// index. One [`CostModel::extent_setup`] charge and one
    /// [`ProbeKind::ExtentCopy`] event cover the whole run; the frame
    /// mappings themselves move no bytes — the restore engine prices
    /// them, and the copy is deferred to the first write
    /// ([`CostModel::cow_break`]).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process; [`Errno::Efault`] /
    /// [`Errno::Eexist`] per `AddressSpace::map_shared`
    /// (pages before the bad one stay mapped).
    pub fn cow_map_extent(
        &mut self,
        pid: Pid,
        start_index: u64,
        frames: &[(u64, Page)],
    ) -> SysResult<()> {
        if frames.is_empty() {
            return Ok(());
        }
        let cost = self.costs.extent_setup;
        self.charge(cost);
        self.probe_extent_copy(pid, frames.len() as u64);
        for (i, (hash, page)) in frames.iter().enumerate() {
            let frame = self.page_store.get_or_insert(*hash, || page.clone());
            self.procs
                .get_mut(&pid)
                .ok_or(Errno::Esrch)?
                .mem
                .map_shared(start_index + i as u64, frame)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------ filesystem

    /// Creates a directory tree, charging one metadata op per call.
    ///
    /// # Errors
    ///
    /// Propagates [`SimFs::create_dir_all`] errors.
    pub fn fs_create_dir_all(&mut self, path: &str) -> SysResult<()> {
        let cost = self.costs.fs_meta;
        self.charge(cost);
        self.fs.create_dir_all(path)
    }

    /// Writes a file, charging per byte.
    ///
    /// # Errors
    ///
    /// Propagates [`SimFs::write_file`] errors.
    pub fn fs_write_file(&mut self, path: &str, data: impl Into<Bytes>) -> SysResult<()> {
        let data = data.into();
        let cost = self.costs.fs_write(data.len() as u64);
        self.charge(cost);
        self.fs.write_file(path, data)
    }

    /// Reads a whole file, charging cold or warm rates.
    ///
    /// # Errors
    ///
    /// Propagates [`SimFs::read_file`] errors.
    pub fn fs_read_file(&mut self, path: &str) -> SysResult<Bytes> {
        let (data, cached) = self.fs.read_file(path)?;
        let cost = self.costs.fs_read(data.len() as u64, cached);
        self.charge(cost);
        Ok(data)
    }

    /// Removes a file (metadata cost only).
    ///
    /// # Errors
    ///
    /// Propagates `SimFs::remove_file` errors.
    pub fn fs_remove_file(&mut self, path: &str) -> SysResult<()> {
        let cost = self.costs.fs_meta;
        self.charge(cost);
        self.fs.remove_file(path)
    }

    /// Returns `true` if a path exists (no charge — host-side check).
    pub fn fs_exists(&self, path: &str) -> bool {
        self.fs.exists(path)
    }

    /// Direct (uncharged) view of the filesystem for assertions and
    /// artifact installation by the test/bench harness.
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// Direct (uncharged) mutable view of the filesystem.
    pub fn fs_mut(&mut self) -> &mut SimFs {
        &mut self.fs
    }

    /// Evicts the machine-wide page cache (fresh-container model).
    pub fn drop_caches(&mut self) {
        self.fs.drop_caches();
    }

    // ------------------------------------------------------- fds and sockets

    /// Creates a listening socket bound to `port`.
    ///
    /// # Errors
    ///
    /// [`Errno::Eaddrinuse`] if the port is bound.
    pub fn sys_listen(&mut self, pid: Pid, port: u16) -> SysResult<i32> {
        if self.bound_ports.contains_key(&port) {
            return Err(Errno::Eaddrinuse);
        }
        let cost = self.costs.socket_listen;
        self.charge(cost);
        let fd = self
            .procs
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .fds
            .insert(FdEntry::Listener { port });
        self.bound_ports.insert(port, pid);
        Ok(fd)
    }

    /// Re-binds a listener at a fixed descriptor (restore path).
    ///
    /// # Errors
    ///
    /// [`Errno::Eaddrinuse`] / fd-table errors.
    pub fn sys_listen_at(&mut self, pid: Pid, fd: i32, port: u16) -> SysResult<()> {
        if self.bound_ports.contains_key(&port) {
            return Err(Errno::Eaddrinuse);
        }
        let cost = self.costs.socket_listen;
        self.charge(cost);
        self.procs
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .fds
            .insert_at(fd, FdEntry::Listener { port })?;
        self.bound_ports.insert(port, pid);
        Ok(())
    }

    /// The pid listening on `port`, if any.
    pub fn port_owner(&self, port: u16) -> Option<Pid> {
        self.bound_ports.get(&port).copied()
    }

    /// Models a TCP accept on a listening socket (request arrival).
    ///
    /// # Errors
    ///
    /// [`Errno::Enotconn`] if nothing listens on `port`.
    pub fn socket_accept(&mut self, port: u16) -> SysResult<Pid> {
        let owner = self.port_owner(port).ok_or(Errno::Enotconn)?;
        let cost = self.costs.socket_accept;
        self.charge(cost);
        Ok(owner)
    }

    /// Charges the cost of streaming `bytes` through a pipe (the parasite
    /// → dumper page channel).
    pub fn pipe_xfer(&mut self, bytes: u64) {
        let cost = self.costs.pipe_xfer(bytes);
        self.charge(cost);
    }

    // --------------------------------------------------------------- ptrace

    fn check_ptrace_perm(&self, tracer: Pid, target: Pid) -> SysResult<()> {
        let t = self.process(tracer)?;
        let tgt = self.process(target)?;
        if t.caps.can_checkpoint() || tgt.ppid == tracer {
            Ok(())
        } else {
            Err(Errno::Eperm)
        }
    }

    /// `PTRACE_SEIZE`: attaches `tracer` to `target`.
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] without capability (unless the target is a child),
    /// [`Errno::Ebusy`] if already traced.
    pub fn ptrace_seize(&mut self, tracer: Pid, target: Pid) -> SysResult<()> {
        self.check_ptrace_perm(tracer, target)?;
        let cost = self.costs.ptrace_attach;
        self.charge(cost);
        let tgt = self.procs.get_mut(&target).ok_or(Errno::Esrch)?;
        if tgt.traced_by.is_some() {
            return Err(Errno::Ebusy);
        }
        tgt.traced_by = Some(tracer);
        Ok(())
    }

    /// `PTRACE_INTERRUPT` on every thread: freezes the target.
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if `tracer` has not seized `target`.
    pub fn ptrace_freeze(&mut self, tracer: Pid, target: Pid) -> SysResult<()> {
        let tgt = self.procs.get(&target).ok_or(Errno::Esrch)?;
        if tgt.traced_by != Some(tracer) {
            return Err(Errno::Eperm);
        }
        let threads = tgt.threads.len() as u64;
        let cost = self.costs.ptrace_freeze_per_thread * threads;
        self.charge(cost);
        let tgt = self.procs.get_mut(&target).unwrap();
        for t in &mut tgt.threads {
            t.state = ThreadState::Frozen;
        }
        tgt.state = ProcState::Frozen;
        Ok(())
    }

    /// Reads one page of the (frozen) target's memory.
    ///
    /// Absent (demand-zero) pages read as zeros, matching `process_vm_readv`
    /// semantics.
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if not the tracer, [`Errno::Efault`] if unmapped.
    pub fn ptrace_peek_page(
        &mut self,
        tracer: Pid,
        target: Pid,
        page_index: u64,
    ) -> SysResult<Page> {
        {
            let tgt = self.procs.get(&target).ok_or(Errno::Esrch)?;
            if tgt.traced_by != Some(tracer) {
                return Err(Errno::Eperm);
            }
        }
        let addr = VirtAddr(page_index * PAGE_SIZE as u64);
        // A dump of a lazily restored task must observe backend content.
        self.resolve_faults(target, addr, PAGE_SIZE as u64)?;
        let tgt = self.procs.get(&target).expect("looked up above");
        if tgt.mem.find_vma(addr).is_none() {
            return Err(Errno::Efault);
        }
        let page = tgt
            .mem
            .page(page_index)
            .cloned()
            .unwrap_or_else(Page::zeroed);
        let cost = self.costs.ptrace_xfer_per_page;
        self.charge(cost);
        Ok(page)
    }

    /// Writes bytes into the target's memory (parasite code injection;
    /// bypasses page protections like `PTRACE_POKEDATA`).
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if not the tracer, [`Errno::Efault`] if unmapped.
    pub fn ptrace_poke(
        &mut self,
        tracer: Pid,
        target: Pid,
        addr: VirtAddr,
        bytes: &[u8],
    ) -> SysResult<()> {
        {
            let tgt = self.procs.get(&target).ok_or(Errno::Esrch)?;
            if tgt.traced_by != Some(tracer) {
                return Err(Errno::Eperm);
            }
        }
        let pages = bytes.len().div_ceil(PAGE_SIZE) as u64;
        let cost = self.costs.ptrace_xfer_per_page * pages.max(1);
        self.charge(cost);
        self.resolve_faults(target, addr, bytes.len() as u64)?;
        // Poke ignores write protection: temporarily raise it.
        let tgt = self.procs.get_mut(&target).unwrap();
        let vma = tgt.mem.find_vma(addr).ok_or(Errno::Efault)?.clone();
        if vma.prot.write {
            tgt.mem.write(addr, bytes)?;
        } else {
            // emulate text poking through a privileged path
            let start = vma.start;
            let len = vma.len;
            let kind = vma.kind.clone();
            tgt.mem.munmap(start)?;
            tgt.mem.mmap_fixed(start, len, Prot::RWX, kind)?;
            tgt.mem.write(addr, bytes)?;
        }
        Ok(())
    }

    /// Executes an `mmap` inside the target via the injected parasite
    /// ("remote syscall" in CRIU terminology).
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if not the tracer.
    pub fn remote_mmap(
        &mut self,
        tracer: Pid,
        target: Pid,
        len: u64,
        kind: VmaKind,
    ) -> SysResult<VirtAddr> {
        {
            let tgt = self.procs.get(&target).ok_or(Errno::Esrch)?;
            if tgt.traced_by != Some(tracer) {
                return Err(Errno::Eperm);
            }
        }
        let cost = self.costs.mmap_base + self.costs.ptrace_xfer_per_page;
        self.charge(cost);
        self.procs
            .get_mut(&target)
            .unwrap()
            .mem
            .mmap(len, Prot::RWX, kind)
    }

    /// Removes a parasite mapping from the target ("cure").
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if not the tracer, [`Errno::Einval`] if no mapping.
    pub fn remote_munmap(&mut self, tracer: Pid, target: Pid, start: VirtAddr) -> SysResult<()> {
        {
            let tgt = self.procs.get(&target).ok_or(Errno::Esrch)?;
            if tgt.traced_by != Some(tracer) {
                return Err(Errno::Eperm);
            }
        }
        let cost = self.costs.munmap_base + self.costs.ptrace_xfer_per_page;
        self.charge(cost);
        self.procs
            .get_mut(&target)
            .unwrap()
            .mem
            .munmap(start)
            .map(|_| ())
    }

    /// Resumes all frozen threads of the target.
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if not the tracer.
    pub fn ptrace_resume(&mut self, tracer: Pid, target: Pid) -> SysResult<()> {
        let tgt = self.procs.get(&target).ok_or(Errno::Esrch)?;
        if tgt.traced_by != Some(tracer) {
            return Err(Errno::Eperm);
        }
        let cost = self.costs.sched_resume;
        self.charge(cost);
        let tgt = self.procs.get_mut(&target).unwrap();
        for t in &mut tgt.threads {
            t.state = ThreadState::Running;
        }
        tgt.state = ProcState::Running;
        Ok(())
    }

    /// `PTRACE_DETACH`.
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] if not the tracer.
    pub fn ptrace_detach(&mut self, tracer: Pid, target: Pid) -> SysResult<()> {
        let tgt = self.procs.get_mut(&target).ok_or(Errno::Esrch)?;
        if tgt.traced_by != Some(tracer) {
            return Err(Errno::Eperm);
        }
        tgt.traced_by = None;
        let cost = self.costs.ptrace_detach;
        self.charge(cost);
        Ok(())
    }

    // ---------------------------------------------------------------- /proc

    /// Walks `/proc/<pid>/pagemap` for the mapping starting at `start`,
    /// returning indices of present (materialised) pages.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] / [`Errno::Einval`] on bad pid/mapping.
    pub fn proc_pagemap(&mut self, pid: Pid, start: VirtAddr) -> SysResult<Vec<u64>> {
        let proc = self.procs.get(&pid).ok_or(Errno::Esrch)?;
        let vma = proc
            .mem
            .vmas()
            .find(|v| v.start == start)
            .ok_or(Errno::Einval)?
            .clone();
        let cost = self.costs.pagemap_per_page * vma.page_count();
        self.charge(cost);
        let proc = self.procs.get(&pid).unwrap();
        Ok(proc.mem.present_pages(&vma))
    }

    /// Walks the pagemap soft-dirty bits for the mapping starting at
    /// `start`: indices of pages written since the last
    /// [`proc_clear_soft_dirty`](Kernel::proc_clear_soft_dirty).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] / [`Errno::Einval`] on bad pid/mapping.
    pub fn proc_pagemap_soft_dirty(&mut self, pid: Pid, start: VirtAddr) -> SysResult<Vec<u64>> {
        let proc = self.procs.get(&pid).ok_or(Errno::Esrch)?;
        let vma = proc
            .mem
            .vmas()
            .find(|v| v.start == start)
            .ok_or(Errno::Einval)?
            .clone();
        let cost = self.costs.pagemap_per_page * vma.page_count();
        self.charge(cost);
        let proc = self.procs.get(&pid).unwrap();
        Ok(proc.mem.soft_dirty_pages(&vma))
    }

    /// Clears the process's soft-dirty bits
    /// (`echo 4 > /proc/<pid>/clear_refs`).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if no such process.
    pub fn proc_clear_soft_dirty(&mut self, pid: Pid) -> SysResult<()> {
        let cost = self.costs.procfs_read;
        self.charge(cost);
        self.procs
            .get_mut(&pid)
            .ok_or(Errno::Esrch)?
            .mem
            .clear_soft_dirty();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pages of `pid` still marked missing.
    fn missing_pages(k: &Kernel, pid: Pid) -> u64 {
        let mem = &k.process(pid).unwrap().mem;
        mem.vmas()
            .map(|v| mem.missing_in_range(v.start, v.len).len() as u64)
            .sum()
    }

    fn kernel_with_bin(path: &str, size: usize) -> Kernel {
        let mut k = Kernel::free(1);
        k.fs_create_dir_all("/bin").unwrap();
        k.fs_write_file(path, vec![0xAB; size]).unwrap();
        k
    }

    #[test]
    fn clone_exec_lifecycle() {
        let mut k = kernel_with_bin("/bin/app", 4096);
        let pid = k.sys_clone(INIT_PID).unwrap();
        assert_ne!(pid, INIT_PID);
        k.sys_execve(pid, "/bin/app", &["app".into(), "-x".into()])
            .unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.comm, "app");
        assert_eq!(p.cmdline, vec!["app", "-x"]);
        assert_eq!(p.mem.vmas().count(), 2, "binary + stack");
        k.sys_exit(pid, 0).unwrap();
        assert_eq!(k.reap(pid).unwrap(), 0);
        assert!(k.process(pid).is_err());
    }

    #[test]
    fn clone_charges_calibrated_cost() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let t0 = k.now();
        k.sys_clone(INIT_PID).unwrap();
        assert_eq!(k.now() - t0, SimDuration::from_micros(400));
    }

    #[test]
    fn exec_charges_cold_then_warm() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        k.fs_create_dir_all("/bin").unwrap();
        k.fs_write_file("/bin/app", vec![0u8; 1 << 20]).unwrap();
        k.drop_caches();
        let a = k.sys_clone(INIT_PID).unwrap();
        let t0 = k.now();
        k.sys_execve(a, "/bin/app", &[]).unwrap();
        let cold = k.now() - t0;
        let b = k.sys_clone(INIT_PID).unwrap();
        let t1 = k.now();
        k.sys_execve(b, "/bin/app", &[]).unwrap();
        let warm = k.now() - t1;
        assert!(
            cold.as_nanos() > 3 * warm.as_nanos(),
            "cold {cold} vs warm {warm}"
        );
    }

    #[test]
    fn mem_write_read_through_kernel() {
        let mut k = Kernel::free(3);
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 2 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        k.mem_write(pid, addr, b"hello world").unwrap();
        let back = k.mem_read(pid, addr, 11).unwrap();
        assert_eq!(&back, b"hello world");
    }

    #[test]
    fn listener_port_exclusivity() {
        let mut k = Kernel::free(4);
        let a = k.sys_clone(INIT_PID).unwrap();
        let b = k.sys_clone(INIT_PID).unwrap();
        k.sys_listen(a, 8080).unwrap();
        assert_eq!(k.sys_listen(b, 8080).unwrap_err(), Errno::Eaddrinuse);
        assert_eq!(k.port_owner(8080), Some(a));
        assert_eq!(k.socket_accept(8080).unwrap(), a);
        k.sys_exit(a, 0).unwrap();
        assert_eq!(k.port_owner(8080), None);
        assert_eq!(k.socket_accept(8080).unwrap_err(), Errno::Enotconn);
        k.sys_listen(b, 8080).unwrap();
    }

    #[test]
    fn exit_releases_ports() {
        let mut k = Kernel::free(5);
        let a = k.sys_clone(INIT_PID).unwrap();
        k.sys_listen(a, 9000).unwrap();
        k.sys_exit(a, 0).unwrap();
        assert_eq!(k.port_owner(9000), None);
    }

    #[test]
    fn ptrace_requires_seize_then_freeze() {
        let mut k = Kernel::free(6);
        let tracer = k.sys_clone(INIT_PID).unwrap(); // inherits all caps
        let target = k.sys_clone(INIT_PID).unwrap();
        assert_eq!(
            k.ptrace_freeze(tracer, target).unwrap_err(),
            Errno::Eperm,
            "freeze before seize"
        );
        k.ptrace_seize(tracer, target).unwrap();
        assert_eq!(
            k.ptrace_seize(tracer, target).unwrap_err(),
            Errno::Ebusy,
            "double seize"
        );
        k.ptrace_freeze(tracer, target).unwrap();
        assert_eq!(k.process(target).unwrap().state, ProcState::Frozen);
        k.ptrace_resume(tracer, target).unwrap();
        assert_eq!(k.process(target).unwrap().state, ProcState::Running);
        k.ptrace_detach(tracer, target).unwrap();
        assert!(k.process(target).unwrap().traced_by.is_none());
    }

    #[test]
    fn ptrace_denied_without_caps() {
        let mut k = Kernel::free(7);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        k.process_mut(tracer).unwrap().caps = CapSet::empty();
        let target = k.sys_clone(INIT_PID).unwrap();
        assert_eq!(k.ptrace_seize(tracer, target).unwrap_err(), Errno::Eperm);
        // ...but a parent may trace its own child.
        let child = k.sys_clone(tracer).unwrap();
        k.ptrace_seize(tracer, child).unwrap();
    }

    #[test]
    fn peek_page_sees_target_memory() {
        let mut k = Kernel::free(8);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        k.mem_write(target, addr, &[0xCD; 32]).unwrap();
        k.ptrace_seize(tracer, target).unwrap();
        k.ptrace_freeze(tracer, target).unwrap();
        let page = k
            .ptrace_peek_page(tracer, target, addr.page_index())
            .unwrap();
        assert_eq!(page.bytes()[0], 0xCD);
        assert_eq!(
            k.ptrace_peek_page(tracer, target, 0).unwrap_err(),
            Errno::Efault
        );
    }

    #[test]
    fn parasite_inject_and_cure() {
        let mut k = Kernel::free(9);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        k.ptrace_seize(tracer, target).unwrap();
        k.ptrace_freeze(tracer, target).unwrap();
        let blob = k
            .remote_mmap(tracer, target, PAGE_SIZE as u64, VmaKind::Parasite)
            .unwrap();
        k.ptrace_poke(tracer, target, blob, &[0x90; 128]).unwrap();
        assert_eq!(
            k.process(target).unwrap().mem.find_vma(blob).unwrap().kind,
            VmaKind::Parasite
        );
        k.remote_munmap(tracer, target, blob).unwrap();
        assert!(k.process(target).unwrap().mem.find_vma(blob).is_none());
    }

    #[test]
    fn proc_views_render() {
        let mut k = Kernel::free(10);
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 3 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        k.mem_write(pid, addr.add(PAGE_SIZE as u64), &[1]).unwrap();
        let present = k.proc_pagemap(pid, addr).unwrap();
        assert_eq!(present, vec![addr.page_index() + 1]);
    }

    #[test]
    fn pagemap_of_unknown_vma_is_einval() {
        let mut k = Kernel::free(11);
        let pid = k.sys_clone(INIT_PID).unwrap();
        assert_eq!(
            k.proc_pagemap(pid, VirtAddr(0xdead000)).unwrap_err(),
            Errno::Einval
        );
    }

    #[test]
    fn tracing_records_clone_exec_and_markers() {
        let mut k = kernel_with_bin("/bin/app", 128);
        k.set_tracing(true);
        let pid = k.sys_clone(INIT_PID).unwrap();
        k.sys_execve(pid, "/bin/app", &[]).unwrap();
        k.emit_marker(pid, "ready");
        let trace = k.take_trace();
        let names: Vec<String> = trace
            .iter()
            .map(|e| match &e.kind {
                ProbeKind::SyscallEnter(n) => format!("enter:{n}"),
                ProbeKind::SyscallExit(n) => format!("exit:{n}"),
                ProbeKind::Marker(m) => format!("mark:{m}"),
                ProbeKind::PageFault { major } => format!("fault:major={major}"),
                ProbeKind::CowBreak => "cow-break".to_owned(),
                ProbeKind::ExtentCopy { pages } => format!("extent:{pages}"),
                ProbeKind::FaultAround { pages } => format!("fault-around:{pages}"),
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "enter:clone",
                "exit:clone",
                "enter:execve",
                "exit:execve",
                "mark:ready"
            ]
        );
        // times are monotone
        for w in trace.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(k.take_trace().is_empty(), "trace drained");
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let mut k = kernel_with_bin("/bin/app", 128);
        let pid = k.sys_clone(INIT_PID).unwrap();
        k.sys_execve(pid, "/bin/app", &[]).unwrap();
        k.emit_marker(pid, "ready");
        assert!(k.take_trace().is_empty());
    }

    #[test]
    fn cow_map_dedups_frames_and_write_breaks_with_charge_and_probe() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let a_pid = k.sys_clone(INIT_PID).unwrap();
        let b_pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(a_pid, 2 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        let addr_b = k
            .sys_mmap(b_pid, 2 * PAGE_SIZE as u64, Prot::RW, VmaKind::RuntimeHeap)
            .unwrap();
        assert_eq!(addr, addr_b, "fresh spaces allocate identically");

        // Two replicas map the same content hash: one frame machine-wide.
        for pid in [a_pid, b_pid] {
            let frame = (0xC0FFEE, Page::from_bytes(&[6u8; PAGE_SIZE]));
            k.cow_map_extent(pid, addr.page_index(), &[frame]).unwrap();
        }
        assert_eq!(k.page_store().resident_bytes(), PAGE_SIZE as u64);
        assert_eq!(k.page_store().external_refs(), 2);

        // Reads observe shared content and never break.
        assert_eq!(k.mem_read(a_pid, addr, 4).unwrap(), vec![6u8; 4]);
        assert_eq!(k.page_store().external_refs(), 2);

        // The first write pays exactly one cow_break beyond the plain
        // write cost, and emits the CowBreak probe.
        k.set_tracing(true);
        let before = k.now();
        k.mem_write(a_pid, addr, &[1u8; 8]).unwrap();
        let with_break = k.now() - before;
        let breaks: Vec<_> = k
            .take_trace()
            .into_iter()
            .filter(|e| e.kind == ProbeKind::CowBreak)
            .collect();
        assert_eq!(breaks.len(), 1);
        assert_eq!(breaks[0].pid, a_pid);
        k.set_tracing(false);

        let before = k.now();
        k.mem_write(a_pid, addr, &[2u8; 8]).unwrap();
        let plain = k.now() - before;
        assert_eq!(
            (with_break - plain).as_nanos(),
            k.costs().cow_break.as_nanos(),
            "break charged exactly once"
        );

        // Replica B still sees the pristine shared content.
        assert_eq!(k.mem_read(b_pid, addr, 4).unwrap(), vec![6u8; 4]);
        assert_eq!(k.page_store().external_refs(), 1);
    }

    #[test]
    fn exit_releases_shared_frames() {
        let mut k = Kernel::free(77);
        let a_pid = k.sys_clone(INIT_PID).unwrap();
        let b_pid = k.sys_clone(INIT_PID).unwrap();
        for pid in [a_pid, b_pid] {
            let addr = k
                .sys_mmap(pid, PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
                .unwrap();
            let frame = (9, Page::from_bytes(&[9u8; PAGE_SIZE]));
            k.cow_map_extent(pid, addr.page_index(), &[frame]).unwrap();
        }
        assert_eq!(k.page_store().external_refs(), 2);
        k.sys_exit(a_pid, 0).unwrap();
        assert_eq!(k.page_store().external_refs(), 1);
        assert_eq!(
            k.page_store().resident_bytes(),
            PAGE_SIZE as u64,
            "still mapped by b"
        );
        k.sys_exit(b_pid, 0).unwrap();
        assert_eq!(k.page_store().external_refs(), 0);
        assert_eq!(
            k.page_store().resident_bytes(),
            0,
            "last unmap reclaims the frame"
        );
    }

    #[test]
    fn ptrace_peek_sees_shared_frames() {
        // A dump of a CoW-restored process must read page content through
        // the shared mapping, exactly like private pages.
        let mut k = Kernel::free(78);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let target = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(target, PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        let frame = (5, Page::from_bytes(&[5u8; PAGE_SIZE]));
        k.cow_map_extent(target, addr.page_index(), &[frame])
            .unwrap();
        k.ptrace_seize(tracer, target).unwrap();
        let page = k
            .ptrace_peek_page(tracer, target, addr.page_index())
            .unwrap();
        assert!(page.bytes().iter().all(|&b| b == 5));
    }

    #[test]
    fn uncharged_preserves_state_but_not_time() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let before = k.now();
        let pid = k
            .uncharged(|k| {
                k.fs_create_dir_all("/setup")?;
                k.fs_write_file("/setup/data", vec![1u8; 1 << 20])?;
                k.sys_clone(INIT_PID)
            })
            .unwrap();
        assert_eq!(k.now(), before, "clock rolled back");
        assert!(k.fs_exists("/setup/data"), "state persists");
        assert!(k.process(pid).is_ok(), "process persists");
    }

    #[test]
    fn uncharged_restores_clock_on_error() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let before = k.now();
        let err = k
            .uncharged(|k| {
                k.fs_write_file("/made/it/partway", vec![0u8; 1024])?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, Errno::Enoent);
        assert_eq!(k.now(), before);
    }

    #[test]
    fn soft_dirty_kernel_interface() {
        let mut k = Kernel::free(21);
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 4 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        k.mem_write(pid, addr, &[1u8]).unwrap();
        k.mem_write(pid, addr.add(2 * PAGE_SIZE as u64), &[2u8])
            .unwrap();
        assert_eq!(k.proc_pagemap_soft_dirty(pid, addr).unwrap().len(), 2);
        k.proc_clear_soft_dirty(pid).unwrap();
        assert!(k.proc_pagemap_soft_dirty(pid, addr).unwrap().is_empty());
        k.mem_write(pid, addr, &[3u8]).unwrap();
        assert_eq!(
            k.proc_pagemap_soft_dirty(pid, addr).unwrap(),
            vec![addr.page_index()]
        );
        // present view unaffected by clears
        assert_eq!(k.proc_pagemap(pid, addr).unwrap().len(), 2);
    }

    fn lazy_proc(k: &mut Kernel, pages: u64) -> (Pid, VirtAddr, UffdBackend) {
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, pages * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        let mut backend = UffdBackend::new();
        for i in 0..pages {
            backend.insert_page(
                addr.page_index() + i,
                Page::from_bytes(&[i as u8 + 1; PAGE_SIZE]),
            );
        }
        (pid, addr, backend)
    }

    #[test]
    fn major_fault_serves_backend_content() {
        let mut k = Kernel::free(30);
        let (pid, addr, backend) = lazy_proc(&mut k, 4);
        k.uffd_register(pid, backend).unwrap();
        assert!(k.uffd.contains_key(&pid));
        assert_eq!(missing_pages(&k, pid), 4);
        assert_eq!(k.process(pid).unwrap().mem.resident_pages(), 0);

        // First touch demand-pages the content in.
        let got = k.mem_read(pid, addr.add(2 * PAGE_SIZE as u64), 8).unwrap();
        assert_eq!(got, vec![3u8; 8]);
        assert_eq!(k.uffd_fault_counts(pid), (1, 0));
        assert_eq!(missing_pages(&k, pid), 3);

        // Refault of the same page: already resolved, no new fault.
        k.mem_read(pid, addr.add(2 * PAGE_SIZE as u64), 8).unwrap();
        assert_eq!(k.uffd_fault_counts(pid), (1, 0));

        // A write faults the old content in before applying the store.
        k.mem_write(pid, addr, &[0xEE; 4]).unwrap();
        let page0 = k.mem_read(pid, addr, PAGE_SIZE as u64).unwrap();
        assert_eq!(&page0[..4], &[0xEE; 4]);
        assert_eq!(&page0[4..8], &[1u8; 4], "rest of the faulted page kept");
        assert_eq!(k.uffd_fault_counts(pid), (2, 0));
    }

    #[test]
    fn fault_on_a_page_the_backend_lost_is_efault() {
        let mut k = Kernel::free(35);
        let (pid, addr, backend) = lazy_proc(&mut k, 3);
        k.uffd_register(pid, backend).unwrap();
        // No public path drops a page from a registered backend; this
        // breaks the registration invariant directly.
        k.uffd
            .get_mut(&pid)
            .unwrap()
            .remove_page(addr.page_index() + 1);
        let lost = addr.add(PAGE_SIZE as u64);
        assert_eq!(k.mem_read(pid, lost, 8).unwrap_err(), Errno::Efault);
        assert_eq!(k.mem_write(pid, lost, &[1]).unwrap_err(), Errno::Efault);
        assert_eq!(k.uffd_fault_counts(pid), (0, 0), "no fault was served");
        assert_eq!(missing_pages(&k, pid), 3, "nothing was installed");
        assert_eq!(k.mem_read(pid, addr, 8).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn mem_view_faults_and_charges_like_mem_read() {
        let (mut read, mut view) = (Kernel::new(36), Kernel::new(36));
        let mut got = Vec::new();
        for (k, lend) in [(&mut read, false), (&mut view, true)] {
            let (pid, addr, backend) = lazy_proc(k, 4);
            k.uffd_register(pid, backend).unwrap();
            let (at, len) = (addr.add(100), 2 * PAGE_SIZE as u64 + 7);
            let bytes = match lend {
                false => k.mem_read(pid, at, len).unwrap(),
                true => k.mem_view(pid, at, len).unwrap().concat(),
            };
            got.push((bytes, k.now(), k.uffd_fault_counts(pid)));
        }
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0].2, (3, 0), "three pages spanned, three faults");
    }

    #[test]
    fn minor_faults_counted_while_registered() {
        let mut k = Kernel::free(31);
        let (pid, addr, _) = lazy_proc(&mut k, 2);
        // Register a backend for page 0 only; page 1 stays demand-zero.
        let mut backend = UffdBackend::new();
        backend.insert_page(addr.page_index(), Page::from_bytes(&[7u8; PAGE_SIZE]));
        k.uffd_register(pid, backend).unwrap();
        k.set_tracing(true);
        k.mem_write(pid, addr.add(PAGE_SIZE as u64), &[1u8])
            .unwrap();
        assert_eq!(k.uffd_fault_counts(pid), (0, 1));
        let trace = k.take_trace();
        let faults: Vec<bool> = trace
            .iter()
            .filter_map(|e| match e.kind {
                ProbeKind::PageFault { major } => Some(major),
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec![false]);
    }

    #[test]
    fn record_logs_fault_order() {
        let mut k = Kernel::free(32);
        let (pid, addr, backend) = lazy_proc(&mut k, 5);
        k.uffd_register(pid, backend).unwrap();
        k.uffd_set_record(pid, true).unwrap();
        let base = addr.page_index();
        // Touch pages out of address order; log must keep touch order.
        for i in [3u64, 0, 4, 0, 2] {
            k.mem_read(pid, addr.add(i * PAGE_SIZE as u64), 1).unwrap();
        }
        let log = k.uffd_take_log(pid).unwrap();
        assert_eq!(log, vec![base + 3, base, base + 4, base + 2]);
        // Recording stopped: later faults are counted but not logged.
        k.mem_read(pid, addr.add(PAGE_SIZE as u64), 1).unwrap();
        assert!(k.uffd_take_log(pid).unwrap().is_empty());
        assert_eq!(k.uffd_fault_counts(pid).0, 5);
    }

    #[test]
    fn prefetch_batches_cheaper_than_faulting() {
        let n_pages = 64u64;
        let run = |prefetch: bool| -> (SimDuration, u64) {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
            let (pid, addr, backend) = lazy_proc(&mut k, n_pages);
            let indices: Vec<u64> = backend.page_indices().collect();
            k.uffd_register(pid, backend).unwrap();
            let t0 = k.now();
            if prefetch {
                assert_eq!(k.uffd_prefetch(pid, &indices).unwrap(), n_pages);
            }
            // Touch every page either way.
            k.mem_read(pid, addr, n_pages * PAGE_SIZE as u64).unwrap();
            (k.now() - t0, k.uffd_fault_counts(pid).0)
        };
        let (fault_time, fault_majors) = run(false);
        let (prefetch_time, prefetch_majors) = run(true);
        assert_eq!(fault_majors, n_pages);
        assert_eq!(prefetch_majors, 0, "prefetched pages never fault");
        assert!(
            prefetch_time < fault_time,
            "batched prefetch {prefetch_time} must beat per-fault traps {fault_time}"
        );
    }

    #[test]
    fn prefetch_skips_resolved_and_unknown_pages() {
        let mut k = Kernel::free(33);
        let (pid, addr, backend) = lazy_proc(&mut k, 3);
        let base = addr.page_index();
        k.uffd_register(pid, backend).unwrap();
        k.mem_read(pid, addr, 1).unwrap(); // resolves page 0 by faulting
        let n = k
            .uffd_prefetch(pid, &[base, base + 1, base + 1, base + 99])
            .unwrap();
        assert_eq!(n, 1, "only the still-missing known page installs");
        assert_eq!(missing_pages(&k, pid), 1);
    }

    #[test]
    fn fault_around_services_neighbours_in_one_trap() {
        let mut k = Kernel::free(38);
        let (pid, addr, mut backend) = lazy_proc(&mut k, 8);
        backend.set_fault_around(4);
        k.uffd_register(pid, backend).unwrap();
        k.set_tracing(true);

        // One touch traps once but installs the whole window.
        let got = k.mem_read(pid, addr, 8).unwrap();
        assert_eq!(got, vec![1u8; 8]);
        assert_eq!(k.uffd_fault_counts(pid), (1, 0), "one trap for the window");
        assert_eq!(missing_pages(&k, pid), 4);
        // The neighbours carry their backend content, not zeroes.
        let got = k.mem_read(pid, addr.add(3 * PAGE_SIZE as u64), 4).unwrap();
        assert_eq!(got, vec![4u8; 4], "fault-around installed real content");
        assert_eq!(k.uffd_fault_counts(pid), (1, 0), "no refault in the window");

        let counters = crate::probe::ProbeCounters::from_events(&k.take_trace());
        assert_eq!(counters.major_faults, 1);
        assert_eq!(counters.faults_avoided, 3, "window 4 = trap + 3 neighbours");
    }

    #[test]
    fn fault_around_window_stops_at_backend_gaps() {
        let mut k = Kernel::free(39);
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 6 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        let base = addr.page_index();
        // Backend covers pages 0,1 and 3 — page 2 is demand-zero.
        let mut backend = UffdBackend::new();
        for i in [0u64, 1, 3] {
            backend.insert_page(base + i, Page::from_bytes(&[i as u8 + 1; PAGE_SIZE]));
        }
        backend.set_fault_around(16);
        k.uffd_register(pid, backend).unwrap();
        k.mem_read(pid, addr, 1).unwrap();
        // The run stops at the gap: pages 0 and 1 installed, 3 still missing.
        assert_eq!(k.uffd_fault_counts(pid).0, 1);
        assert_eq!(missing_pages(&k, pid), 1);
        assert!(k.process(pid).unwrap().mem.is_missing(base + 3));
    }

    #[test]
    fn fault_around_cuts_majors_and_wall_time_on_sequential_touch() {
        let n_pages = 64u64;
        let run = |window: usize| -> (SimDuration, u64) {
            let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
            let (pid, addr, mut backend) = lazy_proc(&mut k, n_pages);
            backend.set_fault_around(window);
            k.uffd_register(pid, backend).unwrap();
            let t0 = k.now();
            k.mem_read(pid, addr, n_pages * PAGE_SIZE as u64).unwrap();
            (k.now() - t0, k.uffd_fault_counts(pid).0)
        };
        let (single_time, single_majors) = run(1);
        let (batched_time, batched_majors) = run(16);
        assert_eq!(single_majors, n_pages);
        assert_eq!(batched_majors, n_pages / 16, "one trap per window");
        assert!(
            batched_time < single_time,
            "fault-around {batched_time} must beat per-page traps {single_time}"
        );
    }

    #[test]
    fn copy_extent_installs_a_run_under_one_setup_charge() {
        let mut k = Kernel::with_config(CostModel::paper_calibrated(), Noise::new(0, 0.0));
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 16 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        let pages: Vec<Page> = (0..16)
            .map(|i| Page::from_bytes(&[i as u8 + 1; PAGE_SIZE]))
            .collect();
        k.set_tracing(true);
        let t0 = k.now();
        k.copy_extent(pid, addr.page_index(), &pages).unwrap();
        let charged = k.now() - t0;
        let costs = CostModel::paper_calibrated();
        assert_eq!(
            charged, costs.extent_setup,
            "run length does not scale the charge"
        );
        assert_eq!(k.process(pid).unwrap().mem.resident_pages(), 16);
        let got = k.mem_read(pid, addr.add(5 * PAGE_SIZE as u64), 4).unwrap();
        assert_eq!(got, vec![6u8; 4]);
        let counters = crate::probe::ProbeCounters::from_events(&k.take_trace());
        assert_eq!(counters.extents_restored, 1, "one run, one probe");

        // Empty runs are free no-ops.
        let t1 = k.now();
        k.copy_extent(pid, addr.page_index(), &[]).unwrap();
        assert_eq!(k.now(), t1);
    }

    #[test]
    fn copy_extent_faults_past_the_mapping_after_partial_install() {
        let mut k = Kernel::free(40);
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 2 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        let pages = vec![Page::zeroed(); 4];
        let err = k.copy_extent(pid, addr.page_index(), &pages).unwrap_err();
        assert_eq!(err, Errno::Efault);
        assert_eq!(
            k.process(pid).unwrap().mem.resident_pages(),
            2,
            "pages before the fault stay installed, like a partial pwritev"
        );
    }

    #[test]
    fn cow_map_extent_interns_and_maps_a_run() {
        let mut k = Kernel::free(42);
        let make_proc = |k: &mut Kernel| {
            let pid = k.sys_clone(INIT_PID).unwrap();
            let addr = k
                .sys_mmap(pid, 4 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
                .unwrap();
            (pid, addr)
        };
        let frames: Vec<(u64, Page)> = (0..4u64)
            .map(|i| (1000 + i, Page::from_bytes(&[i as u8 + 9; PAGE_SIZE])))
            .collect();
        let (pid1, addr1) = make_proc(&mut k);
        let (pid2, addr2) = make_proc(&mut k);
        k.set_tracing(true);
        k.cow_map_extent(pid1, addr1.page_index(), &frames).unwrap();
        k.cow_map_extent(pid2, addr2.page_index(), &frames).unwrap();
        assert_eq!(
            k.page_store().resident_bytes(),
            4 * PAGE_SIZE as u64,
            "second mapping reuses the interned frames"
        );
        let got = k.mem_read(pid2, addr2.add(PAGE_SIZE as u64), 2).unwrap();
        assert_eq!(got, vec![10u8; 2]);
        let counters = crate::probe::ProbeCounters::from_events(&k.take_trace());
        assert_eq!(
            counters.extents_restored, 2,
            "one probe per run per process"
        );
    }

    #[test]
    fn vectored_prefetch_coalesces_runs_and_matches_state() {
        let mut k = Kernel::free(43);
        let pid = k.sys_clone(INIT_PID).unwrap();
        let addr = k
            .sys_mmap(pid, 8 * PAGE_SIZE as u64, Prot::RW, VmaKind::Anon)
            .unwrap();
        let base = addr.page_index();
        let mut backend = UffdBackend::new();
        for i in [0u64, 1, 2, 5, 6] {
            backend.insert_page(base + i, Page::from_bytes(&[i as u8 + 1; PAGE_SIZE]));
        }
        k.uffd_register(pid, backend).unwrap();
        k.set_tracing(true);
        let n = k
            .uffd_prefetch(pid, &[base + 5, base, base + 1, base + 2, base + 6, base])
            .unwrap();
        assert_eq!(n, 5, "all missing known pages install, dupes skipped");
        assert_eq!(missing_pages(&k, pid), 0);
        assert_eq!(k.uffd_fault_counts(pid), (0, 0), "prefetch never faults");
        let counters = crate::probe::ProbeCounters::from_events(&k.take_trace());
        assert_eq!(counters.extents_restored, 2, "runs [0..3] and [5..7]");
        // Content is the backend's, not zeroes.
        let got = k.mem_read(pid, addr.add(6 * PAGE_SIZE as u64), 3).unwrap();
        assert_eq!(got, vec![7u8; 3]);
        // Nothing left to prefetch.
        assert_eq!(k.uffd_prefetch(pid, &[base]).unwrap(), 0);
    }

    #[test]
    fn uffd_register_validates_and_is_exclusive() {
        let mut k = Kernel::free(34);
        let (pid, addr, backend) = lazy_proc(&mut k, 2);
        // Backend page outside any mapping is rejected without side effects.
        let mut bad = UffdBackend::new();
        bad.insert_page(9999999, Page::zeroed());
        assert_eq!(k.uffd_register(pid, bad).unwrap_err(), Errno::Efault);
        assert_eq!(missing_pages(&k, pid), 0);
        // Already-materialised page is rejected.
        k.mem_write(pid, addr, &[1]).unwrap();
        let mut dup = UffdBackend::new();
        dup.insert_page(addr.page_index(), Page::zeroed());
        assert_eq!(k.uffd_register(pid, dup).unwrap_err(), Errno::Eexist);
        // Valid registration, then a second one is busy.
        let mut ok = UffdBackend::new();
        ok.insert_page(addr.page_index() + 1, Page::zeroed());
        k.uffd_register(pid, ok).unwrap();
        assert_eq!(k.uffd_register(pid, backend).unwrap_err(), Errno::Ebusy);
        // Exit clears the registration.
        k.sys_exit(pid, 0).unwrap();
        assert!(!k.uffd.contains_key(&pid));
        assert_eq!(k.uffd_take_log(pid).unwrap_err(), Errno::Esrch);
    }

    #[test]
    fn ptrace_peek_resolves_missing_pages() {
        let mut k = Kernel::free(35);
        let tracer = k.sys_clone(INIT_PID).unwrap();
        let (pid, addr, backend) = lazy_proc(&mut k, 2);
        k.uffd_register(pid, backend).unwrap();
        k.ptrace_seize(tracer, pid).unwrap();
        k.ptrace_freeze(tracer, pid).unwrap();
        let page = k.ptrace_peek_page(tracer, pid, addr.page_index()).unwrap();
        assert_eq!(page.bytes()[0], 1, "dump sees withheld content");
        assert_eq!(k.uffd_fault_counts(pid), (1, 0));
    }

    #[test]
    fn fault_charges_are_deterministic_per_seed() {
        let run = |seed: u64| -> (u64, (u64, u64)) {
            let mut k = Kernel::new(seed);
            let (pid, addr, backend) = lazy_proc(&mut k, 8);
            k.uffd_register(pid, backend).unwrap();
            k.mem_read(pid, addr, 8 * PAGE_SIZE as u64).unwrap();
            (k.now().as_nanos(), k.uffd_fault_counts(pid))
        };
        assert_eq!(run(42), run(42), "same seed, same clock and counts");
        let (t_a, counts_a) = run(42);
        let (t_b, counts_b) = run(43);
        assert_eq!(counts_a, counts_b);
        assert_ne!(t_a, t_b, "different seed perturbs the jitter");
    }
}
