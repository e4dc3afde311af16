//! The JLVM: a managed-runtime process model.
//!
//! A [`Jlvm`] owns the runtime side of one guest process: the bootstrap
//! (RTS) sequence, the memory-mapped application archive, lazy class
//! loading with real parsing/verification, a lazy JIT, and the in-guest
//! [`RuntimeState`] record that makes checkpoints behaviourally faithful.
//! A [`Replica`] pairs a `Jlvm` with an application [`Handler`] and drives
//! the paper's lifecycle: boot → ready → serve (or, on the prebake path,
//! restore → attach → serve).

use prebake_sim::cost::per_byte;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::mem::{Prot, VirtAddr, VmaKind};
use prebake_sim::proc::Pid;
use prebake_sim::time::SimDuration;

use crate::archive::ArchiveIndex;
use crate::classfile::{fnv1a, ClassFile};
use crate::costs::RuntimeCosts;
use crate::gen::SplitMix64;
use crate::http::{Request, Response};
use crate::state::{ClassEntry, Phase, RuntimeState, STATE_BASE, STATE_REGION_LEN};

/// Reserved (not necessarily touched) size of the runtime heap region.
pub(crate) const HEAP_REGION_LEN: u64 = 256 << 20;
/// Reserved size of the metaspace region.
pub(crate) const METASPACE_REGION_LEN: u64 = 128 << 20;
/// Reserved size of the JIT code cache region.
pub(crate) const CODE_CACHE_REGION_LEN: u64 = 64 << 20;

/// Configuration of one runtime instance.
#[derive(Debug, Clone)]
pub struct JlvmConfig {
    /// Guest path of the application archive (the "jar").
    pub archive_path: String,
    /// Port the embedded HTTP server binds.
    pub port: u16,
    /// Cost table.
    pub costs: RuntimeCosts,
    /// Whether the application defers linking to its first request (the
    /// paper's synthetic functions). Charges `lazy_link_init` once.
    pub lazy_link: bool,
}

impl JlvmConfig {
    /// A paper-calibrated configuration.
    pub fn new(archive_path: impl Into<String>, port: u16) -> JlvmConfig {
        JlvmConfig {
            archive_path: archive_path.into(),
            port,
            costs: RuntimeCosts::paper_calibrated(),
            lazy_link: false,
        }
    }
}

/// A running managed-runtime instance inside one guest process.
#[derive(Debug)]
pub struct Jlvm {
    pid: Pid,
    config: JlvmConfig,
    state: RuntimeState,
    /// Where each class file lies in the mapped archive.
    archive: Option<ArchiveIndex>,
}

impl Jlvm {
    /// Boots a fresh runtime in process `pid`: the paper's RTS phase
    /// (≈70 ms: core init, heap arenas, service threads), touching the
    /// base memory footprint that makes a NOOP snapshot ≈13 MB.
    ///
    /// Emits the `rts-start` and `main-entry` trace markers.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (bad pid, address-space exhaustion).
    pub(crate) fn boot(kernel: &mut Kernel, pid: Pid, config: JlvmConfig) -> SysResult<Jlvm> {
        kernel.emit_marker(pid, "rts-start");
        let costs = config.costs.clone();
        let mut state = RuntimeState::new(config.port);

        // Core runtime init + JIT code cache (interpreter stubs, intrinsics).
        kernel.charge(costs.rts_core_init);
        let code_cache =
            kernel.sys_mmap(pid, CODE_CACHE_REGION_LEN, Prot::RWX, VmaKind::CodeCache)?;
        let stubs = pattern_bytes(0xC0DE, costs.base_footprint.code_cache_touch as usize);
        kernel.mem_write(pid, code_cache, &stubs)?;
        state.code_cache_base = code_cache.0;
        state.code_cache_cursor = stubs.len() as u64;

        // Heap arenas. The young generation is tiled rather than fully
        // random: real heaps carry many byte-identical pages (zeroed-out
        // allocation buffers, repeated object headers), which is what the
        // snapshot dedup view collapses.
        kernel.charge(costs.rts_heap_init);
        let heap = kernel.sys_mmap(pid, HEAP_REGION_LEN, Prot::RW, VmaKind::RuntimeHeap)?;
        let young = tiled_pattern_bytes(0x48EA, costs.base_footprint.heap_touch as usize, 4);
        kernel.mem_write(pid, heap, &young)?;
        state.heap_base = heap.0;
        state.heap_cursor = young.len() as u64;

        // Service threads + core-class metadata.
        kernel.charge(costs.rts_services_init);
        let metaspace = kernel.sys_mmap(pid, METASPACE_REGION_LEN, Prot::RW, VmaKind::Metaspace)?;
        let core_meta = pattern_bytes(0x4D45, costs.base_footprint.metaspace_touch as usize);
        kernel.mem_write(pid, metaspace, &core_meta)?;
        state.metaspace_base = metaspace.0;
        state.metaspace_cursor = core_meta.len() as u64;

        // The well-known state region.
        kernel.sys_mmap_fixed(pid, STATE_BASE, STATE_REGION_LEN, Prot::RW, VmaKind::Anon)?;

        let mut jvm = Jlvm {
            pid,
            config,
            state,
            archive: None,
        };
        jvm.persist_state(kernel)?;
        kernel.emit_marker(pid, "main-entry");
        Ok(jvm)
    }

    /// Re-attaches to a process restored from a snapshot: reads the
    /// in-guest state record back and rebuilds the host-side view (the
    /// archive index, its checksum verified) from guest memory. The
    /// archive is verified in place, over the page slices
    /// [`Kernel::mem_view`] lends, at the same virtual cost as reading it. No class
    /// loading, JIT or RTS work happens here — whatever the snapshot
    /// carried is what exists.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] if the state region does not hold a valid record
    /// or the mapped archive is corrupt.
    pub fn attach(kernel: &mut Kernel, pid: Pid, config: JlvmConfig) -> SysResult<Jlvm> {
        let header = kernel.mem_read(pid, STATE_BASE, 4)?;
        let len = u32::from_be_bytes(header.try_into().unwrap()) as u64;
        if len == 0 || len > STATE_REGION_LEN - 4 {
            return Err(Errno::Einval);
        }
        let record = kernel.mem_read(pid, STATE_BASE.add(4), len)?;
        let state = RuntimeState::parse(&record).map_err(|_| Errno::Einval)?;

        let archive = if state.jar_base != 0 {
            let jar = kernel.mem_view(pid, VirtAddr(state.jar_base), state.jar_len)?;
            Some(ArchiveIndex::parse_chunks(&jar).map_err(|_| Errno::Einval)?)
        } else {
            None
        };
        Ok(Jlvm {
            pid,
            config,
            state,
            archive,
        })
    }

    /// The current (host-mirrored) runtime state.
    pub fn state(&self) -> &RuntimeState {
        &self.state
    }

    /// Maps and reads the application archive (APPINIT step one): the
    /// archive file is read (cold on a fresh container), its bytes land in
    /// a file-backed mapping — which is exactly why a snapshot taken after
    /// boot carries them, letting restored replicas skip the read — and
    /// the central index is parsed.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] if the archive is missing, [`Errno::Einval`] if
    /// it is corrupt.
    pub(crate) fn load_archive(&mut self, kernel: &mut Kernel) -> SysResult<()> {
        let bytes = kernel.fs_read_file(&self.config.archive_path)?;
        let len = bytes.len() as u64;
        let base = kernel.sys_mmap(
            self.pid,
            len.max(1),
            Prot::RW,
            VmaKind::File {
                path: self.config.archive_path.clone(),
                offset: 0,
            },
        )?;
        kernel.mem_write(self.pid, base, &bytes)?;
        let archive = ArchiveIndex::parse(&bytes).map_err(|_| Errno::Einval)?;
        kernel.charge(self.config.costs.archive_index_per_entry * archive.len() as u64);
        self.state.jar_base = base.0;
        self.state.jar_len = len;
        self.archive = Some(archive);
        Ok(())
    }

    /// Loads one class by name: reads its bytes out of the mapped archive,
    /// parses and verifies them (real work), installs the expanded
    /// representation into the metaspace, and records the class in guest
    /// state. Returns `false` if it was already loaded.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] for an unknown class, [`Errno::Einval`] for a
    /// corrupt one or a missing archive.
    pub(crate) fn load_class(&mut self, kernel: &mut Kernel, name: &str) -> SysResult<bool> {
        if self.state.class(name).is_some() {
            self.touch_class(kernel, name)?;
            return Ok(false);
        }
        let archive = self.archive.as_ref().ok_or(Errno::Einval)?;
        let (off, len) = archive.entry_offset(name).ok_or(Errno::Enoent)?;
        let bytes = kernel.mem_read(self.pid, VirtAddr(self.state.jar_base + off), len)?;
        let class = ClassFile::parse(&bytes).map_err(|_| Errno::Einval)?;
        class.verify().map_err(|_| Errno::Einval)?;
        let costs = &self.config.costs;
        kernel.charge(per_byte(
            len,
            costs.class_parse_ns_per_byte + costs.class_verify_ns_per_byte,
        ));

        // Install the parsed representation: the raw bytes plus a header
        // expansion (method tables, resolved pool) — `metaspace_expansion`×.
        let extra = ((costs.metaspace_expansion - 1.0).max(0.0) * len as f64) as usize;
        let mut repr = bytes;
        repr.extend(pattern_bytes(fnv1a(name.as_bytes()), extra));
        let addr = self.alloc_metaspace(repr.len() as u64)?;
        kernel.mem_write(self.pid, addr, &repr)?;

        self.state.classes.push(ClassEntry {
            name: name.to_owned(),
            size: len as u32,
            jitted: false,
        });
        Ok(true)
    }

    /// JIT-compiles one loaded class: charges compile cost proportional to
    /// class size and writes the generated code into the code cache.
    /// Returns `false` if already compiled.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] if the class is not loaded.
    pub(crate) fn jit_class(&mut self, kernel: &mut Kernel, name: &str) -> SysResult<bool> {
        let costs = self.config.costs.clone();
        let entry = self.state.class(name).ok_or(Errno::Enoent)?;
        if entry.jitted {
            return Ok(false);
        }
        let size = entry.size as u64;
        kernel.charge(per_byte(size, costs.jit_compile_ns_per_byte));
        let code_len = ((size as f64) * costs.code_cache_expansion) as usize;
        let code = pattern_bytes(fnv1a(name.as_bytes()) ^ 0x4A49_5400, code_len.max(64));
        let addr = self.alloc_code_cache(code.len() as u64)?;
        kernel.mem_write(self.pid, addr, &code)?;
        self.state.class_mut(name).unwrap().jitted = true;
        Ok(true)
    }

    /// JIT-compiles every loaded-but-uncompiled class (what the first
    /// executed request triggers). Returns how many classes were compiled.
    ///
    /// # Errors
    ///
    /// Propagates [`jit_class`](Jlvm::jit_class) errors.
    pub(crate) fn jit_pending(&mut self, kernel: &mut Kernel) -> SysResult<usize> {
        let pending: Vec<String> = self
            .state
            .classes
            .iter()
            .filter(|c| !c.jitted)
            .map(|c| c.name.clone())
            .collect();
        for name in &pending {
            self.jit_class(kernel, name)?;
        }
        Ok(pending.len())
    }

    /// Binds the HTTP listener and marks the runtime ready (end of
    /// APPINIT). Emits the `ready` marker.
    ///
    /// # Errors
    ///
    /// [`Errno::Eaddrinuse`] if the port is bound.
    pub(crate) fn serve_ready(&mut self, kernel: &mut Kernel) -> SysResult<()> {
        kernel.charge(self.config.costs.http_server_init);
        let fd = kernel.sys_listen(self.pid, self.config.port)?;
        self.state.listener_fd = fd;
        self.state.app_inited = true;
        self.state.phase = Phase::Ready;
        self.persist_state(kernel)?;
        kernel.emit_marker(self.pid, "ready");
        Ok(())
    }

    /// Allocates `len` bytes (64-byte aligned) from the runtime heap,
    /// returning the guest address.
    ///
    /// # Errors
    ///
    /// [`Errno::Enomem`] if the heap region is exhausted.
    pub(crate) fn alloc_heap(&mut self, len: u64) -> SysResult<VirtAddr> {
        let aligned = (self.state.heap_cursor + 63) & !63;
        if aligned + len > HEAP_REGION_LEN {
            return Err(Errno::Enomem);
        }
        self.state.heap_cursor = aligned + len;
        Ok(VirtAddr(self.state.heap_base + aligned))
    }

    /// Re-executes an already-loaded class: the guest reads the head of
    /// its metaspace representation (method table, resolved pool) and
    /// jumps into its jitted code, so a demand-paged restore takes the
    /// faults a warm request really takes. Present pages cost nothing —
    /// only the paging activity is charged, by the kernel.
    ///
    /// Both caches are deterministic bump allocators and every
    /// allocation happens in `state.classes` order (`jit_pending`
    /// compiles in load order), so the addresses are recomputed by
    /// replaying the cursors rather than widening the state record.
    fn touch_class(&mut self, kernel: &mut Kernel, name: &str) -> SysResult<()> {
        let costs = &self.config.costs;
        let page = prebake_sim::mem::PAGE_SIZE as u64;
        let mut meta_cursor = 0u64;
        let mut code_cursor = 0u64;
        for entry in &self.state.classes {
            let len = entry.size as u64;
            let extra = ((costs.metaspace_expansion - 1.0).max(0.0) * len as f64) as usize as u64;
            let repr_len = len + extra;
            let meta_off = (meta_cursor + 63) & !63;
            meta_cursor = meta_off + repr_len;
            let code_len = (((len as f64) * costs.code_cache_expansion) as usize).max(64) as u64;
            let code_off = (code_cursor + 63) & !63;
            if entry.jitted {
                code_cursor = code_off + code_len;
            }
            if entry.name == name {
                kernel.mem_touch(
                    self.pid,
                    VirtAddr(self.state.metaspace_base + meta_off),
                    repr_len.min(page),
                )?;
                if entry.jitted {
                    kernel.mem_touch(
                        self.pid,
                        VirtAddr(self.state.code_cache_base + code_off),
                        code_len.min(page),
                    )?;
                }
                return Ok(());
            }
        }
        Ok(())
    }

    fn alloc_metaspace(&mut self, len: u64) -> SysResult<VirtAddr> {
        let aligned = (self.state.metaspace_cursor + 63) & !63;
        if aligned + len > METASPACE_REGION_LEN {
            return Err(Errno::Enomem);
        }
        self.state.metaspace_cursor = aligned + len;
        Ok(VirtAddr(self.state.metaspace_base + aligned))
    }

    fn alloc_code_cache(&mut self, len: u64) -> SysResult<VirtAddr> {
        let aligned = (self.state.code_cache_cursor + 63) & !63;
        if aligned + len > CODE_CACHE_REGION_LEN {
            return Err(Errno::Enomem);
        }
        self.state.code_cache_cursor = aligned + len;
        Ok(VirtAddr(self.state.code_cache_base + aligned))
    }

    /// Writes the state record into the guest state region.
    ///
    /// # Errors
    ///
    /// [`Errno::Enomem`] if the record outgrew the region.
    pub(crate) fn persist_state(&mut self, kernel: &mut Kernel) -> SysResult<()> {
        let record = self.state.encode();
        if 4 + record.len() as u64 > STATE_REGION_LEN {
            return Err(Errno::Enomem);
        }
        let mut framed = Vec::with_capacity(4 + record.len());
        framed.extend_from_slice(&(record.len() as u32).to_be_bytes());
        framed.extend_from_slice(&record);
        kernel.mem_write(self.pid, STATE_BASE, &framed)
    }
}

/// Deterministic non-zero filler bytes (so guest pages defeat zero-page
/// dedup, like real runtime data).
pub(crate) fn pattern_bytes(tag: u64, len: usize) -> Vec<u8> {
    SplitMix64::new(tag).nonzero_bytes(len)
}

/// As [`pattern_bytes`], but repeating with a period of `period_pages`
/// pages: pages beyond the first period are byte-identical to their
/// counterpart in it. Models memory regions where whole pages recur —
/// the duplicate content a content-addressed snapshot view dedups.
pub(crate) fn tiled_pattern_bytes(tag: u64, len: usize, period_pages: usize) -> Vec<u8> {
    let period = period_pages.max(1) * prebake_sim::mem::PAGE_SIZE;
    let tile = pattern_bytes(tag, period.min(len));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let take = (len - out.len()).min(tile.len());
        out.extend_from_slice(&tile[..take]);
    }
    out
}

/// The view handed to application [`Handler`]s: scoped access to the
/// runtime and the kernel.
#[derive(Debug)]
pub struct Ctx<'a> {
    jvm: &'a mut Jlvm,
    kernel: &'a mut Kernel,
}

impl<'a> Ctx<'a> {
    /// Creates a context over a runtime and its kernel.
    pub(crate) fn new(jvm: &'a mut Jlvm, kernel: &'a mut Kernel) -> Ctx<'a> {
        Ctx { jvm, kernel }
    }

    /// Charges application-level work to the clock.
    pub fn charge(&mut self, d: SimDuration) {
        self.kernel.charge(d);
    }

    /// Loads a class (idempotent). See `Jlvm::load_class`.
    ///
    /// # Errors
    ///
    /// Propagates `Jlvm::load_class` errors.
    pub fn load_class(&mut self, name: &str) -> SysResult<bool> {
        self.jvm.load_class(self.kernel, name)
    }

    /// Allocates guest heap memory.
    ///
    /// # Errors
    ///
    /// [`Errno::Enomem`] if the heap region is exhausted.
    pub fn alloc_heap(&mut self, len: u64) -> SysResult<VirtAddr> {
        self.jvm.alloc_heap(len)
    }

    /// Writes guest memory (charged).
    ///
    /// # Errors
    ///
    /// Propagates kernel memory errors.
    pub fn write_guest(&mut self, addr: VirtAddr, bytes: &[u8]) -> SysResult<()> {
        self.kernel.mem_write(self.jvm.pid, addr, bytes)
    }

    /// Reads guest memory (charged).
    ///
    /// # Errors
    ///
    /// Propagates kernel memory errors.
    pub fn read_guest(&mut self, addr: VirtAddr, len: u64) -> SysResult<Vec<u8>> {
        self.kernel.mem_read(self.jvm.pid, addr, len)
    }

    /// Reads a file from the guest filesystem (charged cold/warm).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn read_file(&mut self, path: &str) -> SysResult<bytes::Bytes> {
        self.kernel.fs_read_file(path)
    }

    /// The application's opaque state blob (guest-persisted).
    pub fn app_blob(&self) -> &[u8] {
        &self.jvm.state.app_blob
    }

    /// Replaces the application blob. Persisted with the next state write.
    pub fn set_app_blob(&mut self, blob: Vec<u8>) {
        self.jvm.state.app_blob = blob;
    }
}

/// An application handler: the function's business logic.
///
/// Handlers run inside the replica process. `init` executes during
/// APPINIT (before the function is ready); `attach` executes after a
/// snapshot restore instead of `init`; `handle` serves one request.
pub trait Handler {
    /// Function name (for routing and diagnostics).
    fn name(&self) -> &str;

    /// Application initialisation (APPINIT): load classes, read resources,
    /// allocate buffers.
    ///
    /// # Errors
    ///
    /// Returns a kernel error if initialisation fails.
    fn init(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()>;

    /// Re-binds host-side pointers after a snapshot restore. The default
    /// re-reads nothing (stateless handlers).
    ///
    /// # Errors
    ///
    /// Returns a kernel error if re-attachment fails.
    fn attach(&mut self, _ctx: &mut Ctx<'_>) -> SysResult<()> {
        Ok(())
    }

    /// Serves one request.
    ///
    /// # Errors
    ///
    /// Returns a kernel error on failure (mapped to HTTP 500 upstream).
    fn handle(&mut self, ctx: &mut Ctx<'_>, req: &Request) -> SysResult<Response>;
}

impl std::fmt::Debug for dyn Handler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handler({})", self.name())
    }
}

/// A function replica: one runtime plus one application handler.
#[derive(Debug)]
pub struct Replica {
    jvm: Jlvm,
    handler: Box<dyn Handler>,
}

impl Replica {
    /// Boots a replica from scratch (the vanilla path): RTS, archive
    /// load, handler `init`, listener bind. On return the replica is
    /// ready to serve.
    ///
    /// # Errors
    ///
    /// Propagates runtime and handler errors.
    pub fn boot(
        kernel: &mut Kernel,
        pid: Pid,
        config: JlvmConfig,
        mut handler: Box<dyn Handler>,
    ) -> SysResult<Replica> {
        let mut jvm = Jlvm::boot(kernel, pid, config)?;
        jvm.load_archive(kernel)?;
        {
            let mut ctx = Ctx::new(&mut jvm, kernel);
            handler.init(&mut ctx)?;
        }
        jvm.serve_ready(kernel)?;
        Ok(Replica { jvm, handler })
    }

    /// Attaches to a restored process (the prebake path): reads guest
    /// state back and lets the handler re-bind its pointers. No RTS, no
    /// class loading, no JIT.
    ///
    /// # Errors
    ///
    /// Propagates runtime and handler errors.
    pub fn attach(
        kernel: &mut Kernel,
        pid: Pid,
        config: JlvmConfig,
        mut handler: Box<dyn Handler>,
    ) -> SysResult<Replica> {
        let mut jvm = Jlvm::attach(kernel, pid, config)?;
        {
            let mut ctx = Ctx::new(&mut jvm, kernel);
            handler.attach(&mut ctx)?;
        }
        Ok(Replica { jvm, handler })
    }

    /// The underlying runtime.
    pub fn jvm(&self) -> &Jlvm {
        &self.jvm
    }

    /// The guest pid.
    pub fn pid(&self) -> Pid {
        self.jvm.pid
    }

    /// Serves one request: accept, one-time lazy link, handler execution,
    /// JIT of any classes the request pulled in, state persistence.
    ///
    /// # Errors
    ///
    /// [`Errno::Enotconn`] if the replica is not ready; handler errors
    /// propagate.
    pub fn handle(&mut self, kernel: &mut Kernel, req: &Request) -> SysResult<Response> {
        if self.jvm.state.phase != Phase::Ready {
            return Err(Errno::Enotconn);
        }
        kernel.socket_accept(self.jvm.config.port)?;
        if self.jvm.state.requests_served == 0 {
            kernel.emit_marker(self.jvm.pid, "first-request");
        }
        if self.jvm.config.lazy_link && !self.jvm.state.lazy_linked {
            let cost = self.jvm.config.costs.lazy_link_init;
            kernel.charge(cost);
            self.jvm.state.lazy_linked = true;
        }
        let resp = {
            let mut ctx = Ctx::new(&mut self.jvm, kernel);
            self.handler.handle(&mut ctx, req)?
        };
        // First execution of freshly loaded classes triggers the JIT.
        self.jvm.jit_pending(kernel)?;
        self.jvm.state.requests_served += 1;
        self.jvm.persist_state(kernel)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Archive;
    use crate::costs::BaseFootprint;
    use crate::gen::synth_class_set;
    use prebake_sim::kernel::INIT_PID;
    use prebake_sim::mem::PAGE_SIZE;

    /// A cost table that charges nothing, for state-only tests.
    fn free_costs() -> RuntimeCosts {
        RuntimeCosts {
            rts_core_init: SimDuration::ZERO,
            rts_heap_init: SimDuration::ZERO,
            rts_services_init: SimDuration::ZERO,
            http_server_init: SimDuration::ZERO,
            class_parse_ns_per_byte: 0.0,
            class_verify_ns_per_byte: 0.0,
            jit_compile_ns_per_byte: 0.0,
            archive_index_per_entry: SimDuration::ZERO,
            lazy_link_init: SimDuration::ZERO,
            base_footprint: BaseFootprint {
                code_cache_touch: 64 << 10,
                heap_touch: 64 << 10,
                metaspace_touch: 64 << 10,
            },
            metaspace_expansion: 1.2,
            code_cache_expansion: 0.3,
        }
    }

    /// A trivial handler that loads `lazy` classes on first request.
    struct TestHandler {
        lazy: Vec<String>,
        inits: usize,
        attaches: usize,
    }

    impl Handler for TestHandler {
        fn name(&self) -> &str {
            "test"
        }
        fn init(&mut self, _ctx: &mut Ctx<'_>) -> SysResult<()> {
            self.inits += 1;
            Ok(())
        }
        fn attach(&mut self, _ctx: &mut Ctx<'_>) -> SysResult<()> {
            self.attaches += 1;
            Ok(())
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, _req: &Request) -> SysResult<Response> {
            for name in self.lazy.clone() {
                ctx.load_class(&name)?;
            }
            Ok(Response::ok("ok".as_bytes().to_vec()))
        }
    }

    fn setup(lazy_link: bool) -> (Kernel, Pid, JlvmConfig, Vec<String>) {
        let mut kernel = Kernel::free(1);
        let classes = synth_class_set("app", 5, 6, 30_000);
        let names: Vec<String> = classes.iter().map(|c| c.name.clone()).collect();
        let archive = Archive::from_classes(&classes);
        kernel.fs_create_dir_all("/app").unwrap();
        kernel
            .fs_write_file("/app/fn.jlar", archive.encode())
            .unwrap();
        kernel
            .fs_write_file("/bin/jlvm", vec![0x7F; 512 << 10])
            .ok();
        kernel.fs_create_dir_all("/bin").unwrap();
        kernel
            .fs_write_file("/bin/jlvm", vec![0x7F; 512 << 10])
            .unwrap();
        let pid = kernel.sys_clone(INIT_PID).unwrap();
        kernel.sys_execve(pid, "/bin/jlvm", &[]).unwrap();
        let mut config = JlvmConfig::new("/app/fn.jlar", 8080);
        config.costs = free_costs();
        config.lazy_link = lazy_link;
        (kernel, pid, config, names)
    }

    #[test]
    fn boot_touches_base_footprint() {
        let (mut kernel, pid, config, _) = setup(false);
        let f = config.costs.base_footprint;
        let footprint = f.code_cache_touch + f.heap_touch + f.metaspace_touch;
        let jvm = Jlvm::boot(&mut kernel, pid, config).unwrap();
        let resident = kernel.process(pid).unwrap().mem.resident_bytes();
        assert!(
            resident >= footprint,
            "resident {resident} < footprint {footprint}"
        );
        assert_eq!(jvm.state().phase, Phase::Booting);
    }

    #[test]
    fn replica_lifecycle_and_lazy_loading() {
        let (mut kernel, pid, config, names) = setup(false);
        let handler = Box::new(TestHandler {
            lazy: names.clone(),
            inits: 0,
            attaches: 0,
        });
        let mut replica = Replica::boot(&mut kernel, pid, config, handler).unwrap();
        assert_eq!(replica.jvm().state().phase, Phase::Ready);
        assert_eq!(replica.jvm().state().classes.len(), 0, "lazy: none yet");

        let resp = replica.handle(&mut kernel, &Request::empty()).unwrap();
        assert_eq!(resp.status, 200);
        let st = replica.jvm().state();
        assert_eq!(st.classes.len(), names.len());
        assert!(st.classes.iter().all(|c| c.jitted), "first use JITs");
        assert_eq!(st.requests_served, 1);

        // Second request: nothing new to load or compile.
        replica.handle(&mut kernel, &Request::empty()).unwrap();
        assert_eq!(replica.jvm().state().requests_served, 2);
    }

    #[test]
    fn handle_before_ready_fails() {
        let (mut kernel, pid, config, _) = setup(false);
        let mut jvm = Jlvm::boot(&mut kernel, pid, config).unwrap();
        jvm.load_archive(&mut kernel).unwrap();
        let mut replica = Replica {
            jvm,
            handler: Box::new(TestHandler {
                lazy: vec![],
                inits: 0,
                attaches: 0,
            }),
        };
        assert_eq!(
            replica.handle(&mut kernel, &Request::empty()).unwrap_err(),
            Errno::Enotconn
        );
    }

    #[test]
    fn load_class_is_idempotent_and_fills_metaspace() {
        let (mut kernel, pid, config, names) = setup(false);
        let mut jvm = Jlvm::boot(&mut kernel, pid, config).unwrap();
        jvm.load_archive(&mut kernel).unwrap();
        let before = jvm.state().metaspace_cursor;
        assert!(jvm.load_class(&mut kernel, &names[0]).unwrap());
        let after = jvm.state().metaspace_cursor;
        assert!(after > before);
        assert!(!jvm.load_class(&mut kernel, &names[0]).unwrap());
        assert_eq!(jvm.state().metaspace_cursor, after, "no double install");
        assert_eq!(
            jvm.load_class(&mut kernel, "no.such.Class").unwrap_err(),
            Errno::Enoent
        );
    }

    #[test]
    fn jit_requires_loaded_class() {
        let (mut kernel, pid, config, names) = setup(false);
        let mut jvm = Jlvm::boot(&mut kernel, pid, config).unwrap();
        jvm.load_archive(&mut kernel).unwrap();
        assert_eq!(
            jvm.jit_class(&mut kernel, &names[0]).unwrap_err(),
            Errno::Enoent
        );
        jvm.load_class(&mut kernel, &names[0]).unwrap();
        assert!(jvm.jit_class(&mut kernel, &names[0]).unwrap());
        assert!(!jvm.jit_class(&mut kernel, &names[0]).unwrap());
    }

    #[test]
    fn lazy_link_charged_once() {
        use prebake_sim::cost::CostModel;
        use prebake_sim::noise::Noise;
        let (_, _, _, names) = setup(false);
        // fresh kernel with calibrated runtime costs but free OS costs, so
        // the only charge we see is lazy_link_init.
        let mut kernel = Kernel::with_config(CostModel::free(), Noise::new(0, 0.0));
        kernel.fs_create_dir_all("/app").unwrap();
        let classes = synth_class_set("app", 5, 6, 30_000);
        let archive = Archive::from_classes(&classes);
        kernel
            .fs_write_file("/app/fn.jlar", archive.encode())
            .unwrap();
        kernel.fs_create_dir_all("/bin").unwrap();
        kernel.fs_write_file("/bin/jlvm", vec![1u8; 1024]).unwrap();
        let pid = kernel.sys_clone(INIT_PID).unwrap();
        let mut config = JlvmConfig::new("/app/fn.jlar", 8080);
        config.costs = free_costs();
        config.costs.lazy_link_init = SimDuration::from_millis(35);
        config.lazy_link = true;
        let handler = Box::new(TestHandler {
            lazy: names,
            inits: 0,
            attaches: 0,
        });
        let mut replica = Replica::boot(&mut kernel, pid, config, handler).unwrap();
        let t0 = kernel.now();
        replica.handle(&mut kernel, &Request::empty()).unwrap();
        let first = kernel.now() - t0;
        let t1 = kernel.now();
        replica.handle(&mut kernel, &Request::empty()).unwrap();
        let second = kernel.now() - t1;
        assert!(first.as_millis_f64() >= 35.0, "first {first}");
        assert!(second.as_millis_f64() < 1.0, "second {second}");
    }

    #[test]
    fn state_survives_persist_and_attach_in_same_process() {
        let (mut kernel, pid, config, names) = setup(false);
        let handler = Box::new(TestHandler {
            lazy: names.clone(),
            inits: 0,
            attaches: 0,
        });
        let mut replica = Replica::boot(&mut kernel, pid, config.clone(), handler).unwrap();
        replica.handle(&mut kernel, &Request::empty()).unwrap();
        let expect = replica.jvm().state().clone();

        // Attach a second host-side view to the same guest (as restore
        // does after reinstating memory).
        let reread = Jlvm::attach(&mut kernel, pid, config).unwrap();
        assert_eq!(reread.state(), &expect);
    }

    #[test]
    fn alloc_heap_alignment_and_exhaustion() {
        let (mut kernel, pid, config, _) = setup(false);
        let mut jvm = Jlvm::boot(&mut kernel, pid, config).unwrap();
        let a = jvm.alloc_heap(10).unwrap();
        let b = jvm.alloc_heap(10).unwrap();
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 10);
        assert_eq!(jvm.alloc_heap(HEAP_REGION_LEN).unwrap_err(), Errno::Enomem);
    }

    #[test]
    fn pattern_bytes_nonzero_and_deterministic() {
        let a = pattern_bytes(7, 3 * PAGE_SIZE);
        let b = pattern_bytes(7, 3 * PAGE_SIZE);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x != 0));
        assert_ne!(pattern_bytes(8, 64), pattern_bytes(7, 64));
    }

    #[test]
    fn tiled_pattern_repeats_page_content() {
        let tiled = tiled_pattern_bytes(7, 10 * PAGE_SIZE, 4);
        assert_eq!(tiled.len(), 10 * PAGE_SIZE);
        assert!(tiled.iter().all(|&x| x != 0));
        // Page 4 repeats page 0; pages within a period stay distinct.
        assert_eq!(tiled[..PAGE_SIZE], tiled[4 * PAGE_SIZE..5 * PAGE_SIZE]);
        assert_ne!(tiled[..PAGE_SIZE], tiled[PAGE_SIZE..2 * PAGE_SIZE]);
        // Short fills truncate the tile.
        assert_eq!(tiled_pattern_bytes(7, 100, 4).len(), 100);
    }

    #[test]
    fn markers_emitted_in_order() {
        let (mut kernel, pid, config, _) = setup(false);
        kernel.set_tracing(true);
        let handler = Box::new(TestHandler {
            lazy: vec![],
            inits: 0,
            attaches: 0,
        });
        Replica::boot(&mut kernel, pid, config, handler).unwrap();
        let markers: Vec<String> = kernel
            .take_trace()
            .into_iter()
            .filter_map(|e| e.kind.as_marker().map(str::to_owned))
            .collect();
        assert_eq!(markers, vec!["rts-start", "main-entry", "ready"]);
    }
}
