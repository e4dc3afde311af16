//! Processes, threads, file descriptors and capabilities.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{Errno, SysResult};
use crate::mem::AddressSpace;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A thread identifier (unique machine-wide, like Linux TIDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u32);

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Linux-style capabilities relevant to checkpoint/restore.
///
/// The paper highlights the (then-new) `CAP_CHECKPOINT_RESTORE` capability
/// that lets CRIU run unprivileged; the kernel checks it on ptrace and
/// clone-with-pid operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cap {
    /// `CAP_SYS_ADMIN` — the classic blanket requirement.
    SysAdmin,
    /// `CAP_SYS_PTRACE` — attach/peek/poke arbitrary tasks.
    SysPtrace,
    /// `CAP_CHECKPOINT_RESTORE` — Linux ≥5.9 scoped capability.
    CheckpointRestore,
}

impl Cap {
    const fn bit(self) -> u8 {
        match self {
            Cap::SysAdmin => 1 << 0,
            Cap::SysPtrace => 1 << 1,
            Cap::CheckpointRestore => 1 << 2,
        }
    }
}

/// A set of [`Cap`]s.
///
/// # Examples
///
/// ```
/// use prebake_sim::proc::{Cap, CapSet};
///
/// let caps = CapSet::empty().with(Cap::CheckpointRestore);
/// assert!(caps.has(Cap::CheckpointRestore));
/// assert!(!caps.has(Cap::SysAdmin));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CapSet(u8);

impl CapSet {
    /// No capabilities.
    pub const fn empty() -> Self {
        CapSet(0)
    }

    /// All modelled capabilities (a root-ish task).
    pub(crate) const fn all() -> Self {
        CapSet(Cap::SysAdmin.bit() | Cap::SysPtrace.bit() | Cap::CheckpointRestore.bit())
    }

    /// Returns a copy with `cap` added.
    pub const fn with(self, cap: Cap) -> Self {
        CapSet(self.0 | cap.bit())
    }

    /// Returns `true` if `cap` is present.
    pub const fn has(self, cap: Cap) -> bool {
        self.0 & cap.bit() != 0
    }

    /// Returns `true` if the set permits checkpoint/restore operations:
    /// either the scoped capability or one of the blanket ones.
    pub const fn can_checkpoint(self) -> bool {
        self.has(Cap::CheckpointRestore) || self.has(Cap::SysAdmin) || self.has(Cap::SysPtrace)
    }
}

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// Runnable / running.
    Running,
    /// Stopped by the tracer (`PTRACE_INTERRUPT`).
    Frozen,
}

/// Register file captured per thread. The checkpoint `core` image stores
/// these and the restorer re-installs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Regs {
    /// Instruction pointer.
    pub ip: u64,
    /// Stack pointer.
    pub sp: u64,
}

/// A thread of a simulated process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thread {
    /// Thread id.
    pub tid: Tid,
    /// Scheduling state.
    pub state: ThreadState,
    /// Captured registers.
    pub regs: Regs,
}

/// What a file descriptor refers to. The checkpoint `files` image
/// serialises this table; restore re-opens each entry. A listener is
/// the only descriptor a process can open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEntry {
    /// A listening TCP socket (the function's HTTP server).
    Listener {
        /// Bound port.
        port: u16,
    },
}

/// A process's file-descriptor table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FdTable {
    entries: BTreeMap<i32, FdEntry>,
    next_fd: i32,
}

impl FdTable {
    /// An empty table; descriptors start at 3 (0-2 reserved for stdio).
    pub fn new() -> Self {
        FdTable {
            entries: BTreeMap::new(),
            next_fd: 3,
        }
    }

    /// Installs an entry at the next free descriptor.
    pub(crate) fn insert(&mut self, entry: FdEntry) -> i32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.entries.insert(fd, entry);
        fd
    }

    /// Installs an entry at a specific descriptor (restore path).
    ///
    /// # Errors
    ///
    /// [`Errno::Eexist`] if the descriptor is occupied, [`Errno::Ebadf`]
    /// for reserved descriptors (< 3).
    pub(crate) fn insert_at(&mut self, fd: i32, entry: FdEntry) -> SysResult<()> {
        if fd < 3 {
            return Err(Errno::Ebadf);
        }
        if self.entries.contains_key(&fd) {
            return Err(Errno::Eexist);
        }
        self.next_fd = self.next_fd.max(fd + 1);
        self.entries.insert(fd, entry);
        Ok(())
    }

    /// Iterates `(fd, entry)` pairs in descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, &FdEntry)> {
        self.entries.iter().map(|(fd, e)| (*fd, e))
    }
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcState {
    /// At least one runnable thread.
    Running,
    /// All threads frozen by a tracer.
    Frozen,
    /// Exited, not yet reaped.
    Zombie,
}

/// A simulated process.
///
/// Fields are public within the crate; external consumers go through
/// [`Kernel`](crate::kernel::Kernel) accessors.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub(crate) ppid: Pid,
    /// Command name (`/proc/<pid>/comm`).
    pub comm: String,
    /// Command line.
    pub cmdline: Vec<String>,
    /// Lifecycle state.
    pub state: ProcState,
    /// Virtual memory.
    pub mem: AddressSpace,
    /// Open file descriptors.
    pub fds: FdTable,
    /// Threads (at least one while running).
    pub threads: Vec<Thread>,
    /// Capabilities.
    pub caps: CapSet,
    /// Exit code once exited.
    pub(crate) exit_code: Option<i32>,
    /// Pid of the tracer, if seized.
    pub traced_by: Option<Pid>,
}

impl Process {
    /// Creates a fresh single-threaded process shell.
    pub(crate) fn new(pid: Pid, ppid: Pid, comm: impl Into<String>, main_tid: Tid) -> Self {
        Process {
            pid,
            ppid,
            comm: comm.into(),
            cmdline: Vec::new(),
            state: ProcState::Running,
            mem: AddressSpace::new(),
            fds: FdTable::new(),
            threads: vec![Thread {
                tid: main_tid,
                state: ThreadState::Running,
                regs: Regs::default(),
            }],
            caps: CapSet::empty(),
            exit_code: None,
            traced_by: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capset_operations() {
        let c = CapSet::empty();
        assert!(!c.has(Cap::SysAdmin));
        assert!(!c.can_checkpoint());
        let c = c.with(Cap::CheckpointRestore);
        assert!(c.can_checkpoint());
        assert!(!c.has(Cap::SysPtrace));
        assert!(CapSet::all().has(Cap::SysAdmin));
        assert!(CapSet::all().can_checkpoint());
    }

    #[test]
    fn sys_ptrace_alone_allows_checkpoint() {
        assert!(CapSet::empty().with(Cap::SysPtrace).can_checkpoint());
    }

    #[test]
    fn fd_table_allocates_from_three() {
        let mut t = FdTable::new();
        let fd = t.insert(FdEntry::Listener { port: 8080 });
        assert_eq!(fd, 3);
        let fd2 = t.insert(FdEntry::Listener { port: 8081 });
        assert_eq!(fd2, 4);
        assert_eq!(t.entries.len(), 2);
    }

    #[test]
    fn fd_insert_at_respects_reservations() {
        let mut t = FdTable::new();
        assert_eq!(
            t.insert_at(0, FdEntry::Listener { port: 1 }).unwrap_err(),
            Errno::Ebadf
        );
        t.insert_at(7, FdEntry::Listener { port: 1 }).unwrap();
        assert_eq!(
            t.insert_at(7, FdEntry::Listener { port: 2 }).unwrap_err(),
            Errno::Eexist
        );
        // allocator continues after the fixed insert
        assert_eq!(t.insert(FdEntry::Listener { port: 3 }), 8);
    }

    #[test]
    fn new_process_defaults() {
        let p = Process::new(Pid(5), Pid(1), "noop", Tid(5));
        assert_eq!(p.state, ProcState::Running);
        assert_eq!(p.threads.len(), 1);
        assert!(p.fds.entries.is_empty());
        assert!(p.exit_code.is_none());
    }
}
