//! Syscall/trace probes.
//!
//! The paper instruments function start-up with `bpftrace` syscall probes
//! (enter/exit of `clone` and `execve`) plus log lines emitted by the
//! runtime at phase boundaries. The kernel reproduces this: when tracing
//! is enabled it records a [`ProbeEvent`] stream that the
//! `PhaseTracker` in `prebake-core` folds into the paper's four phases
//! (CLONE, EXEC, RTS, APPINIT).

use crate::proc::Pid;
use crate::time::SimInstant;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Virtual time of the event.
    pub time: SimInstant,
    /// Process the event belongs to.
    pub pid: Pid,
    /// What happened.
    pub kind: ProbeKind,
}

/// Event discriminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeKind {
    /// Entry into a syscall (the `bpftrace` `tracepoint:syscalls:sys_enter_*` analogue).
    SyscallEnter(&'static str),
    /// Exit from a syscall.
    SyscallExit(&'static str),
    /// A named user-level marker (runtime log line), e.g. `rts-start`,
    /// `main-entry`, `ready`.
    Marker(String),
    /// A demand-paging fault resolved by the kernel's `userfaultfd`
    /// analogue. `major` is true when the page content had to be fetched
    /// from a registered fault backend (snapshot image), false for a
    /// minor fault (demand-zero materialization while registered).
    PageFault {
        /// Whether the fault was backed by snapshot content.
        major: bool,
    },
    /// A copy-on-write break: the first write to a shared page frame
    /// (mapped from the content-addressed page store) paid its deferred
    /// private copy.
    CowBreak,
    /// One vectored scatter-gather operation over a run of contiguous
    /// pages (`copy_extent` / `cow_map_extent` / vectored prefetch):
    /// `pages` pages moved under a single setup charge.
    ExtentCopy {
        /// Pages covered by the run.
        pages: u64,
    },
    /// Batched fault servicing woke `pages` *extra* neighbouring pages
    /// alongside one trapping fault — each a major fault avoided.
    FaultAround {
        /// Neighbour pages installed without trapping.
        pages: u64,
    },
}

impl ProbeKind {
    /// Returns the marker name if this is a marker event.
    pub fn as_marker(&self) -> Option<&str> {
        match self {
            ProbeKind::Marker(name) => Some(name),
            _ => None,
        }
    }

    /// Returns the syscall name if this is a syscall-enter event.
    pub fn as_enter(&self) -> Option<&'static str> {
        match self {
            ProbeKind::SyscallEnter(name) => Some(name),
            _ => None,
        }
    }

    /// Returns the syscall name if this is a syscall-exit event.
    pub fn as_exit(&self) -> Option<&'static str> {
        match self {
            ProbeKind::SyscallExit(name) => Some(name),
            _ => None,
        }
    }
}

/// Aggregate counts over a probe trace.
///
/// The `bpftrace` scripts the paper uses end with a `count()` aggregation
/// per tracepoint; this is the equivalent fold over a recorded
/// [`ProbeEvent`] stream. Used by the lazy-restore ablation harness to
/// report major/minor fault totals next to latency percentiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// Number of syscall-enter events.
    pub syscall_enters: u64,
    /// Number of syscall-exit events.
    pub syscall_exits: u64,
    /// Number of user-level markers.
    pub markers: u64,
    /// Major demand-paging faults (content served from a fault backend).
    pub major_faults: u64,
    /// Minor demand-paging faults (demand-zero while registered).
    pub minor_faults: u64,
    /// Copy-on-write breaks (first write to a shared page frame).
    pub cow_breaks: u64,
    /// Vectored extent operations performed (runs, not pages).
    pub extents_restored: u64,
    /// Major faults avoided by fault-around servicing (sum of the extra
    /// neighbour pages installed without their own trap).
    pub faults_avoided: u64,
}

impl ProbeCounters {
    /// Folds a probe trace into per-kind counts.
    pub fn from_events(events: &[ProbeEvent]) -> ProbeCounters {
        let mut c = ProbeCounters::default();
        for ev in events {
            match &ev.kind {
                ProbeKind::SyscallEnter(_) => c.syscall_enters += 1,
                ProbeKind::SyscallExit(_) => c.syscall_exits += 1,
                ProbeKind::Marker(_) => c.markers += 1,
                ProbeKind::PageFault { major: true } => c.major_faults += 1,
                ProbeKind::PageFault { major: false } => c.minor_faults += 1,
                ProbeKind::CowBreak => c.cow_breaks += 1,
                ProbeKind::ExtentCopy { .. } => c.extents_restored += 1,
                ProbeKind::FaultAround { pages } => c.faults_avoided += pages,
            }
        }
        c
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &ProbeCounters) {
        self.syscall_enters += other.syscall_enters;
        self.syscall_exits += other.syscall_exits;
        self.markers += other.markers;
        self.major_faults += other.major_faults;
        self.minor_faults += other.minor_faults;
        self.cow_breaks += other.cow_breaks;
        self.extents_restored += other.extents_restored;
        self.faults_avoided += other.faults_avoided;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_accessors() {
        let m = ProbeKind::Marker("ready".into());
        assert_eq!(m.as_marker(), Some("ready"));
        assert_eq!(m.as_enter(), None);

        let e = ProbeKind::SyscallEnter("clone");
        assert_eq!(e.as_enter(), Some("clone"));
        assert_eq!(e.as_exit(), None);
        assert_eq!(e.as_marker(), None);

        let x = ProbeKind::SyscallExit("execve");
        assert_eq!(x.as_exit(), Some("execve"));

        let f = ProbeKind::PageFault { major: true };
        assert_eq!(f.as_marker(), None);
    }

    #[test]
    fn counters_fold_a_trace() {
        use crate::time::SimInstant;
        let at = SimInstant::EPOCH;
        let pid = Pid(1);
        let events = vec![
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::SyscallEnter("clone"),
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::SyscallExit("clone"),
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::Marker("ready".into()),
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::PageFault { major: true },
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::PageFault { major: true },
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::PageFault { major: false },
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::CowBreak,
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::ExtentCopy { pages: 8 },
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::ExtentCopy { pages: 2 },
            },
            ProbeEvent {
                time: at,
                pid,
                kind: ProbeKind::FaultAround { pages: 3 },
            },
        ];
        let c = ProbeCounters::from_events(&events);
        assert_eq!(c.syscall_enters, 1);
        assert_eq!(c.syscall_exits, 1);
        assert_eq!(c.markers, 1);
        assert_eq!(c.major_faults, 2);
        assert_eq!(c.minor_faults, 1);
        assert_eq!(c.cow_breaks, 1);
        assert_eq!(c.extents_restored, 2, "extent runs counted, not pages");
        assert_eq!(c.faults_avoided, 3, "fault-around sums neighbour pages");

        let mut m = ProbeCounters::default();
        m.merge(&c);
        m.merge(&c);
        assert_eq!(m.major_faults, 4);
        assert_eq!(m.cow_breaks, 2);
        assert_eq!(m.syscall_enters, 2);
        assert_eq!(m.extents_restored, 4);
        assert_eq!(m.faults_avoided, 6);
    }

    #[test]
    fn counters_of_empty_trace_are_zero() {
        assert_eq!(ProbeCounters::from_events(&[]), ProbeCounters::default());
    }
}
