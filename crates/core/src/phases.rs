//! Start-up phase decomposition (the paper's Figure 4).
//!
//! The paper instruments start-up with `bpftrace` syscall probes and
//! runtime log lines, splitting it into four components:
//!
//! 1. **CLONE** — the `clone(2)` call;
//! 2. **EXEC** — the `execve(2)` call;
//! 3. **RTS** — end of exec to the first line of `main()` (runtime
//!    bootstrap);
//! 4. **APPINIT** — `main()` to ready-to-serve.
//!
//! `PhaseTracker` folds a kernel probe trace into those components. On
//! the prebake path there is no exec and no runtime bootstrap, so EXEC
//! and RTS collapse to zero and the restore work lands in APPINIT —
//! matching the paper's observation that restored start-up is "almost
//! totally dictated by the APPINIT phase".

use prebake_sim::probe::ProbeEvent;
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_sim::trace::TraceSpan;

/// Durations of the four start-up components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phases {
    /// `clone(2)` duration.
    pub clone: SimDuration,
    /// `execve(2)` duration (zero on the restore path).
    pub exec: SimDuration,
    /// Runtime bootstrap (zero on the restore path).
    pub rts: SimDuration,
    /// Application initialisation (includes restore work on the prebake
    /// path).
    pub appinit: SimDuration,
}

impl std::fmt::Display for Phases {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CLONE {:.2}ms | EXEC {:.2}ms | RTS {:.2}ms | APPINIT {:.2}ms",
            self.clone.as_millis_f64(),
            self.exec.as_millis_f64(),
            self.rts.as_millis_f64(),
            self.appinit.as_millis_f64()
        )
    }
}

/// Folds a probe trace into [`Phases`].
///
/// `start` is when the start command was issued; `ready` is when the
/// replica could serve. The tracker is robust to missing events (e.g. no
/// `execve` on the restore path): a missing boundary collapses the
/// corresponding phase to zero and attributes the time to the next one.
#[derive(Debug)]
pub(crate) struct PhaseTracker {
    start: SimInstant,
    ready: SimInstant,
}

impl PhaseTracker {
    /// Creates a tracker over a `[start, ready]` window.
    pub(crate) fn new(start: SimInstant, ready: SimInstant) -> PhaseTracker {
        PhaseTracker { start, ready }
    }

    /// Computes the phase decomposition from the recorded events.
    pub(crate) fn phases(&self, trace: &[ProbeEvent]) -> Phases {
        let window = |t: SimInstant| t >= self.start && t <= self.ready;
        let find_enter = |name: &str| {
            trace
                .iter()
                .find(|e| window(e.time) && e.kind.as_enter() == Some(name))
                .map(|e| e.time)
        };
        let find_exit = |name: &str| {
            trace
                .iter()
                .find(|e| window(e.time) && e.kind.as_exit() == Some(name))
                .map(|e| e.time)
        };
        let find_marker = |name: &str| {
            trace
                .iter()
                .find(|e| window(e.time) && e.kind.as_marker() == Some(name))
                .map(|e| e.time)
        };

        let clone_enter = find_enter("clone").unwrap_or(self.start);
        let clone_exit = find_exit("clone").unwrap_or(clone_enter);
        let clone = clone_exit.saturating_duration_since(clone_enter);

        let (exec, exec_end) = match (find_enter("execve"), find_exit("execve")) {
            (Some(enter), Some(exit)) => (exit.saturating_duration_since(enter), exit),
            _ => (SimDuration::ZERO, clone_exit),
        };

        let (rts, rts_end) = match find_marker("main-entry") {
            Some(main_entry) => (main_entry.saturating_duration_since(exec_end), main_entry),
            None => (SimDuration::ZERO, exec_end),
        };

        let ready = find_marker("ready").unwrap_or(self.ready);
        // Work before the clone (on the restore path, reading the images
        // and preparing the restorer) and after the RTS boundary both
        // belong to application initialisation — the paper's observation
        // that restored start-up is "almost totally dictated by APPINIT".
        let pre_clone = clone_enter.saturating_duration_since(self.start);
        let appinit = ready.saturating_duration_since(rts_end) + pre_clone;

        Phases {
            clone,
            exec,
            rts,
            appinit,
        }
    }

    /// Computes the phase decomposition from a recorded span tree instead
    /// of the flat probe stream.
    ///
    /// The kernel opens its `sys_clone`/`sys_execve` spans at the same
    /// instants it records the corresponding enter/exit probes, and
    /// markers ride on spans as annotations, so this yields *exactly* the
    /// same [`Phases`] as [`PhaseTracker::phases`] over the probe trace
    /// of the same window — the cross-check `trace_startup` asserts.
    pub(crate) fn phases_from_spans(&self, spans: &[TraceSpan]) -> Phases {
        let window = |t: SimInstant| t >= self.start && t <= self.ready;
        let find_span = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name && window(s.start) && window(s.end))
        };
        let find_marker = |name: &str| {
            spans
                .iter()
                .flat_map(|s| s.events.iter())
                .filter(|e| window(e.time) && e.kind.as_marker() == Some(name))
                .map(|e| e.time)
                .min()
        };

        let (clone_enter, clone_exit) = match find_span("sys_clone") {
            Some(s) => (s.start, s.end),
            None => (self.start, self.start),
        };
        let clone = clone_exit.saturating_duration_since(clone_enter);

        let (exec, exec_end) = match find_span("sys_execve") {
            Some(s) => (s.end.saturating_duration_since(s.start), s.end),
            None => (SimDuration::ZERO, clone_exit),
        };

        let (rts, rts_end) = match find_marker("main-entry") {
            Some(main_entry) => (main_entry.saturating_duration_since(exec_end), main_entry),
            None => (SimDuration::ZERO, exec_end),
        };

        let ready = find_marker("ready").unwrap_or(self.ready);
        let pre_clone = clone_enter.saturating_duration_since(self.start);
        let appinit = ready.saturating_duration_since(rts_end) + pre_clone;

        Phases {
            clone,
            exec,
            rts,
            appinit,
        }
    }
}

/// Derives [`Phases`] from a span tree containing a `"startup"` root span
/// (as recorded by the starters): the root's interval is the measurement
/// window. Returns `None` when no such root exists.
pub fn phases_from_span_tree(spans: &[TraceSpan]) -> Option<Phases> {
    let root = spans
        .iter()
        .filter(|s| s.name == "startup")
        .min_by_key(|s| s.start)?;
    Some(PhaseTracker::new(root.start, root.end).phases_from_spans(spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_sim::probe::ProbeKind;
    use prebake_sim::proc::Pid;

    fn ev(ms: u64, kind: ProbeKind) -> ProbeEvent {
        ProbeEvent {
            time: SimInstant::from_nanos(ms * 1_000_000),
            pid: Pid(2),
            kind,
        }
    }

    #[test]
    fn vanilla_trace_decomposes() {
        let trace = vec![
            ev(0, ProbeKind::SyscallEnter("clone")),
            ev(1, ProbeKind::SyscallExit("clone")),
            ev(1, ProbeKind::SyscallEnter("execve")),
            ev(3, ProbeKind::SyscallExit("execve")),
            ev(3, ProbeKind::Marker("rts-start".into())),
            ev(73, ProbeKind::Marker("main-entry".into())),
            ev(103, ProbeKind::Marker("ready".into())),
        ];
        let p = PhaseTracker::new(SimInstant::EPOCH, SimInstant::from_nanos(103 * 1_000_000))
            .phases(&trace);
        assert_eq!(p.clone.as_millis(), 1);
        assert_eq!(p.exec.as_millis(), 2);
        assert_eq!(p.rts.as_millis(), 70);
        assert_eq!(p.appinit.as_millis(), 30);
    }

    #[test]
    fn restore_trace_has_zero_exec_and_rts() {
        let trace = vec![
            ev(0, ProbeKind::SyscallEnter("clone")),
            ev(1, ProbeKind::SyscallExit("clone")),
            // restore work... no execve, no main-entry
            ev(60, ProbeKind::Marker("ready".into())),
        ];
        let p = PhaseTracker::new(SimInstant::EPOCH, SimInstant::from_nanos(60 * 1_000_000))
            .phases(&trace);
        assert_eq!(p.exec, SimDuration::ZERO);
        assert_eq!(p.rts, SimDuration::ZERO);
        assert_eq!(p.clone.as_millis(), 1);
        assert_eq!(p.appinit.as_millis(), 59);
    }

    #[test]
    fn events_outside_window_ignored() {
        let trace = vec![
            ev(0, ProbeKind::SyscallEnter("clone")),
            ev(1, ProbeKind::SyscallExit("clone")),
            ev(5, ProbeKind::Marker("ready".into())),
            // a later unrelated start
            ev(100, ProbeKind::SyscallEnter("clone")),
            ev(105, ProbeKind::SyscallExit("clone")),
        ];
        let p = PhaseTracker::new(SimInstant::EPOCH, SimInstant::from_nanos(5 * 1_000_000))
            .phases(&trace);
        assert_eq!(p.clone.as_millis(), 1);
        assert_eq!((p.clone + p.exec + p.rts + p.appinit).as_millis(), 5);
    }

    #[test]
    fn empty_trace_collapses_to_appinit() {
        let p = PhaseTracker::new(SimInstant::EPOCH, SimInstant::from_nanos(42 * 1_000_000))
            .phases(&[]);
        assert_eq!(p.clone, SimDuration::ZERO);
        assert_eq!(p.exec, SimDuration::ZERO);
        assert_eq!(p.rts, SimDuration::ZERO);
        assert_eq!(p.appinit.as_millis(), 42);
    }

    #[test]
    fn rows_and_display() {
        let p = Phases {
            clone: SimDuration::from_millis(1),
            exec: SimDuration::from_millis(2),
            rts: SimDuration::from_millis(70),
            appinit: SimDuration::from_millis(30),
        };
        let s = p.to_string();
        assert!(s.contains("RTS 70.00ms"), "{s}");
    }
}
