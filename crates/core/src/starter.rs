//! Start-up mechanisms: the paper's *Vanilla* fork-exec path and the
//! *Prebaking* restore path, behind one [`Starter`] abstraction.

use prebake_criu::{restore, RestoreMode, RestoreOptions, RestoreStats};
use prebake_runtime::Replica;
use prebake_sim::error::SysResult;
use prebake_sim::kernel::Kernel;
use prebake_sim::probe::ProbeEvent;
use prebake_sim::proc::{CapSet, Pid};
use prebake_sim::time::SimDuration;
use prebake_sim::trace::TraceSpan;

use crate::env::{Deployment, RUNTIME_BIN};
use crate::phases::{PhaseTracker, Phases};

/// A started replica plus its start-up measurements.
#[derive(Debug)]
pub struct Started {
    /// The ready-to-serve replica.
    pub replica: Replica,
    /// Time from the start command to readiness.
    pub startup: SimDuration,
    /// The Figure-4 phase decomposition.
    pub phases: Phases,
    /// The raw probe trace of the start-up window (syscalls, markers,
    /// page faults) — fold it with
    /// [`ProbeCounters::from_events`](prebake_sim::probe::ProbeCounters).
    pub trace: Vec<ProbeEvent>,
    /// The span tree of the start-up window, rooted at a `"startup"`
    /// span, when the kernel had span tracing enabled. Empty when span
    /// tracing was off, and also when an enclosing tracing session (a
    /// platform cold-start span or a traced trial) owns the tree — the
    /// starter then leaves its spans in the kernel for the session to
    /// drain as one tree.
    pub spans: Vec<TraceSpan>,
    /// Restore statistics when the start-up was a snapshot restore
    /// (`None` for the vanilla fork-exec path).
    pub restore: Option<RestoreStats>,
}

/// A mechanism for starting function replicas.
pub trait Starter {
    /// Short label for reports (`"vanilla"`, `"prebake"`).
    fn label(&self) -> &'static str;

    /// Starts one replica of `dep` on `kernel`, driven by `supervisor`
    /// (the watchdog process).
    ///
    /// # Errors
    ///
    /// Propagates kernel/runtime errors.
    fn start(&self, kernel: &mut Kernel, supervisor: Pid, dep: &Deployment) -> SysResult<Started>;
}

impl std::fmt::Debug for dyn Starter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Starter({})", self.label())
    }
}

/// The state-of-the-practice start-up: `clone` + `execve` of the runtime
/// launcher, runtime bootstrap, application initialisation.
#[derive(Debug, Clone, Copy, Default)]
pub struct VanillaStarter;

impl Starter for VanillaStarter {
    fn label(&self) -> &'static str {
        "vanilla"
    }

    fn start(&self, kernel: &mut Kernel, supervisor: Pid, dep: &Deployment) -> SysResult<Started> {
        // Probe tracing is always on for the start window (the paper's
        // bpftrace session); span recording stays at whatever the caller
        // configured. An enclosing session (platform cold-start span,
        // traced trial) owns the tree, so only a standalone start drains
        // the tracer into `Started::spans`.
        kernel.set_tracing(true);
        let outer = kernel.open_spans() > 0;
        let t0 = kernel.now();
        let root = kernel.span_begin("startup", supervisor);
        kernel.span_attr(root, "starter", self.label());

        let pid = kernel.sys_clone(supervisor)?;
        // Replicas run unprivileged.
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
        let replica = Replica::boot(kernel, pid, config, handler)?;

        let ready = kernel.now();
        kernel.span_end(root);
        let trace = kernel.take_trace();
        kernel.set_tracing(false);
        let spans = if outer {
            Vec::new()
        } else {
            kernel.take_spans()
        };
        Ok(Started {
            replica,
            startup: ready - t0,
            phases: PhaseTracker::new(t0, ready).phases(&trace),
            trace,
            spans,
            restore: None,
        })
    }
}

/// The paper's prebaking start-up: `criu restore` of a snapshot baked at
/// build time, then handler re-attachment. No exec, no RTS, no class
/// loading, no JIT beyond what the snapshot lacks.
///
/// The restore [`mode`](PrebakeStarter::mode) selects the eager page
/// reinstatement the paper measured or the lazy/prefetch refinements
/// (`prebake-lazy`); prefetch requires a `ws.img` recorded at bake time.
#[derive(Debug, Clone)]
pub struct PrebakeStarter {
    /// How restore reinstates memory.
    pub mode: RestoreMode,
    /// Install eager memory run-at-a-time from the snapshot's extent
    /// table (on by default); off selects the page-granular baseline,
    /// which only [`RestoreMode::Eager`] has — the restore of any other
    /// mode fails with `Einval`.
    pub vectored: bool,
    /// Fault-around window for the uffd-backed modes (1 = none).
    pub fault_around: usize,
    /// Restorer worker threads for the sharded parallel eager install
    /// (1 = serial); above 1, the restore of any other mode fails with
    /// `Einval`.
    pub threads: usize,
}

impl Default for PrebakeStarter {
    fn default() -> PrebakeStarter {
        PrebakeStarter {
            mode: RestoreMode::default(),
            vectored: true,
            fault_around: 1,
            threads: 1,
        }
    }
}

impl PrebakeStarter {
    /// Starts from the deployment's snapshot directory, eagerly.
    pub fn new() -> PrebakeStarter {
        PrebakeStarter::default()
    }

    /// Same, restoring with the given memory mode.
    pub fn with_mode(mode: RestoreMode) -> PrebakeStarter {
        PrebakeStarter {
            mode,
            ..PrebakeStarter::default()
        }
    }
}

impl Starter for PrebakeStarter {
    fn label(&self) -> &'static str {
        match self.mode {
            RestoreMode::Eager => "prebake",
            RestoreMode::Lazy => "prebake-lazy",
            RestoreMode::Record => "prebake-record",
            RestoreMode::Prefetch => "prebake-prefetch",
            RestoreMode::Cow => "prebake-cow",
            RestoreMode::CowPrefetch => "prebake-cow-prefetch",
        }
    }

    fn start(&self, kernel: &mut Kernel, supervisor: Pid, dep: &Deployment) -> SysResult<Started> {
        kernel.set_tracing(true);
        let outer = kernel.open_spans() > 0;
        let t0 = kernel.now();
        let root = kernel.span_begin("startup", supervisor);
        kernel.span_attr(root, "starter", self.label());

        let mut opts = RestoreOptions::with_mode(dep.images_dir(), self.mode);
        opts.vectored = self.vectored;
        opts.fault_around = self.fault_around;
        opts.threads = self.threads;
        let stats = restore(kernel, supervisor, &opts)?;
        let handler = dep.spec.make_handler(&dep.app_dir);
        let replica = Replica::attach(kernel, stats.pid, dep.jlvm_config(), handler)?;
        kernel.emit_marker(stats.pid, "ready");

        let ready = kernel.now();
        kernel.span_end(root);
        let trace = kernel.take_trace();
        kernel.set_tracing(false);
        let spans = if outer {
            Vec::new()
        } else {
            kernel.take_spans()
        };
        Ok(Started {
            replica,
            startup: ready - t0,
            phases: PhaseTracker::new(t0, ready).phases(&trace),
            trace,
            spans,
            restore: Some(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::provision_machine;
    use crate::prebaker::{bake, SnapshotPolicy};
    use prebake_functions::FunctionSpec;
    use prebake_runtime::http::Request;
    use prebake_runtime::state::Phase;

    fn deployed(seed: u64) -> (Kernel, Pid, Deployment) {
        let mut kernel = Kernel::new(seed);
        let watchdog = provision_machine(&mut kernel).unwrap();
        let dep = Deployment::install(&mut kernel, FunctionSpec::noop(), 8080).unwrap();
        (kernel, watchdog, dep)
    }

    #[test]
    fn vanilla_start_produces_serving_replica() {
        let (mut kernel, watchdog, dep) = deployed(1);
        let mut started = VanillaStarter.start(&mut kernel, watchdog, &dep).unwrap();
        assert_eq!(started.replica.jvm().state().phase, Phase::Ready);
        let resp = started
            .replica
            .handle(&mut kernel, &Request::empty())
            .unwrap();
        assert_eq!(resp.status, 200);
        // Paper Fig. 3: NOOP vanilla ≈ 103 ms.
        let ms = started.startup.as_millis_f64();
        assert!((90.0..120.0).contains(&ms), "vanilla NOOP startup {ms}ms");
        // Fig. 4: RTS ≈ 70 ms, clone+exec tiny.
        assert!((60.0..80.0).contains(&started.phases.rts.as_millis_f64()));
        assert!(started.phases.clone.as_millis_f64() < 2.0);
        assert!(started.phases.exec.as_millis_f64() < 3.0);
    }

    #[test]
    fn prebake_start_skips_rts() {
        let (mut kernel, watchdog, dep) = deployed(2);
        bake(
            &mut kernel,
            watchdog,
            &dep,
            SnapshotPolicy::AfterReady,
            &dep.images_dir(),
        )
        .unwrap();
        let mut started = PrebakeStarter::new()
            .start(&mut kernel, watchdog, &dep)
            .unwrap();
        assert_eq!(started.replica.jvm().state().phase, Phase::Ready);
        assert_eq!(started.phases.rts, SimDuration::ZERO);
        assert_eq!(started.phases.exec, SimDuration::ZERO);
        let resp = started
            .replica
            .handle(&mut kernel, &Request::empty())
            .unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn prebake_beats_vanilla_on_noop() {
        // Two fresh machines with the same seed-class noise.
        let (mut k1, w1, d1) = deployed(3);
        let vanilla = VanillaStarter.start(&mut k1, w1, &d1).unwrap();

        let (mut k2, w2, d2) = deployed(4);
        bake(
            &mut k2,
            w2,
            &d2,
            SnapshotPolicy::AfterReady,
            &d2.images_dir(),
        )
        .unwrap();
        crate::env::fresh_container(&mut k2, &d2.image_paths()).unwrap();
        let prebake = PrebakeStarter::new().start(&mut k2, w2, &d2).unwrap();

        let v = vanilla.startup.as_millis_f64();
        let p = prebake.startup.as_millis_f64();
        assert!(p < v, "prebake {p}ms !< vanilla {v}ms");
        // Paper Fig. 3: ≈40% improvement for NOOP.
        let improvement = (v - p) / v;
        assert!(
            (0.25..0.55).contains(&improvement),
            "improvement {improvement} (v={v}, p={p})"
        );
    }
}
