//! The experiment harness: repeated cold-start trials on fresh machines.
//!
//! One [`TrialRunner`] fixes a function and a start mode; each call to
//! [`TrialRunner::startup_trial`] provisions a *fresh machine* (fresh
//! page cache, fresh pids — the paper restarts the runtime and load
//! generator before every run), deploys the function, and measures one
//! cold start. Prebake modes bake the snapshot **once** on a builder
//! machine (that is the whole point of build-time snapshotting) and ship
//! the images into every trial machine's container image.

use bytes::Bytes;

use prebake_criu::{repack, ImageSet, RepackOptions, RepackStats, RestoreMode};
use prebake_functions::FunctionSpec;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::kernel::Kernel;
use prebake_sim::probe::ProbeCounters;
use prebake_sim::proc::Pid;
use prebake_sim::time::SimDuration;
use prebake_sim::trace::TraceSpan;

use crate::env::{export_images, fresh_container, import_images, provision_machine, Deployment};
use crate::phases::Phases;
use crate::prebaker::{bake, record_working_set, SnapshotPolicy};
use crate::starter::{PrebakeStarter, Started, Starter, VanillaStarter};

/// How a trial's replica is started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StartMode {
    /// fork-exec + full boot.
    Vanilla,
    /// Restore a snapshot taken after readiness (PB-NoWarmup).
    PrebakeNoWarmup,
    /// Restore a snapshot taken after `n` warm-up requests (PB-Warmup;
    /// the paper uses 1).
    PrebakeWarmup(u32),
    /// Restore the 1-warm-up snapshot lazily: the address space maps
    /// empty and every page demand-faults on first touch
    /// (`prebake-lazy`, no prefetch).
    PrebakeLazy,
    /// Restore the 1-warm-up snapshot with working-set prefetch: bake
    /// records the first invocation's fault order as `ws.img`, restores
    /// bulk-load exactly those pages and demand-fault the rest
    /// (`prebake-lazy`, REAP-style).
    PrebakePrefetch,
    /// Restore the 1-warm-up snapshot copy-on-write from the machine's
    /// content-addressed page store: every stored page is mapped as a
    /// shared frame, replicas pay the copy only on first write
    /// (`pagestore.img`).
    PrebakeCow,
    /// As [`StartMode::PrebakeCow`] for the recorded working set, with
    /// residual pages left behind the fault handler as in
    /// [`StartMode::PrebakePrefetch`].
    PrebakeCowPrefetch,
}

impl StartMode {
    /// The snapshot policy this mode bakes with, if any.
    pub(crate) fn policy(&self) -> Option<SnapshotPolicy> {
        match self {
            StartMode::Vanilla => None,
            StartMode::PrebakeNoWarmup => Some(SnapshotPolicy::AfterReady),
            StartMode::PrebakeWarmup(n) => Some(SnapshotPolicy::AfterWarmup(*n)),
            StartMode::PrebakeLazy
            | StartMode::PrebakePrefetch
            | StartMode::PrebakeCow
            | StartMode::PrebakeCowPrefetch => Some(SnapshotPolicy::AfterWarmup(1)),
        }
    }

    /// How the restore reinstates memory, if this mode restores at all.
    pub(crate) fn restore_mode(&self) -> Option<RestoreMode> {
        match self {
            StartMode::Vanilla => None,
            StartMode::PrebakeNoWarmup | StartMode::PrebakeWarmup(_) => Some(RestoreMode::Eager),
            StartMode::PrebakeLazy => Some(RestoreMode::Lazy),
            StartMode::PrebakePrefetch => Some(RestoreMode::Prefetch),
            StartMode::PrebakeCow => Some(RestoreMode::Cow),
            StartMode::PrebakeCowPrefetch => Some(RestoreMode::CowPrefetch),
        }
    }

    /// Whether baking must also run the working-set record pass.
    pub(crate) fn needs_working_set(&self) -> bool {
        self.restore_mode().is_some_and(RestoreMode::needs_ws)
    }

    /// Label used in reports (matches the paper's terminology).
    pub fn label(&self) -> String {
        match self {
            StartMode::Vanilla => "vanilla".to_owned(),
            StartMode::PrebakeNoWarmup => "pb-nowarmup".to_owned(),
            StartMode::PrebakeWarmup(1) => "pb-warmup".to_owned(),
            StartMode::PrebakeWarmup(n) => format!("pb-warmup-{n}"),
            StartMode::PrebakeLazy => "pb-lazy".to_owned(),
            StartMode::PrebakePrefetch => "pb-prefetch".to_owned(),
            StartMode::PrebakeCow => "pb-cow".to_owned(),
            StartMode::PrebakeCowPrefetch => "pb-cow-prefetch".to_owned(),
        }
    }

    /// The three modes of the paper's full-factorial §4.2.2 experiment.
    pub fn all_three() -> [StartMode; 3] {
        [
            StartMode::Vanilla,
            StartMode::PrebakeNoWarmup,
            StartMode::PrebakeWarmup(1),
        ]
    }

    /// The lazy-restore ablation trio: the paper's eager warm restore
    /// against the two `prebake-lazy` refinements, all over the same
    /// 1-warm-up snapshot.
    pub fn lazy_ablation() -> [StartMode; 3] {
        [
            StartMode::PrebakeWarmup(1),
            StartMode::PrebakeLazy,
            StartMode::PrebakePrefetch,
        ]
    }

    /// The page-store ablation trio: the paper's eager warm restore
    /// against the two copy-on-write strategies, all over the same
    /// 1-warm-up snapshot (`ablation_pagestore`).
    pub fn cow_ablation() -> [StartMode; 3] {
        [
            StartMode::PrebakeWarmup(1),
            StartMode::PrebakeCow,
            StartMode::PrebakeCowPrefetch,
        ]
    }
}

/// One cold-start observation.
#[derive(Debug, Clone, Copy)]
pub struct StartupTrial {
    /// Start command → ready to serve, in milliseconds (Fig. 3's
    /// "start-up time").
    pub startup_ms: f64,
    /// Start command → first response completed, in milliseconds (the
    /// §4.2.2 measurement: lazily-linking functions do their class
    /// loading inside the first request).
    pub first_response_ms: f64,
    /// Phase decomposition of the start-up (Fig. 4).
    pub phases: Phases,
    /// Snapshot size behind this start (0 for vanilla).
    pub snapshot_bytes: u64,
    /// Stored (non-zero) pages in the snapshot behind this start (0 for
    /// vanilla).
    pub pages_stored: usize,
    /// Distinct page contents among those stored pages — the page-store
    /// frame count the dedup view collapses them to (equals
    /// `pages_stored` when nothing dedups; 0 for vanilla).
    pub pages_unique: usize,
    /// Probe counters over the whole window (start-up **and** first
    /// request): syscalls, markers, and — under lazy restore modes —
    /// major/minor page faults and copy-on-write breaks.
    pub probes: ProbeCounters,
    /// Install shards the restore ran with (1 on the serial path, 0 for
    /// vanilla starts that restore nothing).
    pub restore_shards: usize,
    /// Payload bytes the prefetch read streamed instead of seeking for —
    /// non-zero only once the image is laid out in fault order.
    pub seek_bytes_avoided: u64,
    /// Stored pages the restore found compacted into the fallback layer
    /// (0 unless the image was repacked with compaction).
    pub pages_compacted: usize,
}

impl StartupTrial {
    /// Copy-on-write breaks taken across start-up and first request
    /// (non-zero only under the CoW restore modes).
    pub fn cow_breaks(&self) -> u64 {
        self.probes.cow_breaks
    }
}

/// A fixed (function, mode) pair that can run many independent trials.
///
/// `TrialRunner` is `Sync`: trials only need `&self`, so repetitions can
/// fan out across threads, each building its own machine.
#[derive(Debug)]
pub struct TrialRunner {
    spec: FunctionSpec,
    mode: StartMode,
    port: u16,
    baked_images: Option<Vec<(String, Bytes)>>,
    snapshot_bytes: u64,
    pages_stored: usize,
    pages_unique: usize,
    vectored: bool,
    fault_around: usize,
    threads: usize,
    repack: Option<RepackStats>,
}

impl TrialRunner {
    /// Prepares a runner; prebake modes bake the snapshot once here.
    ///
    /// # Errors
    ///
    /// Propagates build/bake errors.
    pub fn new(spec: FunctionSpec, mode: StartMode) -> SysResult<TrialRunner> {
        let port = 8080;
        let (baked_images, snapshot_bytes, pages_stored, pages_unique) = match mode.policy() {
            None => (None, 0, 0, 0),
            Some(policy) => {
                // The builder machine: where `faas-cli build` would run.
                let mut kernel = Kernel::new(0xBA5E);
                let builder = provision_machine(&mut kernel)?;
                let dep = Deployment::install(&mut kernel, spec.clone(), port)?;
                let report = bake(&mut kernel, builder, &dep, policy, &dep.images_dir())?;
                if mode.needs_working_set() {
                    // Record pass: restore once in record mode, drive the
                    // first invocation, persist `ws.img` beside the other
                    // images so export ships it automatically.
                    record_working_set(&mut kernel, builder, &dep, &dep.images_dir())?;
                }
                let files = export_images(&mut kernel, &dep.images_dir())?;
                (
                    Some(files),
                    report.snapshot_bytes(),
                    report.dump.pages_stored,
                    report.dump.pages_unique,
                )
            }
        };
        Ok(TrialRunner {
            spec,
            mode,
            port,
            baked_images,
            snapshot_bytes,
            pages_stored,
            pages_unique,
            vectored: true,
            fault_around: 1,
            threads: 1,
            repack: None,
        })
    }

    /// Selects the page-granular eager install for every trial (the
    /// pre-extent baseline; vectored extent restore is the default).
    /// Eager-only: trials of any other restore mode fail with `Einval`.
    #[must_use]
    pub fn page_granular(mut self) -> TrialRunner {
        self.vectored = false;
        self
    }

    /// Sets the fault-around window trials restore with (uffd-backed
    /// modes only; 1 = no fault-around).
    #[must_use]
    pub fn fault_around(mut self, window: usize) -> TrialRunner {
        self.fault_around = window;
        self
    }

    /// Restores with `threads` parallel install shards per trial. Values
    /// below 2 take the serial path bit-for-bit. Eager-only: above 1,
    /// trials of any other restore mode fail with `Einval`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> TrialRunner {
        self.threads = threads;
        self
    }

    /// Rewrites the baked images into recorded fault order (the offline
    /// `repack` pass, run once on a builder machine). Modes that do not
    /// record a working set get a record pass first.
    ///
    /// # Errors
    ///
    /// Propagates repack errors; [`Errno::Einval`] for vanilla runners,
    /// which have no images to rewrite.
    pub fn fault_order(mut self) -> SysResult<TrialRunner> {
        self.repack_images(false)?;
        Ok(self)
    }

    /// As [`TrialRunner::fault_order`], additionally compacting pages the
    /// recorded first invocation never touched into the fallback layer.
    ///
    /// # Errors
    ///
    /// Propagates repack errors; [`Errno::Einval`] for vanilla runners.
    pub fn compact(mut self) -> SysResult<TrialRunner> {
        self.repack_images(true)?;
        Ok(self)
    }

    /// Runs the offline repack on a scratch builder machine: import the
    /// baked images, record `ws.img` if this mode never did, repack in
    /// place, re-export. Trial machines then ship the rewritten images.
    fn repack_images(&mut self, compact: bool) -> SysResult<()> {
        let Some(files) = self.baked_images.take() else {
            return Err(Errno::Einval);
        };
        let mut kernel = Kernel::new(0x5EC0);
        let builder = provision_machine(&mut kernel)?;
        let dep = Deployment::install(&mut kernel, self.spec.clone(), self.port)?;
        import_images(&mut kernel, &dep.images_dir(), &files)?;
        if !files.iter().any(|(name, _)| name == ImageSet::WS_NAME) {
            record_working_set(&mut kernel, builder, &dep, &dep.images_dir())?;
        }
        let mut opts = RepackOptions::new(dep.images_dir());
        opts.compact = compact;
        let stats = repack(&mut kernel, &opts)?;
        self.baked_images = Some(export_images(&mut kernel, &dep.images_dir())?);
        self.repack = Some(stats);
        Ok(())
    }

    /// Stats of the offline repack pass, if [`TrialRunner::fault_order`]
    /// or [`TrialRunner::compact`] ran.
    pub fn repack_stats(&self) -> Option<RepackStats> {
        self.repack
    }

    /// Size of the baked snapshot (0 for vanilla).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Builds the trial machine: provision, deploy, ship snapshot images,
    /// then reset to fresh-container cache state.
    fn setup(&self, seed: u64) -> SysResult<(Kernel, Pid, Deployment)> {
        let mut kernel = Kernel::new(seed);
        let watchdog = provision_machine(&mut kernel)?;
        let dep = Deployment::install(&mut kernel, self.spec.clone(), self.port)?;
        let mut warm = Vec::new();
        if let Some(files) = &self.baked_images {
            import_images(&mut kernel, &dep.images_dir(), files)?;
            warm = dep.image_paths();
        }
        fresh_container(&mut kernel, &warm)?;
        Ok((kernel, watchdog, dep))
    }

    fn starter(&self) -> Box<dyn Starter> {
        match self.mode.restore_mode() {
            None => Box::new(VanillaStarter),
            Some(mode) => {
                let mut starter = PrebakeStarter::with_mode(mode);
                starter.vectored = self.vectored;
                starter.fault_around = self.fault_around;
                starter.threads = self.threads;
                Box::new(starter)
            }
        }
    }

    /// Runs one cold-start trial on a fresh machine.
    ///
    /// # Errors
    ///
    /// Propagates kernel/runtime errors.
    pub fn startup_trial(&self, seed: u64) -> SysResult<StartupTrial> {
        Ok(self.trial(seed, false)?.0)
    }

    /// As [`TrialRunner::startup_trial`], additionally recording the
    /// span trees of the start-up window (rooted at `"startup"`) and the
    /// first request (rooted at `"first_request"`). Span ids are unique
    /// across the two trees, so they concatenate into one artifact —
    /// feed it to [`prebake_sim::trace::chrome_trace_json`] or
    /// [`prebake_sim::trace::TraceSummary`].
    ///
    /// Kept separate from `startup_trial` so the big repetition sweeps
    /// stay free of span-recording overhead.
    ///
    /// # Errors
    ///
    /// Propagates kernel/runtime errors.
    pub fn traced_trial(&self, seed: u64) -> SysResult<(StartupTrial, Vec<TraceSpan>)> {
        self.trial(seed, true)
    }

    /// The one trial body: start, serve the first request, fold the
    /// probes. Span recording is on only when `spans` is; otherwise the
    /// span brackets are no-ops and the returned trees are empty.
    fn trial(&self, seed: u64, spans: bool) -> SysResult<(StartupTrial, Vec<TraceSpan>)> {
        let (mut kernel, watchdog, dep) = self.setup(seed)?;
        if spans {
            kernel.set_span_tracing(true);
        }
        let t0 = kernel.now();
        let Started {
            mut replica,
            startup,
            phases,
            trace,
            spans: mut all_spans,
            restore,
        } = self.starter().start(&mut kernel, watchdog, &dep)?;

        // First request (held until readiness by the load generator),
        // traced too: lazy modes take their demand faults here.
        kernel.set_tracing(true);
        let root = kernel.span_begin("first_request", replica.pid());
        let req = dep.spec.sample_request();
        replica.handle(&mut kernel, &req)?;
        kernel.span_end(root);
        let first_response = kernel.now() - t0;
        let request_trace = kernel.take_trace();
        kernel.set_tracing(false);
        if spans {
            all_spans.extend(kernel.take_spans());
            kernel.set_span_tracing(false);
        }

        let mut probes = ProbeCounters::from_events(&trace);
        probes.merge(&ProbeCounters::from_events(&request_trace));

        Ok((
            StartupTrial {
                startup_ms: startup.as_millis_f64(),
                first_response_ms: first_response.as_millis_f64(),
                phases,
                snapshot_bytes: self.snapshot_bytes,
                pages_stored: self.pages_stored,
                pages_unique: self.pages_unique,
                probes,
                restore_shards: restore.as_ref().map_or(0, |r| r.shards),
                seek_bytes_avoided: restore.as_ref().map_or(0, |r| r.seek_bytes_avoided),
                pages_compacted: restore.as_ref().map_or(0, |r| r.pages_compacted),
            },
            all_spans,
        ))
    }

    /// Starts once and serves `requests` sequential invocations at a
    /// constant rate, returning each service time in milliseconds (the
    /// paper's Fig. 7 methodology).
    ///
    /// # Errors
    ///
    /// Propagates kernel/runtime errors.
    pub fn service_trial(
        &self,
        seed: u64,
        requests: usize,
        inter_arrival: SimDuration,
    ) -> SysResult<Vec<f64>> {
        let (mut kernel, watchdog, dep) = self.setup(seed)?;
        let Started { mut replica, .. } = self.starter().start(&mut kernel, watchdog, &dep)?;
        let req = dep.spec.sample_request();
        let mut times = Vec::with_capacity(requests);
        for _ in 0..requests {
            let t0 = kernel.now();
            replica.handle(&mut kernel, &req)?;
            times.push((kernel.now() - t0).as_millis_f64());
            kernel.advance(inter_arrival);
        }
        Ok(times)
    }

    /// Runs `reps` startup trials with consecutive seeds, collecting
    /// `startup_ms` (Fig. 3/4 measurement).
    ///
    /// # Errors
    ///
    /// Propagates trial errors.
    pub fn startup_samples(&self, reps: usize, seed0: u64) -> SysResult<Vec<StartupTrial>> {
        (0..reps)
            .map(|i| self.startup_trial(seed0 + i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_functions::SyntheticSize;

    #[test]
    fn mode_labels_and_policies() {
        assert_eq!(StartMode::Vanilla.label(), "vanilla");
        assert_eq!(StartMode::PrebakeNoWarmup.label(), "pb-nowarmup");
        assert_eq!(StartMode::PrebakeWarmup(1).label(), "pb-warmup");
        assert_eq!(StartMode::PrebakeWarmup(3).label(), "pb-warmup-3");
        assert!(StartMode::Vanilla.policy().is_none());
        assert_eq!(
            StartMode::PrebakeWarmup(1).policy(),
            Some(SnapshotPolicy::AfterWarmup(1))
        );
        assert_eq!(StartMode::all_three().len(), 3);
    }

    #[test]
    fn lazy_mode_labels_policies_and_restore_modes() {
        assert_eq!(StartMode::PrebakeLazy.label(), "pb-lazy");
        assert_eq!(StartMode::PrebakePrefetch.label(), "pb-prefetch");
        for mode in StartMode::lazy_ablation() {
            assert_eq!(mode.policy(), Some(SnapshotPolicy::AfterWarmup(1)));
        }
        assert_eq!(
            StartMode::PrebakeWarmup(1).restore_mode(),
            Some(RestoreMode::Eager)
        );
        assert_eq!(
            StartMode::PrebakeLazy.restore_mode(),
            Some(RestoreMode::Lazy)
        );
        assert_eq!(
            StartMode::PrebakePrefetch.restore_mode(),
            Some(RestoreMode::Prefetch)
        );
        assert!(StartMode::Vanilla.restore_mode().is_none());
        assert!(StartMode::PrebakePrefetch.needs_working_set());
        assert!(!StartMode::PrebakeLazy.needs_working_set());
        assert_eq!(StartMode::lazy_ablation().len(), 3);
    }

    #[test]
    fn cow_mode_labels_policies_and_restore_modes() {
        assert_eq!(StartMode::PrebakeCow.label(), "pb-cow");
        assert_eq!(StartMode::PrebakeCowPrefetch.label(), "pb-cow-prefetch");
        for mode in StartMode::cow_ablation() {
            assert_eq!(mode.policy(), Some(SnapshotPolicy::AfterWarmup(1)));
        }
        assert_eq!(StartMode::PrebakeCow.restore_mode(), Some(RestoreMode::Cow));
        assert_eq!(
            StartMode::PrebakeCowPrefetch.restore_mode(),
            Some(RestoreMode::CowPrefetch)
        );
        assert!(StartMode::PrebakeCowPrefetch.needs_working_set());
        assert!(!StartMode::PrebakeCow.needs_working_set());
        assert_eq!(StartMode::cow_ablation().len(), 3);
    }

    #[test]
    fn cow_trials_report_dedup_and_break_counters() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let eager = TrialRunner::new(spec.clone(), StartMode::PrebakeWarmup(1)).unwrap();
        let cow = TrialRunner::new(spec, StartMode::PrebakeCow).unwrap();
        let t_e = eager.startup_trial(1).unwrap();
        let t_c = cow.startup_trial(1).unwrap();

        // The dedup view is a property of the snapshot, not the restore
        // strategy: both runners bake the same function and report the
        // same unique/total page split.
        assert_eq!(t_e.pages_stored, t_c.pages_stored);
        assert_eq!(t_e.pages_unique, t_c.pages_unique);
        assert!(t_c.pages_unique > 0);
        assert!(
            t_c.pages_unique < t_c.pages_stored,
            "runtime images carry duplicate pages ({} unique of {})",
            t_c.pages_unique,
            t_c.pages_stored
        );
        assert!(t_c.pages_unique > 0 && t_c.pages_unique < t_c.pages_stored);

        // Only the CoW restore takes write-protect breaks; the first
        // invocation writes some shared pages but far from all of them.
        assert_eq!(t_e.cow_breaks(), 0);
        assert!(t_c.cow_breaks() > 0, "first request breaks written pages");
        assert!(
            (t_c.cow_breaks() as usize) < t_c.pages_stored,
            "read-mostly pages stay shared"
        );
    }

    #[test]
    fn vanilla_trials_have_no_dedup_view() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
        assert_eq!(runner.pages_stored, 0);
        assert_eq!(runner.pages_unique, 0);
        let t = runner.startup_trial(3).unwrap();
        assert_eq!(t.pages_stored, 0);
        assert_eq!(t.cow_breaks(), 0);
    }

    #[test]
    fn prefetch_avoids_the_lazy_modes_major_faults() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let lazy = TrialRunner::new(spec.clone(), StartMode::PrebakeLazy).unwrap();
        let prefetch = TrialRunner::new(spec, StartMode::PrebakePrefetch).unwrap();
        let t_l = lazy.startup_trial(1).unwrap();
        let t_p = prefetch.startup_trial(1).unwrap();
        assert!(
            t_l.probes.major_faults > 100,
            "pure lazy demand-faults its working set ({} major faults)",
            t_l.probes.major_faults
        );
        assert_eq!(
            t_p.probes.major_faults, 0,
            "the recorded working set covers the whole first invocation"
        );
        assert!(
            t_p.first_response_ms < t_l.first_response_ms,
            "prefetch {} !< lazy {}",
            t_p.first_response_ms,
            t_l.first_response_ms
        );
    }

    #[test]
    fn page_granular_restore_is_slower_and_issues_no_extents() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let vectored = TrialRunner::new(spec.clone(), StartMode::PrebakeWarmup(1)).unwrap();
        let per_page = TrialRunner::new(spec, StartMode::PrebakeWarmup(1))
            .unwrap()
            .page_granular();
        let t_v = vectored.startup_trial(1).unwrap();
        let t_p = per_page.startup_trial(1).unwrap();
        assert!(
            t_v.probes.extents_restored > 0,
            "vectored restore copies runs"
        );
        assert_eq!(t_p.probes.extents_restored, 0);
        assert!(
            t_v.startup_ms < t_p.startup_ms,
            "vectored {} !< per-page {}",
            t_v.startup_ms,
            t_p.startup_ms
        );
    }

    #[test]
    fn fault_around_cuts_lazy_major_faults() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let narrow = TrialRunner::new(spec.clone(), StartMode::PrebakeLazy).unwrap();
        let wide = TrialRunner::new(spec, StartMode::PrebakeLazy)
            .unwrap()
            .fault_around(16);
        let t_n = narrow.startup_trial(1).unwrap();
        let t_w = wide.startup_trial(1).unwrap();
        assert_eq!(t_n.probes.faults_avoided, 0);
        assert!(t_w.probes.faults_avoided > 0);
        assert!(
            t_w.probes.major_faults < t_n.probes.major_faults / 4,
            "window 16 traps a fraction of the faults: {} vs {}",
            t_w.probes.major_faults,
            t_n.probes.major_faults
        );
    }

    #[test]
    fn vanilla_noop_trials_match_paper_scale() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
        let trials = runner.startup_samples(5, 100).unwrap();
        for t in &trials {
            assert!(
                (90.0..120.0).contains(&t.startup_ms),
                "startup {}ms",
                t.startup_ms
            );
            assert!(t.first_response_ms > t.startup_ms);
            assert_eq!(t.snapshot_bytes, 0);
        }
        // Trials differ (noise) but only slightly.
        assert_ne!(trials[0].startup_ms, trials[1].startup_ms);
    }

    #[test]
    fn prebake_runner_bakes_once_and_reuses() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::PrebakeNoWarmup).unwrap();
        assert!(runner.snapshot_bytes() > 10_000_000);
        let a = runner.startup_trial(1).unwrap();
        let b = runner.startup_trial(2).unwrap();
        assert!(a.startup_ms < 80.0, "prebaked NOOP {}ms", a.startup_ms);
        assert!(b.startup_ms < 80.0);
        assert_eq!(a.snapshot_bytes, b.snapshot_bytes);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
        let a = runner.startup_trial(7).unwrap();
        let b = runner.startup_trial(7).unwrap();
        assert_eq!(a.startup_ms, b.startup_ms);
        assert_eq!(a.first_response_ms, b.first_response_ms);
    }

    #[test]
    fn warmup_beats_nowarmup_on_synthetic_small() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let nw = TrialRunner::new(spec.clone(), StartMode::PrebakeNoWarmup).unwrap();
        let w = TrialRunner::new(spec, StartMode::PrebakeWarmup(1)).unwrap();
        let t_nw = nw.startup_trial(1).unwrap();
        let t_w = w.startup_trial(1).unwrap();
        assert!(
            t_w.first_response_ms < t_nw.first_response_ms / 2.0,
            "warmup {} vs nowarmup {}",
            t_w.first_response_ms,
            t_nw.first_response_ms
        );
    }

    #[test]
    fn parallel_restore_threads_cut_eager_startup() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let serial = TrialRunner::new(spec.clone(), StartMode::PrebakeWarmup(1)).unwrap();
        let sharded = TrialRunner::new(spec, StartMode::PrebakeWarmup(1))
            .unwrap()
            .threads(4);
        let t_s = serial.startup_trial(1).unwrap();
        let t_p = sharded.startup_trial(1).unwrap();
        assert_eq!(t_s.restore_shards, 1);
        assert_eq!(t_p.restore_shards, 4);
        assert!(
            t_p.startup_ms < t_s.startup_ms,
            "4 shards {} !< serial {}",
            t_p.startup_ms,
            t_s.startup_ms
        );
    }

    #[test]
    fn fault_order_layout_streams_the_prefetch_read() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let dump_order = TrialRunner::new(spec.clone(), StartMode::PrebakePrefetch).unwrap();
        let ordered = TrialRunner::new(spec, StartMode::PrebakePrefetch)
            .unwrap()
            .fault_order()
            .unwrap();
        let stats = ordered.repack_stats().unwrap();
        assert_eq!(stats.pages_compacted, 0, "layout-only pass keeps all pages");
        let t_d = dump_order.startup_trial(1).unwrap();
        let t_o = ordered.startup_trial(1).unwrap();
        assert!(
            t_o.seek_bytes_avoided > t_d.seek_bytes_avoided,
            "ordered layout avoids more seeks: {} !> {}",
            t_o.seek_bytes_avoided,
            t_d.seek_bytes_avoided
        );
        assert!(
            t_o.first_response_ms < t_d.first_response_ms,
            "ordered {} !< dump-order {}",
            t_o.first_response_ms,
            t_d.first_response_ms
        );
        assert_eq!(t_o.probes.major_faults, 0, "prefetch still covers the ws");
    }

    #[test]
    fn compaction_shrinks_the_hot_image_and_keeps_trials_working() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Small);
        let full = TrialRunner::new(spec.clone(), StartMode::PrebakeWarmup(1)).unwrap();
        // Eager warmup never records a ws: compact() runs the record pass.
        let compacted = TrialRunner::new(spec, StartMode::PrebakeWarmup(1))
            .unwrap()
            .compact()
            .unwrap();
        let stats = compacted.repack_stats().unwrap();
        assert!(stats.pages_compacted > 0, "first request skips some pages");
        assert!(stats.hot_bytes_after < stats.hot_bytes_before);
        let t_f = full.startup_trial(1).unwrap();
        let t_c = compacted.startup_trial(1).unwrap();
        assert_eq!(t_f.pages_compacted, 0);
        assert_eq!(t_c.pages_compacted, stats.pages_compacted);
        assert!(
            t_c.startup_ms < t_f.startup_ms,
            "smaller hot image starts faster: {} !< {}",
            t_c.startup_ms,
            t_f.startup_ms
        );
    }

    #[test]
    fn vanilla_runner_has_no_images_to_repack() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
        assert_eq!(runner.fault_order().unwrap_err(), Errno::Einval);
    }

    #[test]
    fn service_trial_returns_requested_count() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
        let times = runner
            .service_trial(5, 10, SimDuration::from_millis(10))
            .unwrap();
        assert_eq!(times.len(), 10);
        assert!(times.iter().all(|&t| t > 0.0));
        // steady-state requests are fast and similar
        let tail = &times[2..];
        let max = tail.iter().cloned().fold(0.0f64, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.5, "service times vary too much: {times:?}");
    }
}
