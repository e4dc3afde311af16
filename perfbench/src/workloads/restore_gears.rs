//! `restore_gears`: the paper's own measurement — one cold start of a
//! prebaked function on a freshly provisioned machine.
//!
//! The `criu` read/restore path does nearly all the work; `fleet`,
//! `gateway` and `obs` do none. Closed loop, one client. Two functions
//! are baked once in set-up with `AfterWarmup(1)` plus a `ws.img`
//! record: `markdown` (a 15 MB snapshot, dominated by fixed overhead)
//! and `synthetic-big` (a 119 MB snapshot, dominated by per-byte cost).
//!
//! An op is `PrebakeStarter::with_mode(gear).start` plus the first
//! `Replica::handle`. Building the machine it runs on (`Kernel::new`,
//! `provision_machine`, `Deployment::install`, `import_images`,
//! `fresh_container`) is fixture work and is not timed.
//!
//! A round is 7 ops, about 2.1 s: eager, lazy, prefetch and cow on
//! `markdown`; eager (the paper's), lazy (the one start that misses the
//! 100 ms limit) and cow-prefetch (page store and working set together)
//! on `synthetic-big`. Every gear runs at least once, eager and lazy on
//! both functions. The issue sized a round at all five gears on both
//! functions (3.4 s); the contract's time cap forced the round down
//! once rounds were already at the minimum of 8. Seven equal groups
//! also put the median and the p75 *inside* a group (markdown-lazy and
//! big-eager today) instead of on the cliff between two. The traced
//! pass still measures every gear on `synthetic-big`.

use std::time::Instant;

use bytes::Bytes;
use prebake_core::env::{
    export_images, fresh_container, import_images, provision_machine, Deployment,
};
use prebake_core::measure::{StartMode, TrialRunner};
use prebake_core::prebaker::{bake, record_working_set, SnapshotPolicy};
use prebake_core::starter::{PrebakeStarter, Starter, VanillaStarter};
use prebake_criu::{
    read_images, read_images_lazy, restore_set, DumpStats, ImageCache, ImageSet, RestoreMode,
    RestoreOptions,
};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_platform::{FunctionBuilder, Platform, PlatformConfig, Registry, Template};
use prebake_runtime::http::Request;
use prebake_runtime::Replica;
use prebake_sim::error::SysResult;
use prebake_sim::fs::join_path;
use prebake_sim::kernel::Kernel;
use prebake_sim::probe::ProbeCounters;
use prebake_sim::proc::Pid;
use prebake_sim::time::{SimDuration, SimInstant};

use super::{fastest, fastest_call_ms, span_fastest_ms, Op, Outcome, Round, Workload, CALLS};
use crate::report::{LayerValues, GEARS};
use crate::span::Tracer;
use crate::stats::median;

/// The five restore gears, in [`GEARS`] order.
const MODES: [RestoreMode; 5] = [
    RestoreMode::Eager,
    RestoreMode::Lazy,
    RestoreMode::Prefetch,
    RestoreMode::Cow,
    RestoreMode::CowPrefetch,
];

const MARKDOWN: usize = 0;
const BIG: usize = 1;

/// The ops of one round: (function, gear index).
const ROUND: [(usize, usize); 7] = [
    (MARKDOWN, 0),
    (MARKDOWN, 1),
    (MARKDOWN, 2),
    (MARKDOWN, 3),
    (BIG, 0),
    (BIG, 1),
    (BIG, 4),
];

/// Calls an expensive (>= 0.4 s) composite is timed over in the traced
/// pass; cheap kernels get [`CALLS`].
const HEAVY_CALLS: usize = 3;

const PORT: u16 = 8080;

/// One function, baked and ready to ship into trial machines.
struct Baked {
    spec: FunctionSpec,
    request: Request,
    images: Vec<(String, Bytes)>,
    /// Reply of a vanilla-started replica: what every restore must say.
    reference: Bytes,
    dump: DumpStats,
}

/// The workload's state between rounds.
pub struct RestoreGears {
    functions: [Baked; 2],
}

fn bake_function(spec: FunctionSpec, seed: u64) -> SysResult<Baked> {
    let mut kernel = Kernel::new(seed);
    let builder = provision_machine(&mut kernel)?;
    let dep = Deployment::install(&mut kernel, spec.clone(), PORT)?;
    let dir = dep.images_dir();
    let report = bake(
        &mut kernel,
        builder,
        &dep,
        SnapshotPolicy::AfterWarmup(1),
        &dir,
    )?;
    record_working_set(&mut kernel, builder, &dep, &dir)?;
    let images = export_images(&mut kernel, &dir)?;

    let mut kernel = Kernel::new(seed);
    let watchdog = provision_machine(&mut kernel)?;
    let dep = Deployment::install(&mut kernel, spec.clone(), PORT)?;
    let request = spec.sample_request();
    let mut vanilla = VanillaStarter.start(&mut kernel, watchdog, &dep)?;
    let reference = vanilla.replica.handle(&mut kernel, &request)?.body;
    Ok(Baked {
        spec,
        request,
        images,
        reference,
        dump: report.dump,
    })
}

/// A freshly provisioned machine with the function deployed, its
/// snapshot shipped in and the container cache state reset — everything
/// a cold start finds in place. Untimed in the end-to-end pass.
fn fixture(f: &Baked, seed: u64, tracer: &mut Tracer) -> SysResult<(Kernel, Pid, Deployment)> {
    let all = tracer.begin("perfbench", "fixture");
    let s = tracer.begin("sim", "Kernel::new");
    let mut kernel = Kernel::new(seed);
    tracer.end(s);
    let s = tracer.begin("core", "provision_machine");
    let watchdog = provision_machine(&mut kernel)?;
    tracer.end(s);
    let s = tracer.begin("core", "Deployment::install");
    let dep = Deployment::install(&mut kernel, f.spec.clone(), PORT)?;
    tracer.end(s);
    let s = tracer.begin("core", "import_images");
    import_images(&mut kernel, &dep.images_dir(), &f.images)?;
    tracer.end(s);
    let s = tracer.begin("core", "fresh_container");
    fresh_container(&mut kernel, &dep.image_paths())?;
    tracer.end(s);
    tracer.end(all);
    Ok((kernel, watchdog, dep))
}

/// `PrebakeStarter::start` taken apart at the crate boundaries:
/// `read_images` → `restore_set` → `Replica::attach`, a span around
/// each. Models exactly what the composite call models.
fn split_start(
    kernel: &mut Kernel,
    watchdog: Pid,
    dep: &Deployment,
    gear: usize,
    tracer: &mut Tracer,
) -> SysResult<Replica> {
    let mode = MODES[gear];
    kernel.set_tracing(true);
    let dir = dep.images_dir();
    let opts = RestoreOptions::with_mode(&dir, mode);
    let s = tracer.begin(
        "criu",
        if mode.is_lazy() {
            "read_images_lazy"
        } else {
            "read_images"
        },
    );
    let set = if mode.is_lazy() {
        read_images_lazy(kernel, &dir)
    } else {
        read_images(kernel, &dir)
    }?;
    tracer.end(s);
    let s = tracer.begin("criu", RESTORE_SET_SPAN[gear]);
    let stats = restore_set(kernel, watchdog, &set, &opts)?;
    tracer.end(s);
    let s = tracer.begin("functions", "make_handler");
    let handler = dep.spec.make_handler(&dep.app_dir);
    tracer.end(s);
    let s = tracer.begin("runtime", "Replica::attach");
    let replica = Replica::attach(kernel, stats.pid, dep.jlvm_config(), handler)?;
    tracer.end(s);
    kernel.emit_marker(stats.pid, "ready");
    drop(kernel.take_trace());
    kernel.set_tracing(false);
    Ok(replica)
}

const RESTORE_SET_SPAN: [&str; 5] = [
    "restore_set.eager",
    "restore_set.lazy",
    "restore_set.prefetch",
    "restore_set.cow",
    "restore_set.cow_prefetch",
];
const FIRST_REQUEST_SPAN: [&str; 5] = [
    "first_request.eager",
    "first_request.lazy",
    "first_request.prefetch",
    "first_request.cow",
    "first_request.cow_prefetch",
];

/// What one cold start measured.
struct ColdStart {
    /// Wall seconds of start + first request.
    host_s: f64,
    /// Virtual ms, start command → restore done.
    restore_sim_ms: f64,
    /// Virtual ms, start command → first response.
    sim_ms: f64,
    /// Virtual ms of the first request alone.
    request_sim_ms: f64,
    body: Bytes,
}

impl RestoreGears {
    /// One op: fixture, then the timed cold start. With the tracer on
    /// the start is split; otherwise it is the one composite call.
    fn cold_start(
        &self,
        function: usize,
        gear: usize,
        seed: u64,
        tracer: &mut Tracer,
    ) -> SysResult<ColdStart> {
        let f = &self.functions[function];
        tracer.next_op();
        let op = tracer.begin("perfbench", "op");
        let (mut kernel, watchdog, dep) = fixture(f, seed, tracer)?;

        let started = Instant::now();
        let t0 = kernel.now();
        let s = tracer.begin("core", "start");
        let mut replica = if tracer.on() {
            split_start(&mut kernel, watchdog, &dep, gear, tracer)?
        } else {
            PrebakeStarter::with_mode(MODES[gear])
                .start(&mut kernel, watchdog, &dep)?
                .replica
        };
        tracer.end(s);
        let restored = kernel.now();
        let s = tracer.begin("runtime", FIRST_REQUEST_SPAN[gear]);
        let response = replica.handle(&mut kernel, &f.request)?;
        tracer.end(s);
        let host_s = started.elapsed().as_secs_f64();
        let done = kernel.now();

        let s = tracer.begin("sim", "Kernel::drop");
        drop(replica);
        drop(kernel);
        tracer.end(s);
        tracer.end(op);
        let ms = |from: SimInstant, to: SimInstant| (to - from).as_millis_f64();
        Ok(ColdStart {
            host_s,
            restore_sim_ms: ms(t0, restored),
            sim_ms: ms(t0, done),
            request_sim_ms: ms(restored, done),
            body: response.body,
        })
    }
}

fn op_seed(round_seed: u64, op: usize) -> u64 {
    round_seed.wrapping_mul(64).wrapping_add(op as u64)
}

impl Workload for RestoreGears {
    const NAME: &'static str = "restore_gears";
    const NOMINAL_ROUND_S: f64 = 2.1;
    const SLO_MS: f64 = 100.0;
    const TRACE_ROUNDS: usize = 2;

    fn setup(seed: u64) -> RestoreGears {
        RestoreGears {
            functions: [
                bake_function(FunctionSpec::markdown(), seed).expect("bake markdown"),
                bake_function(FunctionSpec::synthetic(SyntheticSize::Big), seed)
                    .expect("bake synthetic-big"),
            ],
        }
    }

    fn round(&mut self, seed: u64, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        for (i, &(function, gear)) in ROUND.iter().enumerate() {
            let label = format!("{} {}", self.functions[function].spec.name(), GEARS[gear]);
            match self.cold_start(function, gear, op_seed(seed, i), tracer) {
                Ok(cold) => {
                    round.host_s += cold.host_s;
                    let ok = cold.body == self.functions[function].reference;
                    if !ok {
                        round
                            .failures
                            .push(format!("{label}: reply differs from the vanilla start's"));
                    }
                    round.ops.push(Op {
                        sim_ms: cold.sim_ms,
                        outcome: if ok { Outcome::Ok } else { Outcome::Failed },
                    });
                }
                Err(errno) => {
                    round.failures.push(format!("{label}: {errno:?}"));
                    round.ops.push(Op {
                        sim_ms: 0.0,
                        outcome: Outcome::Failed,
                    });
                }
            }
        }
        round
    }

    fn layers(&mut self, seed: u64, _traced: &[Round], tracer: &mut Tracer, out: &mut LayerValues) {
        self.gear_layers(seed, tracer, out);
        self.snapshot_layers(seed, out);
        self.guard_layers(seed, out);
    }
}

impl RestoreGears {
    /// Every gear on synthetic-big: the composite start timed whole,
    /// then the same start split under spans. The split pieces and the
    /// fixture are read back from the spans of these ops only (`from_op`
    /// on), so the rounds traced earlier — markdown and big mixed — do
    /// not pollute them.
    fn gear_layers(&self, seed: u64, tracer: &mut Tracer, out: &mut LayerValues) {
        let big = &self.functions[BIG];
        let from_op = tracer.op() + 1;
        let mut off = Tracer::new(false);
        for (gear, mode) in MODES.into_iter().enumerate() {
            let mut start_ms = Vec::with_capacity(HEAVY_CALLS);
            let (mut restore_sim, mut request_sim) = (Vec::new(), Vec::new());
            for call in 0..HEAVY_CALLS {
                let call_seed = op_seed(seed, 8 + gear * HEAVY_CALLS + call);
                let (mut kernel, watchdog, dep) =
                    fixture(big, call_seed, &mut off).expect("fixture");
                let started = Instant::now();
                let replica = PrebakeStarter::with_mode(mode)
                    .start(&mut kernel, watchdog, &dep)
                    .expect("composite start");
                start_ms.push(started.elapsed().as_secs_f64() * 1e3);
                drop(replica);
                drop(kernel);

                let cold = self
                    .cold_start(BIG, gear, call_seed, tracer)
                    .expect("split start");
                assert_eq!(cold.body, big.reference, "{} reply", GEARS[gear]);
                restore_sim.push(cold.restore_sim_ms);
                request_sim.push(cold.request_sim_ms);
            }
            let g = GEARS[gear];
            out.set(
                &format!("core.start_host_ms.{g}"),
                fastest(&start_ms),
                HEAVY_CALLS,
            );
            out.set(
                &format!("criu.restore_sim_ms.{g}"),
                median(&restore_sim),
                HEAVY_CALLS,
            );
            out.set(
                &format!("runtime.first_request_sim_ms.{g}"),
                median(&request_sim),
                HEAVY_CALLS,
            );
            let (restore_set_ms, n) =
                span_fastest_ms(tracer, "criu", RESTORE_SET_SPAN[gear], from_op).expect("recorded");
            out.set(&format!("criu.restore_set_host_ms.{g}"), restore_set_ms, n);
            let (request_ms, n) =
                span_fastest_ms(tracer, "runtime", FIRST_REQUEST_SPAN[gear], from_op)
                    .expect("recorded");
            out.set(&format!("runtime.first_request_host_ms.{g}"), request_ms, n);
        }
        for (metric, layer, span) in [
            ("criu.read_images_host_ms", "criu", "read_images"),
            ("criu.read_images_lazy_host_ms", "criu", "read_images_lazy"),
            ("runtime.attach_host_ms", "runtime", "Replica::attach"),
            ("core.fixture_host_ms", "perfbench", "fixture"),
        ] {
            let (ms, n) = span_fastest_ms(tracer, layer, span, from_op).expect("recorded");
            out.set(metric, ms, n);
        }
        // Self time of the composite start: what `core` itself adds on
        // top of the three calls it makes.
        for (gear, mode) in MODES.into_iter().enumerate() {
            let g = GEARS[gear];
            let read = if mode.is_lazy() {
                "criu.read_images_lazy_host_ms"
            } else {
                "criu.read_images_host_ms"
            };
            let parts = out.get(read)
                + out.get(&format!("criu.restore_set_host_ms.{g}"))
                + out.get("runtime.attach_host_ms");
            let start = out.get(&format!("core.start_host_ms.{g}"));
            out.set(
                &format!("core.start_self_host_ms.{g}"),
                start - parts,
                HEAVY_CALLS,
            );
        }
    }

    /// Exact counts of the synthetic-big snapshot, and the cheap calls
    /// around it: the cached-restore floor, the page-cache read, the
    /// spec build.
    fn snapshot_layers(&self, seed: u64, out: &mut LayerValues) {
        let big = &self.functions[BIG];
        let mut off = Tracer::new(false);
        let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        out.set("criu.image_mib", mib(big.dump.image_bytes), 1);
        out.set("criu.pages_stored", big.dump.pages_stored as f64, 1);
        out.set("criu.pages_unique", big.dump.pages_unique as f64, 1);

        // Lazy restore takes its major faults inside the first request.
        let (mut kernel, watchdog, dep) = fixture(big, seed, &mut off).expect("fixture");
        let mut started = PrebakeStarter::with_mode(RestoreMode::Lazy)
            .start(&mut kernel, watchdog, &dep)
            .expect("lazy start");
        let mut probes = ProbeCounters::from_events(&started.trace);
        kernel.set_tracing(true);
        started
            .replica
            .handle(&mut kernel, &big.request)
            .expect("first request");
        probes.merge(&ProbeCounters::from_events(&kernel.take_trace()));
        out.set("criu.major_faults.lazy", probes.major_faults as f64, 1);

        // The floor of a restore once parsing is amortised: an image
        // set already resident in the host-side cache.
        let (mut kernel, _, dep) = fixture(big, seed, &mut off).expect("fixture");
        let mut cache = ImageCache::new();
        cache
            .preload(&mut kernel, "big", &dep.images_dir())
            .expect("preload");
        let cached_ms: Vec<f64> = (0..CALLS)
            .map(|call| {
                let (mut kernel, watchdog, dep) =
                    fixture(big, op_seed(seed, 40 + call), &mut off).expect("fixture");
                let opts = RestoreOptions::new(dep.images_dir());
                let started = Instant::now();
                cache
                    .restore_cached(&mut kernel, watchdog, "big", &opts)
                    .expect("cached restore");
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("criu.restore_cached_host_ms", fastest(&cached_ms), CALLS);

        // Reading the big payload back from the warm page cache.
        let pages = join_path(&dep.images_dir(), ImageSet::PAGES_NAME);
        let len = kernel.fs_read_file(&pages).expect("pages.img").len();
        let ms = fastest_call_ms(CALLS, || {
            std::hint::black_box(kernel.fs_read_file(&pages).expect("pages.img"));
        });
        out.set(
            "sim.fs_read_host_ms_per_gib",
            ms / (len as f64 / (1u64 << 30) as f64),
            CALLS,
        );

        let ms = fastest_call_ms(CALLS, || {
            std::hint::black_box(FunctionSpec::synthetic(SyntheticSize::Big));
        });
        out.set("functions.spec_build_host_ms", ms, CALLS);
    }

    /// Guards for callers of this path that have no workload of their
    /// own: the experiment binaries' trial runner, and the platform,
    /// whose cold path is the core/criu code timed above.
    fn guard_layers(&self, seed: u64, out: &mut LayerValues) {
        // What each of the 23 experiment binaries pays per repetition.
        let big = &self.functions[BIG];
        let runner =
            TrialRunner::new(big.spec.clone(), StartMode::PrebakeWarmup(1)).expect("trial runner");
        let mut call = 0;
        let ms = fastest_call_ms(HEAVY_CALLS, || {
            call += 1;
            std::hint::black_box(runner.startup_trial(seed + call).expect("trial"));
        });
        out.set("core.startup_trial_host_ms", ms, HEAVY_CALLS);

        let md = &self.functions[MARKDOWN];
        let registry = Registry::new();
        registry.push(
            FunctionBuilder
                .build(md.spec.clone(), &Template::java11_criu_prefetch())
                .expect("build image"),
        );
        let (mut cold_ms, mut cold_sim, mut warm_us) = (Vec::new(), Vec::new(), Vec::new());
        for call in 0..CALLS {
            let config = PlatformConfig {
                seed: seed + call as u64,
                ..PlatformConfig::default()
            };
            let mut platform = Platform::new(config, registry.clone());
            platform.deploy_function(md.spec.name()).expect("deploy");
            let invoke = |platform: &mut Platform| {
                let now = platform.now();
                platform
                    .submit(now, md.spec.name(), md.request.clone())
                    .expect("submit");
                // Bounded, so the idle-replica GC a minute out never
                // runs and the second invoke finds the replica warm.
                let bound = now + SimDuration::from_secs(1);
                let started = Instant::now();
                platform.run_until(bound).expect("platform runs");
                started.elapsed().as_secs_f64()
            };
            cold_ms.push(invoke(&mut platform) * 1e3);
            cold_sim.push(platform.completed()[0].latency_ms());
            warm_us.push(invoke(&mut platform) * 1e6);
            assert!(!platform.completed()[1].cold, "second invoke is warm");
        }
        out.set("platform.cold_invoke_host_ms", fastest(&cold_ms), CALLS);
        out.set("platform.cold_invoke_sim_ms", median(&cold_sim), CALLS);
        out.set("platform.warm_invoke_host_us", fastest(&warm_us), CALLS);
    }
}
