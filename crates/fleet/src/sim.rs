//! The deterministic fleet scheduler.
//!
//! [`FleetSim`] runs an arrival [`Schedule`] against N workers over the
//! simulator's virtual clock: arrivals are admitted (or shed) into
//! per-function queues, dispatched to idle replicas, and trigger cold
//! starts placed least-loaded-first under each worker's memory budget.
//! The configured [`Policy`] decides which restore gear cold starts use
//! and how long idle replicas survive — including LRU eviction under
//! memory pressure and histogram-driven predictive pre-warm.
//!
//! With the optional snapshot-registry tier ([`RegistryConfig`]), cold
//! starts additionally pull their image through the placed node's
//! pull-through cache: frames another resident image already holds ride
//! free, the rest are charged network latency plus per-byte bandwidth
//! on the virtual clock, and placement can weigh "where is this image
//! already warm" ahead of load.
//!
//! # Sharded event loop
//!
//! The simulator is partitioned into [`FleetConfig::shards`] cells.
//! Each shard owns a contiguous block of workers, the functions homed
//! to it (round-robin by registration order), their queues and arrival
//! statistics, its own event queue, noise stream, tracer, and — when
//! the tiers are configured — a forked registry pull handle and a
//! private telemetry stack. Shards never share mutable state, so a run
//! drains them on real OS threads ([`FleetConfig::threads`]) and then
//! folds their outputs — metrics, completed requests, registry
//! accounting, windowed telemetry, and spans — back into the
//! coordinator in a byte-stable order (k-way merge by dispatch time,
//! lowest shard first on ties).
//!
//! Million-invocation traces stream through [`FleetSim::run_stream`]
//! without materialising a schedule: arrivals are pulled lazily from
//! the iterator and injected epoch-by-epoch
//! ([`FleetConfig::stream_epoch`] of virtual time per wave), and the
//! per-request log can be dropped ([`FleetConfig::retain_completed`])
//! so memory stays flat while the histograms keep the distributions.
//!
//! Everything is deterministic for a fixed seed and shard count: all
//! state lives in `BTreeMap`s, each shard's event queue breaks time
//! ties FIFO with arrivals ahead of same-instant events, the fold order
//! is fixed, and threading is an execution detail — a threaded run and
//! a serial run of the same configuration are identical. `shards <= 1`
//! reproduces the unsharded scheduler bit-for-bit.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use prebake_gateway::{
    first_chunk_at, AdmissionController, AdmissionOutcome, AdmissionStats, CacheInsert,
    CacheLookup, GatewayConfig, GatewayMetrics, ResultCache,
};
use prebake_obs::{Objective, ObsConfig, ObsStack, RecorderConfig, SamplerConfig, SeriesKey};
use prebake_platform::loadgen::{Arrival, LoadError, LoadResult, Schedule};
use prebake_registry::{ImageManifest, PullMode, RegistryCost, SnapshotRegistry};
use prebake_sim::event::EventQueue;
use prebake_sim::noise::Noise;
use prebake_sim::proc::Pid;
use prebake_sim::time::{SimDuration, SimInstant};
use prebake_sim::trace::{SpanId, TraceSpan, Tracer};

use crate::metrics::FleetMetrics;
use crate::policy::{ArrivalStats, Policy};
use crate::profile::{FunctionProfile, Gear};
use crate::worker::{Replica, ReplicaState, Worker};

/// Snapshot-registry tier configuration.
///
/// `None` in [`FleetConfig::registry`] models node-local images (the
/// pre-registry fleet): cold starts pay no pull time and no egress is
/// accounted. `Some` puts every snapshot image behind a shared
/// [`SnapshotRegistry`] that nodes pull through their local caches.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Network charging model for pulls.
    pub cost: RegistryCost,
    /// How node caches satisfy pulls.
    pub mode: PullMode,
    /// Weigh placement toward the node that would fetch the fewest
    /// bytes ("schedule where the image is warm").
    pub affinity_placement: bool,
    /// Pre-pull images to the node the pre-warm engine predicts, ahead
    /// of the predicted arrival (ignored under [`PullMode::Naive`],
    /// which never caches).
    pub prepull: bool,
    /// Fraction of auto-published synthetic-manifest frames drawn from
    /// the runtime-wide shared base (see [`ImageManifest::synthetic`]).
    pub shared_fraction: f64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            cost: RegistryCost::default(),
            mode: PullMode::DedupPullThrough,
            affinity_placement: true,
            prepull: true,
            shared_fraction: 0.5,
        }
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker nodes.
    pub workers: usize,
    /// Memory budget per worker, bytes (replicas + cached images).
    pub mem_budget_bytes: u64,
    /// Concurrent cold starts one worker drives before they convoy.
    pub cold_start_concurrency: usize,
    /// Per-function queue depth beyond which arrivals are shed.
    pub queue_cap: usize,
    /// Replica ceiling per function across the fleet.
    pub max_replicas_per_function: usize,
    /// Keep-alive × start-selection policy.
    pub policy: Policy,
    /// Seed for the service/start jitter stream.
    pub seed: u64,
    /// Relative jitter applied to profiled costs (0 disables).
    pub noise_sigma: f64,
    /// Record scheduler span trees per completed invocation.
    pub span_tracing: bool,
    /// Snapshot-registry tier; `None` keeps images node-local and free.
    pub registry: Option<RegistryConfig>,
    /// Telemetry stack (windowed recorder + SLO engine + tail sampler);
    /// `None` keeps the pre-obs scalar counters only. See
    /// [`default_fleet_obs`] for the standard fleet objectives.
    pub obs: Option<ObsConfig>,
    /// Event-loop shards. Each shard owns a contiguous block of workers
    /// and the functions homed to it; clamped to the worker count.
    /// `1` (the default) reproduces the unsharded scheduler exactly.
    /// Shard counts are part of the model: different counts partition
    /// placement domains differently and produce different (each
    /// deterministic) schedules.
    pub shards: usize,
    /// Drain shards on OS threads when `shards > 1`. Purely an
    /// execution detail: threaded and serial drains of the same
    /// configuration produce identical results.
    pub threads: bool,
    /// Virtual-time width of one [`FleetSim::run_stream`] injection
    /// epoch. Only a batching granularity — results never depend on it.
    pub stream_epoch: SimDuration,
    /// Keep the per-request [`FleetRequest`] log. Disable for
    /// million-invocation runs: histograms (including the cold-only
    /// latency split) still capture the distributions while memory
    /// stays flat.
    pub retain_completed: bool,
    /// Streaming gateway frontier (admission control, TTL result cache,
    /// chunked-response TTFC accounting) ahead of the per-function
    /// queues. `None` (the default) is the pre-gateway fleet: arrivals
    /// go straight to the scheduler and every committed baseline stays
    /// byte-identical. Each shard scales the per-worker admission caps
    /// by its cell's worker count.
    pub gateway: Option<GatewayConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            mem_budget_bytes: 1 << 30,
            cold_start_concurrency: 4,
            queue_cap: 256,
            max_replicas_per_function: 16,
            policy: Policy::vanilla_baseline(SimDuration::from_secs(60)),
            seed: 1,
            noise_sigma: 0.02,
            span_tracing: false,
            registry: None,
            obs: None,
            shards: 1,
            threads: true,
            stream_epoch: SimDuration::from_secs(1),
            retain_completed: true,
            gateway: None,
        }
    }
}

/// The standard fleet telemetry shape: 60 s windows over the fleet's
/// latency bounds, a cold-start-latency SLO ("90% of requests complete
/// under 250 ms per window") and a cold-fraction SLO ("cold fraction
/// under 10%"), and tail sampling that keeps `keep_fraction` of boring
/// traces (SLO-breaching traces are always kept in full).
pub fn default_fleet_obs(keep_fraction: f64, seed: u64) -> ObsConfig {
    ObsConfig {
        recorder: RecorderConfig {
            width: SimDuration::from_secs(60),
            // Heavy-tailed traces stretch past two simulated hours, and
            // whole-run SLO evaluation needs every window retained — a
            // ring sized for "a day of 60s windows" keeps rollover a
            // production-memory concern, not a correctness hazard here.
            capacity: 1440,
            bounds: crate::metrics::LATENCY_BOUNDS_MS.to_vec(),
        },
        objectives: vec![
            Objective::latency("fleet-latency", "fleet_latency_ms", 250.0, 0.9)
                .burn_windows(1, 6, 6.0),
            Objective::ratio(
                "fleet-cold-fraction",
                "fleet_cold_starts_total",
                "fleet_requests_total",
                0.9,
            )
            .burn_windows(1, 6, 6.0),
        ],
        sampler: Some(SamplerConfig {
            keep_fraction,
            seed,
        }),
    }
}

/// Why the fleet rejected an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// An arrival names a function no profile was registered for.
    UnknownFunction(String),
    /// A streaming workload source yielded an error mid-run.
    Load(LoadError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownFunction(name) => {
                write!(f, "no profile registered for function {name:?}")
            }
            FleetError::Load(err) => write!(f, "workload stream failed: {err}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<LoadError> for FleetError {
    fn from(err: LoadError) -> FleetError {
        FleetError::Load(err)
    }
}

/// One completed invocation, as observed at the fleet gateway.
#[derive(Debug, Clone)]
pub struct FleetRequest {
    /// Admission order (shard-strided: unique fleet-wide, and exactly
    /// the admission sequence when `shards == 1`).
    pub id: u64,
    /// Function served.
    pub function: String,
    /// Worker that served it (fleet-global id).
    pub worker: usize,
    /// Arrival at the gateway.
    pub arrived: SimInstant,
    /// Dispatch to a ready replica.
    pub dispatched: SimInstant,
    /// Response completion.
    pub completed: SimInstant,
    /// Whether the request waited on a cold start.
    pub cold: bool,
}

impl FleetRequest {
    /// End-to-end latency, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.completed - self.arrived).as_millis_f64()
    }

    /// Arrival → dispatch queueing delay, ms.
    pub fn queue_delay_ms(&self) -> f64 {
        (self.dispatched - self.arrived).as_millis_f64()
    }
}

#[derive(Debug)]
struct Pending {
    id: u64,
    arrived: SimInstant,
}

#[derive(Debug)]
enum Event {
    ReplicaReady {
        worker: usize,
        replica: u64,
    },
    ServeDone {
        worker: usize,
        replica: u64,
    },
    /// A gateway-admitted invocation completed: insert its result into
    /// the cache and promote the admission-queue head into the freed
    /// slot. Scheduled after the same-instant `ServeDone`, so the
    /// promoted arrival sees the replica already idle.
    GatewayDone {
        function: String,
    },
    ExpireCheck,
    Prewarm {
        function: String,
    },
    Prepull {
        function: String,
    },
}

/// Registry image id of one `(function, gear)` snapshot.
fn image_id(function: &str, gear: Gear) -> String {
    format!("{function}@{}", gear.label())
}

/// A gateway-queued arrival awaiting an admission slot.
#[derive(Debug, Clone)]
struct Deferred {
    arrived: SimInstant,
    function: String,
}

/// One shard's gateway frontier: the admission controller, result cache
/// and `gateway_*` metrics for the functions homed here. Functions
/// complete in their home cell, so admission slots released by
/// completions always belong to the shard that admitted them.
struct GatewayFrontier {
    config: GatewayConfig,
    admission: AdmissionController<Deferred>,
    cache: ResultCache<()>,
    metrics: GatewayMetrics,
}

impl GatewayFrontier {
    fn new(config: &GatewayConfig, worker_count: usize) -> GatewayFrontier {
        let workers = worker_count.max(1);
        GatewayFrontier {
            admission: AdmissionController::new(
                config.inflight_per_worker.saturating_mul(workers),
                config.queue_per_worker.saturating_mul(workers),
            ),
            cache: ResultCache::new(config.cache.clone()),
            metrics: GatewayMetrics::default(),
            config: config.clone(),
        }
    }
}

/// One cell of the sharded fleet: a contiguous worker block, the
/// functions homed here, and a private event loop. Shards share nothing
/// mutable, so they drain independently (optionally on OS threads) and
/// fold back deterministically.
struct Shard {
    /// This shard's index — the id-striding offset.
    index: u64,
    /// Total shards — the id-striding factor.
    shard_count: u64,
    /// Fleet-global id of this shard's first worker. Workers are local
    /// (`0..workers.len()`) internally; the base is added at every
    /// externally visible site (request records, telemetry labels).
    worker_base: usize,
    config: FleetConfig,
    profiles: BTreeMap<String, FunctionProfile>,
    workers: Vec<Worker>,
    queues: BTreeMap<String, VecDeque<Pending>>,
    stats: BTreeMap<String, ArrivalStats>,
    /// Pending arrivals, time-sorted, submission order on ties. Kept
    /// outside the event queue so a same-instant arrival always beats a
    /// same-instant scheduler event — the unsharded scheduler's tie
    /// order, where every arrival was enqueued before any event.
    arrivals: VecDeque<(SimInstant, String)>,
    events: EventQueue<Event>,
    /// Forked registry pull handle, leased at run start and absorbed
    /// back at fold (late fork so publishes land before the fork).
    registry: Option<SnapshotRegistry>,
    /// Private telemetry stack, leased at run start, absorbed at fold.
    obs: Option<ObsStack>,
    now: SimInstant,
    noise: Noise,
    metrics: FleetMetrics,
    completed: Vec<FleetRequest>,
    tracer: Tracer,
    /// Streaming-gateway frontier; `None` routes arrivals straight to
    /// the per-function queues (the pre-gateway scheduler, bit-exact).
    gateway: Option<GatewayFrontier>,
    next_request: u64,
    next_replica: u64,
    events_processed: u64,
}

impl Shard {
    fn new(
        index: usize,
        shard_count: usize,
        worker_base: usize,
        worker_count: usize,
        config: &FleetConfig,
    ) -> Shard {
        let mut tracer = Tracer::new();
        tracer.set_enabled(config.span_tracing);
        Shard {
            index: index as u64,
            shard_count: shard_count as u64,
            worker_base,
            // Offsetting the seed per shard keeps the jitter streams
            // independent; shard 0 draws the exact unsharded stream.
            noise: Noise::new(config.seed + index as u64, config.noise_sigma),
            workers: (0..worker_count)
                .map(|id| Worker::new(id, config.mem_budget_bytes))
                .collect(),
            config: config.clone(),
            profiles: BTreeMap::new(),
            queues: BTreeMap::new(),
            stats: BTreeMap::new(),
            arrivals: VecDeque::new(),
            events: EventQueue::new(),
            registry: None,
            obs: None,
            now: SimInstant::EPOCH,
            metrics: FleetMetrics::default(),
            completed: Vec::new(),
            tracer,
            gateway: config
                .gateway
                .as_ref()
                .map(|gc| GatewayFrontier::new(gc, worker_count)),
            next_request: 1,
            next_replica: 1,
            events_processed: 0,
        }
    }

    fn register(&mut self, profile: FunctionProfile) {
        let name = profile.name().to_owned();
        self.queues.entry(name.clone()).or_default();
        self.stats.entry(name.clone()).or_default();
        self.profiles.insert(name, profile);
    }

    /// Queues one arrival, keeping the pending list time-sorted with
    /// submission order on ties.
    fn inject(&mut self, at: SimInstant, function: &str) {
        let at = at.max(self.now);
        let idx = self.arrivals.partition_point(|&(t, _)| t <= at);
        self.arrivals.insert(idx, (at, function.to_owned()));
    }

    /// Fleet-global id of a local worker index.
    fn global_worker(&self, local: usize) -> usize {
        self.worker_base + local
    }

    /// Drains arrivals and events in virtual-time order until both are
    /// empty, or until the next item would land at or past `bound`.
    /// Same-instant ties: arrival before event, then FIFO.
    fn drain(&mut self, bound: Option<SimInstant>) {
        loop {
            let next_arrival = self.arrivals.front().map(|&(t, _)| t);
            let next_event = self.events.peek_time();
            let (t, is_arrival) = match (next_arrival, next_event) {
                (Some(a), Some(e)) if a <= e => (a, true),
                (Some(_), Some(e)) => (e, false),
                (Some(a), None) => (a, true),
                (None, Some(e)) => (e, false),
                (None, None) => return,
            };
            if bound.is_some_and(|b| t >= b) {
                return;
            }
            self.now = self.now.max(t);
            self.events_processed += 1;
            if is_arrival {
                let (_, function) = self.arrivals.pop_front().expect("peeked non-empty");
                self.on_arrival(&function);
            } else {
                let (_, event) = self.events.pop().expect("peeked non-empty");
                self.handle(event);
            }
        }
    }

    /// Window-records one counter increment when the obs stack is on.
    fn obs_inc(&mut self, at: SimInstant, key: SeriesKey, n: u64) {
        if let Some(obs) = self.obs.as_mut() {
            obs.recorder.inc(at, key, n);
        }
    }

    /// Window-records one histogram observation when the obs stack is
    /// on, optionally linked to a retained trace as a bucket exemplar.
    fn obs_observe(&mut self, at: SimInstant, key: SeriesKey, value_ms: f64, trace: Option<u64>) {
        if let Some(obs) = self.obs.as_mut() {
            obs.recorder.observe_exemplar(at, key, value_ms, trace);
        }
    }

    /// Live replicas (any state) of `function` within this shard —
    /// which is fleet-wide for homed functions, since every replica of
    /// a function lives in its home cell.
    fn replica_count(&self, function: &str) -> usize {
        self.workers.iter().map(|w| w.replicas_of(function)).sum()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::ReplicaReady { worker, replica } => self.on_ready(worker, replica),
            Event::ServeDone { worker, replica } => self.on_serve_done(worker, replica),
            Event::GatewayDone { function } => self.on_gateway_done(&function),
            Event::ExpireCheck => self.on_expire_check(),
            Event::Prewarm { function } => self.on_prewarm(&function),
            Event::Prepull { function } => self.on_prepull(&function),
        }
    }

    fn on_arrival(&mut self, function: &str) {
        self.stats
            .get_mut(function)
            .expect("registered")
            .observe(self.now);
        if self.gateway.is_some() {
            self.gateway_arrival(function);
        } else if !self.backend_arrival(function, self.now) {
            // Pre-gateway shed accounting: the scheduler queue cap is the
            // only admission boundary.
            self.metrics.shed.inc();
            let (now, key) = (
                self.now,
                SeriesKey::new("fleet_shed_total").tenant(function),
            );
            self.obs_inc(now, key, 1);
        }
    }

    /// Admits one arrival into `function`'s scheduler queue. Returns
    /// `false` when the queue cap refuses it (the caller accounts the
    /// shed — fleet-side without a gateway, reclassified gateway-side
    /// with one).
    fn backend_arrival(&mut self, function: &str, arrived: SimInstant) -> bool {
        let queue = self.queues.get_mut(function).expect("registered");
        if queue.len() >= self.config.queue_cap {
            return false;
        }
        // Stride ids by shard so they are unique fleet-wide; one shard
        // degenerates to the sequential admission order.
        let id = (self.next_request - 1) * self.shard_count + self.index + 1;
        self.next_request += 1;
        self.metrics.requests.inc();
        let (now, key) = (
            self.now,
            SeriesKey::new("fleet_requests_total").tenant(function),
        );
        self.obs_inc(now, key, 1);
        let queue = self.queues.get_mut(function).expect("registered");
        queue.push_back(Pending { id, arrived });
        self.dispatch(function);
        self.scale_up(function);
        true
    }

    /// The gateway frontier: result cache, then bounded admission, then
    /// the scheduler. A hit is answered at the edge without touching the
    /// backend (no fleet request id budget beyond the trace id, no
    /// scheduler queue, no replica).
    fn gateway_arrival(&mut self, function: &str) {
        enum Decision {
            Cached { completed: SimInstant },
            Admit { arrived: SimInstant },
            Queued,
            Shed,
        }
        let now = self.now;
        let (decision, depth, cache_event) = {
            let gw = self.gateway.as_mut().expect("gateway on");
            gw.metrics.arrivals.inc();
            let depth = gw.admission.queue_depth();
            gw.metrics.queue_depth.observe(depth as f64);
            // Fleet invocations carry no request body, so idempotency is
            // per function and the function name is the whole cache key.
            let mut cache_event = None;
            match gw.cache.lookup(function, function, now) {
                CacheLookup::Hit { .. } => {
                    gw.metrics.cache_hits.inc();
                    let serve = SimDuration::from_millis_f64(gw.config.cache.serve_ms.max(0.0));
                    let completed = now + serve;
                    gw.metrics.observe_cached((completed - now).as_millis_f64());
                    gw.metrics.chunks.add(gw.config.stream.chunks.max(1) as u64);
                    (Decision::Cached { completed }, depth, Some("hits"))
                }
                lookup => {
                    match lookup {
                        CacheLookup::Stale { .. } => {
                            gw.metrics.cache_stale.inc();
                            cache_event = Some("stale");
                        }
                        CacheLookup::Miss => {
                            gw.metrics.cache_misses.inc();
                            cache_event = Some("misses");
                        }
                        CacheLookup::Bypass | CacheLookup::Hit { .. } => {}
                    }
                    let deferred = Deferred {
                        arrived: now,
                        function: function.to_owned(),
                    };
                    let decision = match gw.admission.offer(deferred) {
                        AdmissionOutcome::Admitted(d) => Decision::Admit { arrived: d.arrived },
                        AdmissionOutcome::Queued { .. } => Decision::Queued,
                        AdmissionOutcome::Shed(_) => {
                            gw.metrics.shed_backpressure.inc();
                            Decision::Shed
                        }
                    };
                    (decision, depth, cache_event)
                }
            }
        };
        self.obs_inc(
            now,
            SeriesKey::new("gateway_arrivals_total").tenant(function),
            1,
        );
        self.obs_observe(
            now,
            SeriesKey::new("gateway_queue_depth"),
            depth as f64,
            None,
        );
        if let Some(kind) = cache_event {
            let key = SeriesKey::new(match kind {
                "hits" => "gateway_cache_hits_total",
                "stale" => "gateway_cache_stale_total",
                _ => "gateway_cache_misses_total",
            })
            .tenant(function);
            self.obs_inc(now, key, 1);
        }
        match decision {
            Decision::Cached { completed } => {
                self.obs_observe(
                    completed,
                    SeriesKey::new("gateway_cached_serve_ms").tenant(function),
                    (completed - now).as_millis_f64(),
                    None,
                );
                self.emit_cached_span(function, now, completed);
            }
            Decision::Admit { arrived } => self.gateway_admit(function, arrived, false),
            Decision::Queued => {}
            Decision::Shed => {
                self.obs_inc(
                    now,
                    SeriesKey::new("gateway_shed_total").tenant(function),
                    1,
                );
            }
        }
    }

    /// Pushes a gateway-admitted arrival at the backend; a queue-cap
    /// refusal reclassifies the admit as a downstream shed and, if the
    /// arrival had been promoted from the admission queue, retries with
    /// the next queued arrival (the aborted promotion freed its slot).
    fn gateway_admit(&mut self, function: &str, arrived: SimInstant, promoted: bool) {
        let mut next = Some((function.to_owned(), arrived, promoted));
        while let Some((function, arrived, promoted)) = next.take() {
            if self.backend_arrival(&function, arrived) {
                let gw = self.gateway.as_mut().expect("gateway on");
                gw.metrics.admitted.inc();
                if promoted {
                    gw.metrics.deferred.inc();
                }
                return;
            }
            let now = self.now;
            let gw = self.gateway.as_mut().expect("gateway on");
            gw.admission.abort();
            gw.metrics.shed_downstream.inc();
            next = gw
                .admission
                .promote()
                .map(|d| (d.function, d.arrived, true));
            self.obs_inc(
                now,
                SeriesKey::new("gateway_shed_total").tenant(&function),
                1,
            );
        }
    }

    /// A gateway-admitted invocation of `function` completed: cache its
    /// result and promote the admission-queue head into the freed slot.
    fn on_gateway_done(&mut self, function: &str) {
        let now = self.now;
        let promoted = {
            let gw = self.gateway.as_mut().expect("gateway on");
            match gw.cache.insert(function, function, (), now) {
                CacheInsert::Stored { evicted } => {
                    gw.metrics.cache_insertions.inc();
                    if evicted {
                        gw.metrics.cache_evictions.inc();
                    }
                }
                CacheInsert::Bypass => {}
            }
            gw.admission.release()
        };
        if let Some(d) = promoted {
            self.gateway_admit(&d.function, d.arrived, true);
        }
    }

    /// Emits the one-span tree of a cache hit served at the edge (the
    /// tail sampler treats it like any other non-breaching invocation).
    /// Consumes a strided request id either way so the id sequence does
    /// not depend on tracing configuration.
    fn emit_cached_span(&mut self, function: &str, arrived: SimInstant, completed: SimInstant) {
        let id = (self.next_request - 1) * self.shard_count + self.index + 1;
        self.next_request += 1;
        if !self.tracer.enabled() {
            return;
        }
        if let Some(obs) = self.obs.as_mut() {
            if !obs.keep_trace(id, false, 1) {
                return;
            }
        }
        // The frontier is not a worker; pid 0 marks gateway-side spans.
        let pid = Pid(0);
        let root = self.tracer.begin("gateway_cached", pid, arrived);
        self.tracer.attr(root, "function", function.to_owned());
        self.tracer.attr(root, "id", id.to_string());
        self.tracer.end(root, completed);
    }

    fn on_ready(&mut self, worker: usize, replica: u64) {
        let Some(r) = self.workers[worker].replicas.get_mut(&replica) else {
            return;
        };
        r.state = ReplicaState::Idle { since: self.now };
        r.last_used = self.now;
        let function = r.function.clone();
        self.dispatch(&function);
        self.schedule_expiry(&function);
    }

    fn on_serve_done(&mut self, worker: usize, replica: u64) {
        let Some(r) = self.workers[worker].replicas.get_mut(&replica) else {
            return;
        };
        r.state = ReplicaState::Idle { since: self.now };
        r.last_used = self.now;
        let function = r.function.clone();
        self.dispatch(&function);
        // A placement deferred for lack of memory retries when load moves.
        self.scale_up(&function);
        self.schedule_expiry(&function);
    }

    /// Schedules the expire check that may reap an idle replica of
    /// `function` at the end of its current TTL.
    fn schedule_expiry(&mut self, function: &str) {
        let ttl = self.stats[function].keep_alive_for(&self.config.policy.keep_alive);
        self.events.schedule(self.now + ttl, Event::ExpireCheck);
    }

    /// Serves queued requests of `function` on idle ready replicas,
    /// lowest (worker, replica) id first.
    fn dispatch(&mut self, function: &str) {
        loop {
            if self
                .queues
                .get(function)
                .is_none_or(std::collections::VecDeque::is_empty)
            {
                return;
            }
            let mut found = None;
            'workers: for w in &self.workers {
                for (&rid, r) in &w.replicas {
                    if r.function == function && matches!(r.state, ReplicaState::Idle { .. }) {
                        found = Some((w.id, rid));
                        break 'workers;
                    }
                }
            }
            let Some((wid, rid)) = found else { return };
            let pending = self
                .queues
                .get_mut(function)
                .expect("registered")
                .pop_front()
                .expect("non-empty");
            self.serve(wid, rid, pending);
        }
    }

    fn serve(&mut self, worker: usize, replica: u64, pending: Pending) {
        let global_worker = self.global_worker(worker);
        let profile = &self.profiles[&self.workers[worker].replicas[&replica].function.clone()];
        let r = self.workers[worker]
            .replicas
            .get_mut(&replica)
            .expect("exists");
        let cost = profile.cost(r.gear).expect("gear was profiled");
        let base_ms = if r.served == 0 {
            cost.first_service_ms
        } else {
            cost.warm_service_ms
        };
        let service = self
            .noise
            .jitter(SimDuration::from_millis_f64(base_ms))
            .max(SimDuration::from_nanos(1));
        let done = self.now + service;
        r.served += 1;
        r.state = ReplicaState::Busy { until: done };
        r.last_used = done;
        let cold = r.started_at >= pending.arrived;
        let record = FleetRequest {
            id: pending.id,
            function: r.function.clone(),
            worker: global_worker,
            arrived: pending.arrived,
            dispatched: self.now,
            completed: done,
            cold,
        };
        let (start_began, ready_at, pull_wait, gear) =
            (r.start_began, r.ready_at, r.pull_wait, r.gear);

        self.metrics.queue_delay.observe(record.queue_delay_ms());
        self.metrics
            .observe_latency(gear, record.latency_ms(), cold);
        if cold {
            self.metrics.cold_starts.inc();
        }
        // With the gateway on, the response streams as chunks across the
        // service window: charge the first chunk analytically (no extra
        // events) and hand the completion back to the admission ledger.
        let first_chunk = self
            .gateway
            .as_ref()
            .map(|gw| first_chunk_at(record.dispatched, done, gw.config.stream.chunks));
        let kept = self.emit_spans(&record, start_began, ready_at, pull_wait, first_chunk);
        let at = record.completed;
        if let Some(fc) = first_chunk {
            let ttfc_ms = (fc - record.arrived).as_millis_f64();
            {
                let gw = self.gateway.as_mut().expect("gateway on");
                gw.metrics.observe_ttfc(gear.label(), ttfc_ms, cold);
                gw.metrics.chunks.add(gw.config.stream.chunks.max(1) as u64);
            }
            self.obs_observe(
                fc,
                SeriesKey::new("gateway_ttfc_ms")
                    .tenant(&record.function)
                    .gear(gear.label()),
                ttfc_ms,
                kept,
            );
            self.events.schedule(
                done,
                Event::GatewayDone {
                    function: record.function.clone(),
                },
            );
        }
        self.obs_observe(
            at,
            SeriesKey::new("fleet_queue_delay_ms").tenant(&record.function),
            record.queue_delay_ms(),
            None,
        );
        // The latency exemplar links the bucket to the retained trace,
        // when tail sampling kept this invocation's tree.
        self.obs_observe(
            at,
            SeriesKey::new("fleet_latency_ms")
                .tenant(&record.function)
                .node(record.worker as u32),
            record.latency_ms(),
            kept,
        );
        if cold {
            let key = SeriesKey::new("fleet_cold_starts_total")
                .tenant(&record.function)
                .node(record.worker as u32)
                .gear(gear.label());
            self.obs_inc(at, key, 1);
        }
        if self.config.retain_completed {
            self.completed.push(record);
        }
        self.events
            .schedule(done, Event::ServeDone { worker, replica });
    }

    /// Emits the invocation's span tree retroactively (the tracer is
    /// clock-agnostic, so recorded instants replay exactly). Building the
    /// whole tree at completion keeps concurrent invocations from
    /// interleaving on the tracer's span stack.
    ///
    /// With an obs stack configured the tail sampler decides here,
    /// post-completion, whether the tree is recorded at all: trees whose
    /// latency breached a configured SLO threshold are always kept, the
    /// rest only with the sampler's seeded probability. Returns the
    /// trace id when the tree was kept, for exemplar linking.
    fn emit_spans(
        &mut self,
        record: &FleetRequest,
        start_began: SimInstant,
        ready_at: SimInstant,
        pull_wait: SimDuration,
        first_chunk: Option<SimInstant>,
    ) -> Option<u64> {
        if !self.tracer.enabled() {
            return None;
        }
        if let Some(obs) = self.obs.as_mut() {
            let breach = obs.latency_breach("fleet_latency_ms", record.latency_ms());
            let tree_spans = 5
                + u64::from(record.cold && pull_wait > SimDuration::ZERO)
                + u64::from(first_chunk.is_some());
            if !obs.keep_trace(record.id, breach, tree_spans) {
                return None;
            }
        }
        let pid = Pid(record.worker as u32 + 1);
        let root = self.tracer.begin("sched_invocation", pid, record.arrived);
        self.tracer.attr(root, "function", record.function.clone());
        self.tracer.attr(root, "id", record.id.to_string());
        let enqueue = self.tracer.begin("sched_enqueue", pid, record.arrived);
        self.tracer.end(enqueue, record.dispatched);
        let place = self.tracer.begin("sched_place", pid, record.dispatched);
        self.tracer.attr(place, "worker", record.worker.to_string());
        self.tracer.end(place, record.dispatched);
        if record.cold {
            let start = self.tracer.begin("sched_start", pid, start_began);
            if pull_wait > SimDuration::ZERO {
                // The registry fetch serializes ahead of the restore.
                let pull = self.tracer.begin("registry_pull", pid, start_began);
                self.tracer.end(pull, start_began + pull_wait);
            }
            self.tracer.end(start, ready_at);
        } else {
            let reuse = self.tracer.begin("sched_reuse", pid, record.dispatched);
            self.tracer.end(reuse, record.dispatched);
        }
        let serve = self.tracer.begin("sched_serve", pid, record.dispatched);
        self.tracer.end(serve, record.completed);
        if let Some(fc) = first_chunk {
            // First chunk → completion: the client is already reading
            // while the replica finishes.
            let stream = self.tracer.begin("gateway_stream", pid, fc);
            self.tracer.end(stream, record.completed);
        }
        self.tracer.end(root, record.completed);
        Some(record.id)
    }

    /// Starts replicas to cover the queue deficit, bounded by the
    /// per-function ceiling and worker memory.
    fn scale_up(&mut self, function: &str) {
        let queued = self.queues.get(function).map_or(0, VecDeque::len);
        if queued == 0 {
            return;
        }
        let mut live = 0;
        let mut pipeline = 0; // starting or idle: capacity the queue will get
        for w in &self.workers {
            for r in w.replicas.values() {
                if r.function == function {
                    live += 1;
                    if !matches!(r.state, ReplicaState::Busy { .. }) {
                        pipeline += 1;
                    }
                }
            }
        }
        let deficit = queued.saturating_sub(pipeline);
        let headroom = self.config.max_replicas_per_function.saturating_sub(live);
        for _ in 0..deficit.min(headroom) {
            if !self.start_replica(function, false) {
                break; // no memory anywhere: wait for expiry/eviction
            }
        }
    }

    /// Picks a gear and a worker, then starts a replica. Returns `false`
    /// when no worker can fit it (even after pressure eviction).
    fn start_replica(&mut self, function: &str, prewarm: bool) -> bool {
        let profile = &self.profiles[function];
        let mut gear = self.config.policy.start.gear_for(profile);
        if profile.cost(gear).is_none() {
            // The fixed gear was never profiled for this function: fall
            // back to the best measured one rather than refusing service.
            gear = profile.best_gear();
        }
        // A gear whose footprint exceeds even an empty worker would leave
        // the function unservable; fall back to the fastest gear that
        // fits the budget at all.
        let budget = self.config.mem_budget_bytes;
        let feasible = |g| {
            profile
                .cost(g)
                .is_some_and(|c| c.replica_mem_bytes + c.image_bytes <= budget)
        };
        if !feasible(gear) {
            let Some(fallback) = profile.gears().filter(|&g| feasible(g)).min_by(|&a, &b| {
                let (ca, cb) = (profile.cost(a), profile.cost(b));
                ca.expect("measured")
                    .cold_to_first_response_ms()
                    .partial_cmp(&cb.expect("measured").cold_to_first_response_ms())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            }) else {
                return false; // nothing fits: stays queued until config changes
            };
            gear = fallback;
        }
        let cost = *profile.cost(gear).expect("best gear is measured");
        let Some(worker) = self.place(function, gear, cost.replica_mem_bytes, cost.image_bytes)
        else {
            return false;
        };
        let (slot, start_at) =
            self.workers[worker].reserve_slot(self.now, self.config.cold_start_concurrency);
        let startup = self
            .noise
            .jitter(SimDuration::from_millis_f64(cost.cold_ms))
            .max(SimDuration::from_nanos(1));
        // The image must land on the node before the restore can begin:
        // the pull serializes ahead of the gear's startup cost.
        let (pull_wait, pull_bytes) =
            match self.pull_image(worker, function, gear, cost.image_bytes) {
                Some((wait, bytes)) => {
                    self.metrics.pull_wait.observe(wait.as_millis_f64());
                    let (at, key) = (
                        self.now,
                        SeriesKey::new("fleet_pull_wait_ms")
                            .tenant(function)
                            .node(self.global_worker(worker) as u32),
                    );
                    self.obs_observe(at, key, wait.as_millis_f64(), None);
                    (wait, bytes)
                }
                None => (SimDuration::ZERO, 0),
            };
        let ready_at = start_at + pull_wait + startup;
        let rid = self.next_replica;
        self.next_replica += 1;
        self.workers[worker].add_replica(
            rid,
            Replica {
                function: function.to_owned(),
                gear,
                state: ReplicaState::Starting { ready_at },
                mem_bytes: cost.replica_mem_bytes,
                started_at: self.now,
                start_began: start_at,
                ready_at,
                last_used: ready_at,
                served: 0,
                pull_wait,
                pull_bytes,
            },
            cost.image_bytes,
        );
        self.workers[worker].occupy_slot(slot, ready_at);
        self.metrics.replicas_started.inc();
        if prewarm {
            self.metrics.prewarm_starts.inc();
        }
        let at = self.now;
        let key = SeriesKey::new("fleet_replicas_started_total")
            .tenant(function)
            .node(self.global_worker(worker) as u32)
            .gear(gear.label());
        self.obs_inc(at, key, 1);
        if prewarm {
            let key = SeriesKey::new("fleet_prewarm_starts_total").tenant(function);
            self.obs_inc(at, key, 1);
        }
        self.events.schedule(
            ready_at,
            Event::ReplicaReady {
                worker,
                replica: rid,
            },
        );
        true
    }

    /// Pulls the `(function, gear)` image through `worker`'s node cache,
    /// charging the transfer and the fleet egress/dedup counters.
    /// Returns `(wait, bytes fetched)`, or `None` without a registry
    /// tier or for image-less gears.
    fn pull_image(
        &mut self,
        worker: usize,
        function: &str,
        gear: Gear,
        image_bytes: u64,
    ) -> Option<(SimDuration, u64)> {
        if image_bytes == 0 {
            return None;
        }
        let (Some(reg), Some(rc)) = (self.registry.as_mut(), self.config.registry.as_ref()) else {
            return None;
        };
        let id = image_id(function, gear);
        let receipt = reg
            .pull(&id, &mut self.workers[worker].cache, rc.mode)
            .expect("image published at registration");
        self.metrics
            .registry_egress_bytes
            .add(receipt.stats.bytes_fetched);
        self.metrics
            .registry_dedup_bytes
            .add(receipt.stats.bytes_deduped);
        if receipt.stats.cache_hit {
            self.metrics.pull_cache_hits.inc();
        }
        let at = self.now;
        let node = self.global_worker(worker) as u32;
        if receipt.stats.bytes_fetched > 0 {
            let key = SeriesKey::new("fleet_registry_egress_bytes_total")
                .tenant(function)
                .node(node);
            self.obs_inc(at, key, receipt.stats.bytes_fetched);
        }
        if receipt.stats.bytes_deduped > 0 {
            let key = SeriesKey::new("fleet_registry_dedup_bytes_total")
                .tenant(function)
                .node(node);
            self.obs_inc(at, key, receipt.stats.bytes_deduped);
        }
        if receipt.stats.cache_hit {
            let key = SeriesKey::new("fleet_pull_cache_hits_total")
                .tenant(function)
                .node(node);
            self.obs_inc(at, key, 1);
        }
        Some((receipt.wait, receipt.stats.bytes_fetched))
    }

    /// Chooses the worker for a new replica: among this cell's workers
    /// with memory headroom, the least loaded (fewest replicas, then
    /// least memory, then lowest id). With the registry tier's affinity
    /// placement the primary key becomes the bytes the node would still
    /// have to pull — "schedule where the image is warm". Under an
    /// LRU-pressure policy a full cell may evict idle replicas — oldest
    /// first, lowest worker id first — to make room.
    fn place(
        &mut self,
        function: &str,
        gear: Gear,
        replica_mem: u64,
        image_bytes: u64,
    ) -> Option<usize> {
        let missing = |w: &Worker| -> u64 {
            match (&self.registry, &self.config.registry) {
                (Some(reg), Some(rc)) if rc.affinity_placement && image_bytes > 0 => reg
                    .manifest(&image_id(function, gear))
                    .map_or(image_bytes, |m| w.cache.missing_bytes(m, rc.mode)),
                _ => 0,
            }
        };
        let fit = self
            .workers
            .iter()
            .filter(|w| w.fits(w.charge_for(function, gear, replica_mem, image_bytes)))
            .map(|w| (missing(w), w.replicas.len(), w.mem_in_use(), w.id))
            .min()
            .map(|(_, _, _, id)| id);
        if fit.is_some() {
            return fit;
        }
        if !self.config.policy.keep_alive.evicts_under_pressure() {
            return None;
        }
        for wid in 0..self.workers.len() {
            let Some(victims) =
                self.workers[wid].pressure_victims(function, gear, replica_mem, image_bytes)
            else {
                continue; // even a full idle purge wouldn't fit
            };
            for rid in victims {
                let victim = self.workers[wid]
                    .remove_replica(rid)
                    .expect("victim exists");
                self.metrics.evictions.inc();
                let (at, key) = (
                    self.now,
                    SeriesKey::new("fleet_evictions_total")
                        .tenant(&victim.function)
                        .node(self.global_worker(wid) as u32),
                );
                self.obs_inc(at, key, 1);
            }
            return Some(wid);
        }
        None
    }

    /// Reaps idle replicas past their policy TTL; under a pre-warming
    /// policy, a function reaped to zero schedules a predictive start
    /// ahead of its predicted next arrival.
    fn on_expire_check(&mut self) {
        let mut reaped_functions = Vec::new();
        let mut next_expiry: Option<SimInstant> = None;
        for wid in 0..self.workers.len() {
            let victims: Vec<u64> = {
                let w = &self.workers[wid];
                w.replicas
                    .iter()
                    .filter(|(_, r)| {
                        matches!(r.state, ReplicaState::Idle { .. })
                            && self.now.saturating_duration_since(r.last_used)
                                >= self.stats[&r.function]
                                    .keep_alive_for(&self.config.policy.keep_alive)
                    })
                    .map(|(&id, _)| id)
                    .collect()
            };
            for rid in victims {
                let replica = self.workers[wid].remove_replica(rid).expect("exists");
                self.metrics.expirations.inc();
                let (at, key) = (
                    self.now,
                    SeriesKey::new("fleet_expirations_total")
                        .tenant(&replica.function)
                        .node(self.global_worker(wid) as u32),
                );
                self.obs_inc(at, key, 1);
                reaped_functions.push(replica.function);
            }
            // Re-arm the sweep for survivors whose TTL may have grown.
            for r in self.workers[wid].replicas.values() {
                if matches!(r.state, ReplicaState::Idle { .. }) {
                    let ttl =
                        self.stats[&r.function].keep_alive_for(&self.config.policy.keep_alive);
                    let expiry = r.last_used + ttl;
                    if expiry > self.now {
                        next_expiry =
                            Some(next_expiry.map_or(expiry, |e: SimInstant| e.min(expiry)));
                    }
                }
            }
        }
        if let Some(t) = next_expiry {
            self.events.schedule(t, Event::ExpireCheck);
        }
        // Reaping freed memory: retry functions whose placements had been
        // deferred for lack of it.
        let waiting: Vec<String> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(f, _)| f.clone())
            .collect();
        for function in waiting {
            self.dispatch(&function);
            self.scale_up(&function);
        }
        if !self.config.policy.keep_alive.prewarms() {
            return;
        }
        reaped_functions.sort();
        reaped_functions.dedup();
        for function in reaped_functions {
            if self.replica_count(&function) > 0 {
                continue;
            }
            let Some(predicted) = self.stats[&function].predicted_next_arrival() else {
                continue;
            };
            let profile = &self.profiles[&function];
            let gear = {
                let g = self.config.policy.start.gear_for(profile);
                if profile.cost(g).is_some() {
                    g
                } else {
                    profile.best_gear()
                }
            };
            let cost = *profile.cost(gear).expect("measured");
            // Fire early enough that the replica is ready at (or just
            // before) the predicted arrival: 2x the full cold-path time
            // — restore plus, worst case, pulling the whole image from
            // the registry — absorbs start jitter and slot queueing.
            let pull_ns = match (&self.registry, &self.config.registry) {
                (Some(reg), Some(_)) if cost.image_bytes > 0 => reg
                    .manifest(&image_id(&function, gear))
                    .map_or(0, |m| reg.cost().pull_time(m.total_bytes()).as_nanos()),
                _ => 0,
            };
            let cold_ns = SimDuration::from_millis_f64(cost.cold_ms).as_nanos();
            let fire_at = SimInstant::from_nanos(
                predicted
                    .as_nanos()
                    .saturating_sub((cold_ns + pull_ns).saturating_mul(2)),
            );
            if fire_at <= self.now {
                continue; // prediction already in the past: stay at zero
            }
            // The pre-pull shares the prewarm's fire time; FIFO ordering
            // lands the image on the predicted node first, so the start
            // that follows hits the node cache.
            if self.prepull_enabled() && cost.image_bytes > 0 {
                self.events.schedule(
                    fire_at,
                    Event::Prepull {
                        function: function.clone(),
                    },
                );
            }
            self.events.schedule(
                fire_at,
                Event::Prewarm {
                    function: function.clone(),
                },
            );
        }
    }

    /// Whether the registry tier pre-pulls images for predicted starts.
    fn prepull_enabled(&self) -> bool {
        self.config
            .registry
            .as_ref()
            .is_some_and(|rc| rc.prepull && rc.mode != PullMode::Naive)
    }

    /// Pushes a function's image to the node affinity placement would
    /// pick, ahead of the predicted arrival, so the start that follows
    /// hits the node cache instead of the wire. No memory is reserved —
    /// only the node's pull-through cache is populated.
    fn on_prepull(&mut self, function: &str) {
        if self.replica_count(function) > 0 {
            return; // a live replica means the image already landed
        }
        let profile = &self.profiles[function];
        let gear = {
            let g = self.config.policy.start.gear_for(profile);
            if profile.cost(g).is_some() {
                g
            } else {
                profile.best_gear()
            }
        };
        let image_bytes = profile.cost(gear).expect("measured").image_bytes;
        if image_bytes == 0 || !self.prepull_enabled() {
            return;
        }
        let mode = self.config.registry.as_ref().expect("prepull enabled").mode;
        let id = image_id(function, gear);
        let target = {
            let manifest = self
                .registry
                .as_ref()
                .expect("prepull enabled")
                .manifest(&id);
            self.workers
                .iter()
                .map(|w| {
                    let missing = manifest.map_or(image_bytes, |m| w.cache.missing_bytes(m, mode));
                    (missing, w.replicas.len(), w.mem_in_use(), w.id)
                })
                .min()
                .map(|(_, _, _, id)| id)
                .expect("at least one worker")
        };
        if self
            .pull_image(target, function, gear, image_bytes)
            .is_some()
        {
            self.metrics.prepulls.inc();
        }
    }

    /// Fires a predictive start if the function is still scaled to zero.
    fn on_prewarm(&mut self, function: &str) {
        if self.replica_count(function) > 0 {
            return;
        }
        if self.start_replica(function, true) {
            self.schedule_expiry(function);
        }
    }
}

/// The fleet scheduler: a coordinator over one or more event-loop
/// shards (see the module docs for the sharding model).
pub struct FleetSim {
    config: FleetConfig,
    /// Every registered profile — the validation surface; shards hold
    /// the working copies of the functions homed to them.
    profiles: BTreeMap<String, FunctionProfile>,
    /// Function → owning shard, round-robin by registration order.
    home: BTreeMap<String, usize>,
    registered: usize,
    shards: Vec<Shard>,
    registry: Option<SnapshotRegistry>,
    obs: Option<ObsStack>,
    now: SimInstant,
    metrics: FleetMetrics,
    /// Folded `gateway_*` metrics; `Some` iff the gateway frontier is
    /// configured.
    gateway_metrics: Option<GatewayMetrics>,
    completed: Vec<FleetRequest>,
    spans: Vec<TraceSpan>,
    next_span_id: u64,
    events_processed: u64,
}

impl fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetSim")
            .field("now", &self.now)
            .field("shards", &self.shards.len())
            .field(
                "workers",
                &self.shards.iter().map(|s| s.workers.len()).sum::<usize>(),
            )
            .field("functions", &self.profiles.len())
            .field("completed", &self.completed.len())
            .finish()
    }
}

impl FleetSim {
    /// Creates an empty fleet. The shard count is clamped to the worker
    /// count; each shard owns a contiguous block of workers.
    pub fn new(config: FleetConfig) -> FleetSim {
        let worker_count = config.workers.max(1);
        let shard_count = config.shards.max(1).min(worker_count);
        let shards = (0..shard_count)
            .map(|i| {
                let base = i * worker_count / shard_count;
                let end = (i + 1) * worker_count / shard_count;
                Shard::new(i, shard_count, base, end - base, &config)
            })
            .collect();
        FleetSim {
            registry: config
                .registry
                .as_ref()
                .map(|rc| SnapshotRegistry::new(rc.cost)),
            obs: config.obs.clone().map(ObsStack::new),
            gateway_metrics: config.gateway.as_ref().map(|_| GatewayMetrics::default()),
            shards,
            config,
            profiles: BTreeMap::new(),
            home: BTreeMap::new(),
            registered: 0,
            now: SimInstant::EPOCH,
            metrics: FleetMetrics::default(),
            completed: Vec::new(),
            spans: Vec::new(),
            next_span_id: 0,
            events_processed: 0,
        }
    }

    /// Registers a function's start-cost profile, making it routable.
    /// The function is homed to a shard round-robin by registration
    /// order; all of its replicas will live in that cell.
    ///
    /// With a registry tier configured, every gear with an image is
    /// auto-published as a synthetic manifest shaped by
    /// [`RegistryConfig::shared_fraction`], unless the registry already
    /// holds a manifest under that image id.
    pub fn register(&mut self, profile: FunctionProfile) {
        let name = profile.name().to_owned();
        if let (Some(reg), Some(rc)) = (self.registry.as_mut(), self.config.registry.as_ref()) {
            for gear in profile.gears() {
                let image_bytes = profile.cost(gear).expect("listed gear").image_bytes;
                if image_bytes == 0 {
                    continue;
                }
                let id = image_id(&name, gear);
                if reg.manifest(&id).is_none() {
                    reg.publish(ImageManifest::synthetic(
                        &id,
                        image_bytes,
                        rc.shared_fraction,
                        self.config.seed,
                    ));
                }
            }
        }
        let shard = match self.home.get(&name) {
            Some(&s) => s, // re-registration replaces the profile in place
            None => {
                let s = self.registered % self.shards.len();
                self.registered += 1;
                self.home.insert(name.clone(), s);
                s
            }
        };
        self.shards[shard].register(profile.clone());
        self.profiles.insert(name, profile);
    }

    /// Registry image id of one `(function, gear)` snapshot.
    pub fn image_id(function: &str, gear: Gear) -> String {
        image_id(function, gear)
    }

    /// The snapshot registry, when the tier is configured. Pull
    /// accounting is folded in at the end of each run.
    pub fn registry(&self) -> Option<&SnapshotRegistry> {
        self.registry.as_ref()
    }

    /// The telemetry stack, when configured. Shard recordings are
    /// folded in at the end of each run.
    pub fn obs(&self) -> Option<&ObsStack> {
        self.obs.as_ref()
    }

    /// Schedules one arrival on its function's home shard.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownFunction`] if no profile is registered.
    pub fn submit(&mut self, at: SimInstant, function: &str) -> Result<(), FleetError> {
        let Some(&home) = self.home.get(function) else {
            return Err(FleetError::UnknownFunction(function.to_owned()));
        };
        self.shards[home].inject(at, function);
        Ok(())
    }

    /// Submits every arrival of `schedule`, then runs to quiescence:
    /// [`FleetSim::run_stream`] with one epoch spanning all of virtual
    /// time, so everything is injected before the first drain.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownFunction`] if the schedule names an
    /// unregistered function (checked before anything runs).
    pub fn run(&mut self, schedule: &Schedule) -> Result<(), FleetError> {
        for arrival in schedule.arrivals() {
            if !self.profiles.contains_key(&arrival.function) {
                return Err(FleetError::UnknownFunction(arrival.function.clone()));
            }
        }
        self.run_epochs(
            schedule.arrivals().iter().cloned().map(Ok),
            SimDuration::MAX,
        )
    }

    /// Runs a lazily-produced arrival stream to quiescence without ever
    /// materialising the whole schedule: arrivals are injected in
    /// epochs of [`FleetConfig::stream_epoch`] virtual time and the
    /// shards drain up to each epoch boundary before the next wave.
    /// The stream must be time-sorted (as [`ArrivalGen`] and
    /// [`MergedArrivals`] produce); results are identical to
    /// [`FleetSim::run`] on the equivalent materialised schedule.
    ///
    /// [`ArrivalGen`]: prebake_platform::loadgen::ArrivalGen
    /// [`MergedArrivals`]: prebake_platform::loadgen::MergedArrivals
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownFunction`] for an unregistered function and
    /// [`FleetError::Load`] for a stream-side failure. Validation is
    /// necessarily lazy — arrivals already injected stay processed, and
    /// everything drained so far is folded in before the error returns.
    pub fn run_stream<I>(&mut self, stream: I) -> Result<(), FleetError>
    where
        I: IntoIterator<Item = LoadResult<Arrival>>,
    {
        self.run_epochs(stream.into_iter(), self.config.stream_epoch)
    }

    /// Leases, pumps `stream` in epochs of `epoch`, drains to
    /// quiescence and folds — the one run loop behind both entry points.
    fn run_epochs(
        &mut self,
        mut stream: impl Iterator<Item = LoadResult<Arrival>>,
        epoch: SimDuration,
    ) -> Result<(), FleetError> {
        self.lease();
        let result = self.pump(&mut stream, epoch);
        if result.is_ok() {
            self.drive(None);
        }
        self.fold();
        result
    }

    /// The epoch loop: pull one lookahead arrival, inject every arrival
    /// strictly inside its epoch window, drain up to the boundary,
    /// repeat.
    fn pump(
        &mut self,
        stream: &mut impl Iterator<Item = LoadResult<Arrival>>,
        epoch: SimDuration,
    ) -> Result<(), FleetError> {
        let mut pending: Option<Arrival> = None;
        loop {
            let Some(head) = pending
                .take()
                .map_or_else(|| stream.next().transpose(), |a| Ok(Some(a)))?
            else {
                return Ok(());
            };
            let epoch_end =
                SimInstant::from_nanos(head.at.as_nanos().saturating_add(epoch.as_nanos()));
            self.submit(head.at, &head.function)?;
            for arrival in stream.by_ref() {
                let arrival = arrival?;
                if arrival.at < epoch_end {
                    self.submit(arrival.at, &arrival.function)?;
                } else {
                    pending = Some(arrival);
                    break;
                }
            }
            self.drive(Some(epoch_end));
        }
    }

    /// Hands each shard its per-run leases: a fork of the registry's
    /// manifest store (late, so post-construction publishes are seen)
    /// and a fresh telemetry stack. Both are absorbed back at fold.
    fn lease(&mut self) {
        for shard in &mut self.shards {
            if shard.registry.is_none() {
                shard.registry = self.registry.as_ref().map(SnapshotRegistry::fork);
            }
            if shard.obs.is_none() {
                shard.obs = self.config.obs.clone().map(ObsStack::new);
            }
        }
    }

    /// Drains every shard to quiescence (or up to `bound`). With more
    /// than one shard and [`FleetConfig::threads`] on, shards drain on
    /// OS threads; shards share nothing mutable, so the serial fallback
    /// is bit-identical.
    fn drive(&mut self, bound: Option<SimInstant>) {
        if self.shards.len() > 1 && self.config.threads {
            crossbeam::thread::scope(|scope| {
                for shard in &mut self.shards {
                    scope.spawn(move |_| shard.drain(bound));
                }
            })
            .expect("shard drain panicked");
        } else {
            for shard in &mut self.shards {
                shard.drain(bound);
            }
        }
    }

    /// Folds shard outputs into the coordinator in byte-stable order:
    /// virtual time advances to the max shard clock; metrics merge in
    /// shard order; completed requests k-way merge by dispatch time
    /// (lowest shard wins ties); registry accounting and telemetry
    /// absorb in shard order; spans renumber into one id space.
    fn fold(&mut self) {
        self.now = self
            .shards
            .iter()
            .map(|s| s.now)
            .fold(self.now, SimInstant::max);
        for shard in &mut self.shards {
            let metrics = std::mem::take(&mut shard.metrics);
            self.metrics.merge(&metrics);
            self.events_processed += std::mem::take(&mut shard.events_processed);
            if let (Some(total), Some(gw)) = (self.gateway_metrics.as_mut(), shard.gateway.as_mut())
            {
                let taken = std::mem::take(&mut gw.metrics);
                total.merge(&taken);
            }
        }
        if self.shards.len() == 1 {
            self.completed.append(&mut self.shards[0].completed);
        } else {
            let mut batches: Vec<VecDeque<FleetRequest>> = self
                .shards
                .iter_mut()
                .map(|s| std::mem::take(&mut s.completed).into())
                .collect();
            loop {
                let mut best: Option<(usize, SimInstant)> = None;
                for (i, batch) in batches.iter().enumerate() {
                    if let Some(r) = batch.front() {
                        if best.is_none_or(|(_, t)| r.dispatched < t) {
                            best = Some((i, r.dispatched));
                        }
                    }
                }
                let Some((i, _)) = best else { break };
                self.completed
                    .push(batches[i].pop_front().expect("fronted"));
            }
        }
        if let Some(parent) = self.registry.as_mut() {
            for shard in &mut self.shards {
                if let Some(fork) = shard.registry.take() {
                    parent.absorb(&fork);
                }
            }
        }
        if let Some(parent) = self.obs.as_mut() {
            for shard in &mut self.shards {
                if let Some(stack) = shard.obs.take() {
                    parent.absorb(&stack);
                }
            }
        }
        let single = self.shards.len() == 1;
        for shard in &mut self.shards {
            let now = shard.now;
            let taken = shard.tracer.take(now);
            if single {
                // One shard: the tracer's own ids are already the
                // global sequence — byte-identical to the unsharded
                // scheduler.
                self.spans.extend(taken);
            } else {
                let mut remap: BTreeMap<u64, SpanId> = BTreeMap::new();
                for span in &taken {
                    self.next_span_id += 1;
                    remap.insert(span.id.as_u64(), SpanId::from_raw(self.next_span_id));
                }
                for mut span in taken {
                    span.id = remap[&span.id.as_u64()];
                    span.parent = span.parent.map(|p| remap[&p.as_u64()]);
                    self.spans.push(span);
                }
            }
        }
    }

    /// Current virtual time (max over shard clocks after a run).
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Completed invocations in completion-scheduling order (dispatch
    /// time across shards, lowest shard first on ties). Empty when
    /// [`FleetConfig::retain_completed`] is off.
    pub fn completed(&self) -> &[FleetRequest] {
        &self.completed
    }

    /// Fleet metrics.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Folded gateway metrics; `None` unless [`FleetConfig::gateway`]
    /// is configured.
    pub fn gateway_metrics(&self) -> Option<&GatewayMetrics> {
        self.gateway_metrics.as_ref()
    }

    /// Summed admission accounting across every shard's gateway
    /// frontier (live — includes arrivals still parked in admission
    /// queues). Zeroes without a gateway.
    pub fn gateway_admission(&self) -> AdmissionStats {
        let mut total = AdmissionStats::default();
        for shard in &self.shards {
            if let Some(gw) = &shard.gateway {
                total.merge(gw.admission.stats());
            }
        }
        total
    }

    /// Arrivals currently parked in admission queues, fleet-wide.
    pub fn gateway_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.gateway.as_ref())
            .map(|gw| gw.admission.queue_depth())
            .sum()
    }

    /// The gateway conservation identity, fleet-wide: every shard's
    /// admission ledger balances (`offered == admitted + shed + queued`)
    /// and the folded counters balance against cache hits. Trivially
    /// `true` without a gateway.
    pub fn gateway_conserved(&self) -> bool {
        let ledgers = self
            .shards
            .iter()
            .filter_map(|s| s.gateway.as_ref())
            .all(|gw| gw.admission.conserved());
        let Some(gm) = &self.gateway_metrics else {
            return ledgers;
        };
        ledgers
            && gm.arrivals.get()
                == gm.cache_hits.get()
                    + gm.admitted.get()
                    + gm.shed()
                    + self.gateway_queue_depth() as u64
    }

    /// Events handled across all shards and runs — arrivals plus
    /// scheduler events. The numerator of the events/sec throughput the
    /// scale ablation reports.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Per-worker memory high-water marks, bytes, in fleet-global
    /// worker order.
    pub fn worker_high_water(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|s| s.workers.iter().map(|w| w.mem_high_water))
            .collect()
    }

    /// Live replicas (any state) of `function` across the fleet.
    pub fn replica_count(&self, function: &str) -> usize {
        self.shards.iter().map(|s| s.replica_count(function)).sum()
    }

    /// Renders every fleet metric in the Prometheus exposition format,
    /// with the `gateway_*` series appended when the frontier is on.
    pub fn render_metrics(&self) -> String {
        let mut out = self.metrics.render(&self.worker_high_water());
        if let Some(gm) = &self.gateway_metrics {
            out.push_str(&gm.render());
        }
        out
    }

    /// Drains recorded scheduler span trees (empty unless
    /// [`FleetConfig::span_tracing`] is on). One tree per completed
    /// invocation: `sched_invocation` → `sched_enqueue`, `sched_place`,
    /// `sched_start`/`sched_reuse`, `sched_serve`. A cold start that
    /// fetched image bytes from the registry tier nests a
    /// `registry_pull` span inside its `sched_start`.
    pub fn take_spans(&mut self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.spans)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{KeepAlive, StartSelection};
    use crate::profile::{Gear, GearCost};

    fn profile(name: &str) -> FunctionProfile {
        FunctionProfile::synthetic(
            name,
            &[
                (
                    Gear::Vanilla,
                    GearCost {
                        cold_ms: 200.0,
                        first_service_ms: 10.0,
                        warm_service_ms: 2.0,
                        replica_mem_bytes: 100 << 20,
                        image_bytes: 0,
                    },
                ),
                (
                    Gear::Prefetch,
                    GearCost {
                        cold_ms: 30.0,
                        first_service_ms: 4.0,
                        warm_service_ms: 2.0,
                        replica_mem_bytes: 100 << 20,
                        image_bytes: 40 << 20,
                    },
                ),
            ],
        )
    }

    fn sim(config: FleetConfig) -> FleetSim {
        let mut s = FleetSim::new(config);
        s.register(profile("fn-a"));
        s
    }

    #[test]
    fn unknown_function_is_rejected_before_running() {
        let mut s = sim(FleetConfig::default());
        assert_eq!(
            s.submit(SimInstant::EPOCH, "ghost").unwrap_err(),
            FleetError::UnknownFunction("ghost".to_owned())
        );
        let schedule = Schedule::burst("ghost", 1, SimInstant::EPOCH).unwrap();
        assert!(s.run(&schedule).is_err());
        assert!(s.completed().is_empty());
    }

    #[test]
    fn single_arrival_cold_starts_and_completes() {
        let mut s = sim(FleetConfig::default());
        let schedule = Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap();
        s.run(&schedule).unwrap();
        assert_eq!(s.completed().len(), 1);
        let r = &s.completed()[0];
        assert!(r.cold);
        // Vanilla baseline: ~200ms cold + ~10ms first service.
        assert!(
            (180.0..260.0).contains(&r.latency_ms()),
            "latency {}ms",
            r.latency_ms()
        );
        assert_eq!(s.metrics().cold_starts.get(), 1);
        assert_eq!(s.metrics().replicas_started.get(), 1);
    }

    #[test]
    fn warm_replica_reused_within_ttl() {
        let mut s = sim(FleetConfig::default());
        let schedule =
            Schedule::constant("fn-a", 3, SimInstant::EPOCH, SimDuration::from_secs(1)).unwrap();
        s.run(&schedule).unwrap();
        assert_eq!(s.completed().len(), 3);
        assert_eq!(s.metrics().cold_starts.get(), 1, "only the first is cold");
        assert_eq!(s.metrics().replicas_started.get(), 1);
        assert!(!s.completed()[2].cold);
        assert!(s.completed()[2].latency_ms() < 10.0);
    }

    #[test]
    fn ttl_expiry_forces_a_second_cold_start() {
        let config = FleetConfig {
            policy: Policy::vanilla_baseline(SimDuration::from_secs(5)),
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule =
            Schedule::constant("fn-a", 2, SimInstant::EPOCH, SimDuration::from_secs(60)).unwrap();
        s.run(&schedule).unwrap();
        assert_eq!(s.completed().len(), 2);
        assert_eq!(s.metrics().cold_starts.get(), 2, "ttl expired in the gap");
        assert!(s.metrics().expirations.get() >= 1);
        assert_eq!(s.replica_count("fn-a"), 0, "everything expired at the end");
    }

    #[test]
    fn burst_fans_out_and_respects_replica_ceiling() {
        let config = FleetConfig {
            max_replicas_per_function: 3,
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule = Schedule::burst("fn-a", 10, SimInstant::EPOCH).unwrap();
        s.run(&schedule).unwrap();
        assert_eq!(s.completed().len(), 10);
        assert_eq!(s.metrics().replicas_started.get(), 3, "ceiling respected");
    }

    #[test]
    fn admission_control_sheds_over_capacity() {
        let config = FleetConfig {
            queue_cap: 4,
            max_replicas_per_function: 1,
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule = Schedule::burst("fn-a", 20, SimInstant::EPOCH).unwrap();
        s.run(&schedule).unwrap();
        // 1 dispatched immediately is impossible (replica cold), so the
        // queue holds 4 and the rest shed.
        assert_eq!(s.metrics().shed.get(), 16);
        assert_eq!(s.completed().len(), 4);
        assert_eq!(s.metrics().requests.get(), 4);
    }

    #[test]
    fn memory_budget_caps_fleet_and_high_water_is_tracked() {
        // Each replica is 100MB; budget of 250MB per worker holds 2.
        let config = FleetConfig {
            workers: 2,
            mem_budget_bytes: 250 << 20,
            max_replicas_per_function: 16,
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule = Schedule::burst("fn-a", 12, SimInstant::EPOCH).unwrap();
        s.run(&schedule).unwrap();
        assert_eq!(s.completed().len(), 12, "all served eventually");
        assert_eq!(
            s.metrics().replicas_started.get(),
            4,
            "2 workers x 2 replicas fit the budget"
        );
        for hw in s.worker_high_water() {
            assert!(hw <= 250 << 20, "budget respected, high water {hw}");
            assert!(hw >= 100 << 20, "high water recorded");
        }
    }

    #[test]
    fn lru_pressure_evicts_idle_replicas_for_new_functions() {
        let config = FleetConfig {
            workers: 1,
            mem_budget_bytes: 150 << 20,
            policy: Policy {
                keep_alive: KeepAlive::LruPressure {
                    ttl: SimDuration::from_secs(3600),
                },
                start: StartSelection::Fixed(Gear::Vanilla),
            },
            ..FleetConfig::default()
        };
        let mut s = FleetSim::new(config);
        s.register(profile("fn-a"));
        s.register(profile("fn-b"));
        // fn-a warms up first; fn-b arrives later and needs the memory.
        let schedule = Schedule::burst("fn-a", 1, SimInstant::EPOCH)
            .unwrap()
            .merge(
                Schedule::burst("fn-b", 1, SimInstant::EPOCH + SimDuration::from_secs(10)).unwrap(),
            );
        s.run(&schedule).unwrap();
        assert_eq!(s.completed().len(), 2, "eviction made room for fn-b");
        assert_eq!(s.metrics().evictions.get(), 1);

        // The same pressure with a fixed-TTL policy deadlocks fn-b out of
        // memory instead (no eviction, ttl never fires within the run).
        let config = FleetConfig {
            workers: 1,
            mem_budget_bytes: 150 << 20,
            policy: Policy::vanilla_baseline(SimDuration::from_secs(3600)),
            ..FleetConfig::default()
        };
        let mut stuck = FleetSim::new(config);
        stuck.register(profile("fn-a"));
        stuck.register(profile("fn-b"));
        let schedule = Schedule::burst("fn-a", 1, SimInstant::EPOCH)
            .unwrap()
            .merge(
                Schedule::burst("fn-b", 1, SimInstant::EPOCH + SimDuration::from_secs(10)).unwrap(),
            );
        stuck.run(&schedule).unwrap();
        assert_eq!(stuck.metrics().evictions.get(), 0);
        assert_eq!(
            stuck.completed().len(),
            2,
            "fn-b is served once fn-a expires"
        );
        let fn_b = stuck.completed().iter().find(|r| r.function == "fn-b");
        assert!(
            fn_b.unwrap().queue_delay_ms() > 1000.0,
            "without eviction fn-b waited for the TTL"
        );
    }

    #[test]
    fn histogram_prewarm_converts_cold_starts_to_warm() {
        // Periodic arrivals every 20s; fixed 5s TTL always expires the
        // replica in the gap, so every arrival is cold.
        let arrivals =
            Schedule::constant("fn-a", 10, SimInstant::EPOCH, SimDuration::from_secs(20)).unwrap();
        let fixed = FleetConfig {
            policy: Policy {
                keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(5)),
                start: StartSelection::Fixed(Gear::Vanilla),
            },
            ..FleetConfig::default()
        };
        let mut baseline = sim(fixed);
        baseline.run(&arrivals).unwrap();
        assert_eq!(baseline.metrics().cold_starts.get(), 10);

        // The histogram policy learns the 20s cadence: its adaptive TTL
        // clamps at the same 5s cap, but pre-warm starts a replica just
        // before each predicted arrival.
        let prewarm = FleetConfig {
            policy: Policy {
                keep_alive: KeepAlive::Histogram {
                    floor: SimDuration::from_secs(1),
                    cap: SimDuration::from_secs(5),
                    quantile: 0.99,
                    prewarm: true,
                },
                start: StartSelection::Fixed(Gear::Vanilla),
            },
            ..FleetConfig::default()
        };
        let mut smart = sim(prewarm);
        smart.run(&arrivals).unwrap();
        assert!(
            smart.metrics().cold_starts.get() <= 4,
            "prewarm absorbs the periodic colds, got {}",
            smart.metrics().cold_starts.get()
        );
        assert!(smart.metrics().prewarm_starts.get() >= 6);
        // Both policies pay the very first cold start; compare the tail
        // after the histogram has one gap of history.
        let tail_max = |s: &FleetSim| {
            s.completed()
                .iter()
                .filter(|r| r.id > 2)
                .map(FleetRequest::latency_ms)
                .fold(0.0f64, f64::max)
        };
        let (p_fixed, p_smart) = (tail_max(&baseline), tail_max(&smart));
        assert!(
            p_smart < p_fixed / 2.0,
            "prewarm cuts steady-state worst-case latency: {p_smart} vs {p_fixed}"
        );
    }

    #[test]
    fn adaptive_start_picks_the_cheap_gear() {
        let config = FleetConfig {
            policy: Policy {
                keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(5)),
                start: StartSelection::Adaptive,
            },
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule = Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap();
        s.run(&schedule).unwrap();
        let r = &s.completed()[0];
        // Prefetch profile: ~30ms cold + ~4ms first service.
        assert!(
            r.latency_ms() < 60.0,
            "adaptive start used prefetch, latency {}ms",
            r.latency_ms()
        );
    }

    #[test]
    fn unprofiled_fixed_gear_falls_back_to_best() {
        let config = FleetConfig {
            policy: Policy {
                keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(5)),
                start: StartSelection::Fixed(Gear::Cow), // not in the profile
            },
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        s.run(&Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap())
            .unwrap();
        assert_eq!(s.completed().len(), 1, "fallback keeps the function up");
    }

    #[test]
    fn infeasible_fixed_gear_falls_back_to_a_fitting_one() {
        // Prefetch charges 140MB (replica + image) but the budget is
        // 110MB; vanilla (100MB, no image) is the only gear that fits.
        let config = FleetConfig {
            workers: 1,
            mem_budget_bytes: 110 << 20,
            policy: Policy {
                keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(5)),
                start: StartSelection::Fixed(Gear::Prefetch),
            },
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        s.run(&Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap())
            .unwrap();
        assert_eq!(s.completed().len(), 1, "request is served, not stranded");
        assert!(
            s.completed()[0].latency_ms() > 100.0,
            "fallback paid vanilla's boot, latency {}ms",
            s.completed()[0].latency_ms()
        );
    }

    #[test]
    fn registry_pulls_delay_cold_starts_and_account_egress() {
        let run = |registry: Option<RegistryConfig>| {
            let config = FleetConfig {
                policy: Policy {
                    keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(60)),
                    start: StartSelection::Fixed(Gear::Prefetch),
                },
                registry,
                ..FleetConfig::default()
            };
            let mut s = sim(config);
            s.run(&Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap())
                .unwrap();
            s
        };
        let local = run(None);
        let remote = run(Some(RegistryConfig::default()));
        assert_eq!(local.metrics().registry_egress_bytes.get(), 0);
        assert!(local.registry().is_none());

        // 40 MB over a 12ms + 10 Gbit/s link adds ~45 ms to the cold path.
        let delta = remote.completed()[0].latency_ms() - local.completed()[0].latency_ms();
        assert!(
            delta > 30.0,
            "pull time reached the critical path: {delta}ms"
        );
        assert_eq!(remote.metrics().registry_egress_bytes.get(), 40 << 20);
        assert_eq!(remote.registry().unwrap().egress_bytes(), 40 << 20);
        assert_eq!(remote.registry().unwrap().pulls(), 1);
        assert_eq!(remote.metrics().pull_wait.count(), 1);
    }

    #[test]
    fn dedup_pull_through_saves_cross_function_egress() {
        // fn-a and fn-b each carry a 40 MB prefetch image; half the
        // frames are the shared runtime base.
        let run = |mode: PullMode| {
            let config = FleetConfig {
                workers: 1,
                policy: Policy {
                    keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(60)),
                    start: StartSelection::Fixed(Gear::Prefetch),
                },
                registry: Some(RegistryConfig {
                    mode,
                    ..RegistryConfig::default()
                }),
                ..FleetConfig::default()
            };
            let mut s = FleetSim::new(config);
            s.register(profile("fn-a"));
            s.register(profile("fn-b"));
            let schedule = Schedule::burst("fn-a", 1, SimInstant::EPOCH)
                .unwrap()
                .merge(
                    Schedule::burst("fn-b", 1, SimInstant::EPOCH + SimDuration::from_secs(1))
                        .unwrap(),
                );
            s.run(&schedule).unwrap();
            s.metrics().registry_egress_bytes.get()
        };
        // One 40 MB pull each; dedup ships fn-b's unique half only.
        assert_eq!(run(PullMode::Naive), 80 << 20);
        assert_eq!(run(PullMode::PullThrough), 80 << 20);
        assert_eq!(run(PullMode::DedupPullThrough), 60 << 20);
    }

    #[test]
    fn pull_through_cache_absorbs_repeat_cold_starts() {
        // Two arrivals 60s apart with a 5s TTL: the replica expires in
        // the gap, so both starts are cold — but the image stays in the
        // node cache, so only naive mode re-fetches it.
        let run = |mode: PullMode| {
            let config = FleetConfig {
                workers: 1,
                policy: Policy {
                    keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(5)),
                    start: StartSelection::Fixed(Gear::Prefetch),
                },
                registry: Some(RegistryConfig {
                    mode,
                    prepull: false,
                    ..RegistryConfig::default()
                }),
                ..FleetConfig::default()
            };
            let mut s = sim(config);
            let schedule =
                Schedule::constant("fn-a", 2, SimInstant::EPOCH, SimDuration::from_secs(60))
                    .unwrap();
            s.run(&schedule).unwrap();
            assert_eq!(s.metrics().cold_starts.get(), 2);
            s
        };
        let naive = run(PullMode::Naive);
        assert_eq!(naive.metrics().registry_egress_bytes.get(), 80 << 20);
        assert_eq!(naive.metrics().pull_cache_hits.get(), 0);

        let cached = run(PullMode::PullThrough);
        assert_eq!(cached.metrics().registry_egress_bytes.get(), 40 << 20);
        assert_eq!(cached.metrics().pull_cache_hits.get(), 1);
        assert_eq!(cached.registry().unwrap().cache_hits(), 1);
        // The second cold start restores straight from the node cache.
        let second = &cached.completed()[1];
        assert!(
            second.latency_ms() < naive.completed()[1].latency_ms() - 30.0,
            "cache hit skips the wire: {} vs {}",
            second.latency_ms(),
            naive.completed()[1].latency_ms()
        );
    }

    #[test]
    fn affinity_placement_prefers_the_warm_node() {
        // fn-a lands on worker 0. Without affinity a 2-burst of fn-b
        // spreads least-loaded-first: replica one to empty worker 1
        // (full 40 MB pull), replica two ties back to worker 0 (20 MB,
        // the unique half — worker 0 holds fn-a's shared base). With
        // affinity both placements see worker 0 as the cheaper fetch
        // (20 MB missing vs 40, then 0 missing) and pack there.
        let run = |affinity: bool| {
            let config = FleetConfig {
                workers: 2,
                policy: Policy {
                    keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(60)),
                    start: StartSelection::Fixed(Gear::Prefetch),
                },
                registry: Some(RegistryConfig {
                    affinity_placement: affinity,
                    ..RegistryConfig::default()
                }),
                ..FleetConfig::default()
            };
            let mut s = FleetSim::new(config);
            s.register(profile("fn-a"));
            s.register(profile("fn-b"));
            let schedule = Schedule::burst("fn-a", 1, SimInstant::EPOCH)
                .unwrap()
                .merge(
                    Schedule::burst("fn-b", 2, SimInstant::EPOCH + SimDuration::from_secs(1))
                        .unwrap(),
                );
            s.run(&schedule).unwrap();
            s
        };
        let spread = run(false);
        assert_eq!(spread.metrics().registry_egress_bytes.get(), 100 << 20);
        assert_eq!(spread.metrics().pull_cache_hits.get(), 0);
        let packed = run(true);
        assert_eq!(
            packed.metrics().registry_egress_bytes.get(),
            60 << 20,
            "40 MB for fn-a, then only fn-b's unique half"
        );
        assert_eq!(
            packed.metrics().pull_cache_hits.get(),
            1,
            "the second fn-b pull is already resident"
        );
    }

    #[test]
    fn prepull_lands_the_image_before_the_predicted_start() {
        // The 20s cadence with a 5s TTL expires the replica every gap;
        // the histogram engine pre-warms, and the registry tier
        // pre-pulls to the predicted node first, so predictive starts
        // never wait on the wire.
        let config = FleetConfig {
            policy: Policy {
                keep_alive: KeepAlive::Histogram {
                    floor: SimDuration::from_secs(1),
                    cap: SimDuration::from_secs(5),
                    quantile: 0.99,
                    prewarm: true,
                },
                start: StartSelection::Fixed(Gear::Prefetch),
            },
            registry: Some(RegistryConfig::default()),
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let arrivals =
            Schedule::constant("fn-a", 10, SimInstant::EPOCH, SimDuration::from_secs(20)).unwrap();
        s.run(&arrivals).unwrap();
        assert!(
            s.metrics().prepulls.get() >= 6,
            "predicted nodes pre-pulled"
        );
        assert!(s.metrics().pull_cache_hits.get() >= 6);
        // Only the very first pull crossed the wire.
        assert_eq!(s.metrics().registry_egress_bytes.get(), 40 << 20);
    }

    #[test]
    fn registry_pull_span_nests_inside_sched_start() {
        let config = FleetConfig {
            span_tracing: true,
            policy: Policy {
                keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(60)),
                start: StartSelection::Fixed(Gear::Prefetch),
            },
            registry: Some(RegistryConfig::default()),
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        s.run(&Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap())
            .unwrap();
        let spans = s.take_spans();
        let root = spans
            .iter()
            .find(|sp| sp.name == "sched_invocation")
            .unwrap();
        let children: Vec<&str> = spans
            .iter()
            .filter(|sp| sp.parent == Some(root.id))
            .map(|sp| sp.name)
            .collect();
        assert_eq!(
            children,
            vec!["sched_enqueue", "sched_place", "sched_start", "sched_serve"],
            "the pull nests below sched_start, not the root"
        );
        let start = spans.iter().find(|sp| sp.name == "sched_start").unwrap();
        let pull = spans.iter().find(|sp| sp.name == "registry_pull").unwrap();
        assert_eq!(pull.parent, Some(start.id));
        assert_eq!(pull.start, start.start, "the fetch leads the restore");
        assert!(pull.end < start.end);
        // 40 MB at 12ms + 10 Gbit/s: ~45.5ms on the wire.
        let pull_ms = (pull.end - pull.start).as_millis_f64();
        assert!((40.0..55.0).contains(&pull_ms), "pull span {pull_ms}ms");
    }

    #[test]
    fn registry_runs_are_bit_identical_for_a_fixed_seed() {
        let run = || {
            let config = FleetConfig {
                workers: 3,
                policy: Policy {
                    keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(10)),
                    start: StartSelection::Adaptive,
                },
                registry: Some(RegistryConfig::default()),
                ..FleetConfig::default()
            };
            let mut s = FleetSim::new(config);
            s.register(profile("fn-a"));
            s.register(profile("fn-b"));
            let schedule = Schedule::poisson(
                "fn-a",
                40,
                SimInstant::EPOCH,
                SimDuration::from_millis(800),
                3,
            )
            .unwrap()
            .merge(
                Schedule::poisson(
                    "fn-b",
                    40,
                    SimInstant::EPOCH,
                    SimDuration::from_millis(800),
                    4,
                )
                .unwrap(),
            );
            s.run(&schedule).unwrap();
            (
                s.render_metrics(),
                s.registry().unwrap().egress_bytes(),
                s.registry().unwrap().dedup_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn runs_are_bit_identical_for_a_fixed_seed() {
        let run = |seed: u64| {
            let config = FleetConfig {
                seed,
                ..FleetConfig::default()
            };
            let mut s = sim(config);
            let schedule = Schedule::poisson(
                "fn-a",
                50,
                SimInstant::EPOCH,
                SimDuration::from_millis(500),
                seed,
            )
            .unwrap();
            s.run(&schedule).unwrap();
            (
                s.completed()
                    .iter()
                    .map(|r| (r.id, r.worker, r.completed.as_nanos(), r.cold))
                    .collect::<Vec<_>>(),
                s.render_metrics(),
            )
        };
        let (a1, m1) = run(7);
        let (a2, m2) = run(7);
        assert_eq!(a1, a2);
        assert_eq!(m1, m2);
        let (b, _) = run(8);
        assert_ne!(
            a1, b,
            "different seeds shift jitter (latency schedule differs)"
        );
    }

    #[test]
    fn span_trees_cover_the_invocation_lifecycle() {
        let config = FleetConfig {
            span_tracing: true,
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule =
            Schedule::constant("fn-a", 2, SimInstant::EPOCH, SimDuration::from_secs(1)).unwrap();
        s.run(&schedule).unwrap();
        let spans = s.take_spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|sp| sp.name == "sched_invocation")
            .collect();
        assert_eq!(roots.len(), 2, "one tree per invocation");
        // Cold invocation: enqueue + place + start + serve under the root.
        let cold_root = roots[0];
        let children: Vec<&str> = spans
            .iter()
            .filter(|sp| sp.parent == Some(cold_root.id))
            .map(|sp| sp.name)
            .collect();
        assert_eq!(
            children,
            vec!["sched_enqueue", "sched_place", "sched_start", "sched_serve"]
        );
        // Warm invocation reuses instead of starting.
        let warm_children: Vec<&str> = spans
            .iter()
            .filter(|sp| sp.parent == Some(roots[1].id))
            .map(|sp| sp.name)
            .collect();
        assert!(warm_children.contains(&"sched_reuse"));
        assert!(!warm_children.contains(&"sched_start"));
        // Root brackets the whole latency window.
        assert_eq!(cold_root.start, s.completed()[0].arrived);
        assert_eq!(cold_root.end, s.completed()[0].completed);
        assert!(s.take_spans().is_empty(), "take drains");

        // Off by default.
        let mut quiet = sim(FleetConfig::default());
        quiet
            .run(&Schedule::burst("fn-a", 1, SimInstant::EPOCH).unwrap())
            .unwrap();
        assert!(quiet.take_spans().is_empty());
    }

    #[test]
    fn obs_stack_records_windowed_series_and_slo_breaches() {
        let config = FleetConfig {
            obs: Some(default_fleet_obs(1.0, 1)),
            span_tracing: true,
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        // 10 arrivals over 150s: the first window sees the cold start,
        // later windows only warm serves.
        let schedule =
            Schedule::constant("fn-a", 10, SimInstant::EPOCH, SimDuration::from_secs(15)).unwrap();
        s.run(&schedule).unwrap();
        let obs = s.obs().expect("configured");
        let rec = &obs.recorder;
        assert_eq!(rec.counter_total("fleet_requests_total"), 10);
        assert_eq!(rec.counter_total("fleet_cold_starts_total"), 1);
        assert_eq!(rec.counter_total("fleet_replicas_started_total"), 1);
        assert_eq!(
            rec.tenants_of("fleet_requests_total")
                .into_iter()
                .collect::<Vec<_>>(),
            vec!["fn-a".to_owned()]
        );
        // The cold start landed in window 0 specifically.
        let w0 = rec.window_containing(SimInstant::EPOCH).expect("window 0");
        assert_eq!(w0.counter_metric("fleet_cold_starts_total"), 1);
        let merged = rec
            .merged_histogram("fleet_latency_ms", None)
            .expect("latency observed");
        assert_eq!(merged.count(), 10);
        // The vanilla ~210ms cold start breaches the 250ms objective...
        // no, it doesn't: 210 < 250, so fleet-latency holds. But the cold
        // fraction objective (10% budget) sees 1/10 = exactly budget.
        let report = obs.report();
        let lat = report.status("fleet-latency").expect("status");
        assert!(lat.burn <= 1.0, "no latency breach at ~210ms: {}", lat.burn);
        let cold = report.status("fleet-cold-fraction").expect("status");
        assert_eq!((cold.bad, cold.total), (1, 10));
        // Prometheus render includes ring meta and the SLO gauges.
        let text = obs.render();
        assert!(text.contains("fleet_requests_total{tenant=\"fn-a\"} 10"));
        assert!(text.contains("slo_burn_rate{objective=\"fleet-cold-fraction\"}"));
        // keep_fraction 1.0: every tree retained, so spans survive.
        assert_eq!(obs.sampling.trees_kept, 10);
        assert_eq!(obs.sampling.trees_dropped, 0);
        assert_eq!(s.take_spans().len(), 10 * 5);
    }

    #[test]
    fn tail_sampling_drops_uninteresting_trees_but_keeps_breaches() {
        // 250ms SLO threshold with a ~210ms vanilla cold start: warm
        // serves (~2ms) are uninteresting; with keep_fraction 0 only
        // breaching trees would survive. Tighten the objective to 100ms
        // so the cold start itself breaches.
        let mut obs_config = default_fleet_obs(0.0, 1);
        obs_config.objectives[0] =
            Objective::latency("fleet-latency", "fleet_latency_ms", 100.0, 0.9);
        let config = FleetConfig {
            obs: Some(obs_config),
            span_tracing: true,
            ..FleetConfig::default()
        };
        let mut s = sim(config);
        let schedule =
            Schedule::constant("fn-a", 20, SimInstant::EPOCH, SimDuration::from_secs(1)).unwrap();
        s.run(&schedule).unwrap();
        let obs = s.obs().expect("configured");
        assert_eq!(obs.sampling.trees_kept, 1, "only the cold breach");
        assert_eq!(obs.sampling.interesting_kept, 1);
        assert_eq!(obs.sampling.trees_dropped, 19);
        let spans = s.take_spans();
        let roots: Vec<_> = spans
            .iter()
            .filter(|sp| sp.name == "sched_invocation")
            .collect();
        assert_eq!(roots.len(), 1);
        // The kept tree is complete: all 5 spans present.
        assert_eq!(spans.len(), 5);
        // The breach's latency exemplar links back to its trace id.
        let obs = s.obs().expect("configured");
        let exemplars = obs.recorder.exemplars();
        let cold_id: u64 = roots[0]
            .attrs
            .iter()
            .find(|(k, _)| *k == "id")
            .and_then(|(_, v)| v.parse().ok())
            .expect("root id attr");
        assert!(
            exemplars
                .iter()
                .any(|(_, k, _, ex)| { k.metric == "fleet_latency_ms" && ex.trace_id == cold_id }),
            "exemplar links bucket to the retained trace"
        );
    }

    #[test]
    fn obs_runs_are_bit_reproducible() {
        let run = || {
            let config = FleetConfig {
                obs: Some(default_fleet_obs(0.1, 7)),
                span_tracing: true,
                seed: 3,
                ..FleetConfig::default()
            };
            let mut s = sim(config);
            let schedule = Schedule::poisson(
                "fn-a",
                80,
                SimInstant::EPOCH,
                SimDuration::from_millis(400),
                3,
            )
            .unwrap();
            s.run(&schedule).unwrap();
            let spans = s.take_spans();
            let obs = s.obs().expect("configured");
            (
                obs.render(),
                obs.sampling,
                prebake_obs::chrome_trace_with_exemplars(&spans, &obs.recorder),
            )
        };
        let (r1, s1, t1) = run();
        let (r2, s2, t2) = run();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        assert!(s1.trees_dropped > 0, "sampling actually dropped trees");
    }

    /// A two-tenant fleet for shard tests: `fn-a` homes to shard 0 and
    /// `fn-b` to shard 1 at two shards (registration order).
    fn two_tenant_sim(config: FleetConfig) -> FleetSim {
        let mut s = FleetSim::new(config);
        s.register(profile("fn-a"));
        s.register(profile("fn-b"));
        s
    }

    fn two_tenant_workload() -> Schedule {
        let a = Schedule::poisson(
            "fn-a",
            60,
            SimInstant::EPOCH,
            SimDuration::from_millis(400),
            11,
        )
        .unwrap();
        let b = Schedule::constant("fn-b", 60, SimInstant::EPOCH, SimDuration::from_millis(700))
            .unwrap();
        a.merge(b)
    }

    fn shard_config(shards: usize, threads: bool) -> FleetConfig {
        FleetConfig {
            workers: 4,
            shards,
            threads,
            policy: Policy {
                keep_alive: KeepAlive::FixedTtl(SimDuration::from_secs(5)),
                start: StartSelection::Adaptive,
            },
            registry: Some(RegistryConfig::default()),
            seed: 5,
            ..FleetConfig::default()
        }
    }

    /// One completed request reduced to (id, function, worker, cold).
    type RequestRow = (u64, String, usize, bool);

    /// Fingerprint of everything a run produces that must not depend on
    /// whether shards drained on threads or serially.
    fn fingerprint(s: &mut FleetSim) -> (String, Vec<RequestRow>, u64, u64, u64) {
        (
            s.render_metrics(),
            s.completed()
                .iter()
                .map(|r| (r.id, r.function.clone(), r.worker, r.cold))
                .collect(),
            s.registry().map_or(0, SnapshotRegistry::egress_bytes),
            s.events_processed(),
            s.now().as_nanos(),
        )
    }

    #[test]
    fn threaded_and_serial_drains_are_identical() {
        let schedule = two_tenant_workload();
        for shards in [2, 4] {
            let mut threaded = two_tenant_sim(shard_config(shards, true));
            threaded.run(&schedule.clone()).unwrap();
            let mut serial = two_tenant_sim(shard_config(shards, false));
            serial.run(&schedule.clone()).unwrap();
            assert_eq!(
                fingerprint(&mut threaded),
                fingerprint(&mut serial),
                "threads changed results at {shards} shards"
            );
        }
    }

    #[test]
    fn shards_partition_workers_and_stride_request_ids() {
        let mut s = two_tenant_sim(shard_config(2, true));
        s.run(&two_tenant_workload()).unwrap();
        assert_eq!(s.completed().len(), 120);
        let mut seen = std::collections::BTreeSet::new();
        for r in s.completed() {
            assert!(seen.insert(r.id), "duplicate request id {}", r.id);
            // fn-a is homed to shard 0 (workers 0-1, even ids); fn-b to
            // shard 1 (workers 2-3, odd ids).
            if r.function == "fn-a" {
                assert!(r.worker < 2, "fn-a served off its home cell");
                assert_eq!(r.id % 2, 1, "shard 0 ids stride 1,3,5,…");
            } else {
                assert!((2..4).contains(&r.worker), "fn-b served off its home cell");
                assert_eq!(r.id % 2, 0, "shard 1 ids stride 2,4,6,…");
            }
        }
        // Both cells did real work and the fold summed their counters.
        assert_eq!(s.metrics().requests.get(), 120);
        assert!(s.events_processed() > 240, "arrivals plus scheduler events");
    }

    #[test]
    fn run_stream_matches_run_exactly() {
        for shards in [1, 2] {
            let schedule = two_tenant_workload();
            let mut eager = two_tenant_sim(shard_config(shards, true));
            eager.run(&schedule).unwrap();
            let mut streamed = two_tenant_sim(shard_config(shards, true));
            streamed
                .run_stream(schedule.arrivals().iter().cloned().map(Ok))
                .unwrap();
            assert_eq!(
                fingerprint(&mut eager),
                fingerprint(&mut streamed),
                "streaming changed results at {shards} shards"
            );
            assert_eq!(eager.take_spans(), streamed.take_spans());
        }
    }

    #[test]
    fn run_stream_surfaces_stream_errors_after_folding() {
        let mut s = two_tenant_sim(shard_config(2, true));
        let stream = [
            Ok(Arrival {
                at: SimInstant::EPOCH,
                function: "fn-a".to_owned(),
            }),
            // Beyond the first epoch window, so the first arrival drains
            // before the stream fails.
            Ok(Arrival {
                at: SimInstant::EPOCH + SimDuration::from_secs(10),
                function: "fn-a".to_owned(),
            }),
            Err(LoadError::Overflow),
        ];
        assert_eq!(
            s.run_stream(stream).unwrap_err(),
            FleetError::Load(LoadError::Overflow)
        );
        // The epoch drained before the failure was folded in.
        assert_eq!(s.metrics().requests.get(), 1);

        let mut s = two_tenant_sim(shard_config(2, true));
        let ghost = [Ok(Arrival {
            at: SimInstant::EPOCH,
            function: "ghost".to_owned(),
        })];
        assert_eq!(
            s.run_stream(ghost).unwrap_err(),
            FleetError::UnknownFunction("ghost".to_owned())
        );
    }

    #[test]
    fn retain_completed_off_keeps_distributions_but_drops_rows() {
        let schedule = two_tenant_workload();
        let mut full = two_tenant_sim(shard_config(2, true));
        full.run(&schedule.clone()).unwrap();
        let mut lean = two_tenant_sim(FleetConfig {
            retain_completed: false,
            ..shard_config(2, true)
        });
        lean.run(&schedule).unwrap();
        assert!(lean.completed().is_empty(), "rows dropped");
        assert_eq!(full.render_metrics(), lean.render_metrics());
        assert_eq!(
            lean.metrics().cold_latency.count(),
            lean.metrics().cold_starts.get(),
            "cold p99 still readable from the histogram"
        );
    }

    #[test]
    fn sharded_spans_renumber_into_one_id_space() {
        let mut s = two_tenant_sim(FleetConfig {
            span_tracing: true,
            ..shard_config(2, true)
        });
        s.run(&two_tenant_workload()).unwrap();
        let spans = s.take_spans();
        let roots = spans
            .iter()
            .filter(|s| s.name == "sched_invocation")
            .count();
        assert_eq!(roots, 120, "one tree per completed invocation");
        let mut ids = std::collections::BTreeSet::new();
        for span in &spans {
            assert!(ids.insert(span.id.as_u64()), "duplicate span id");
        }
        for span in &spans {
            if let Some(parent) = span.parent {
                assert!(ids.contains(&parent.as_u64()), "dangling parent pointer");
            }
        }
    }
}
