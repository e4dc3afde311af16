//! The FaaS platform: router, deployer, resource manager and autoscaler
//! over per-container machines.
//!
//! Follows the SPEC-RG reference architecture the paper's §2 describes:
//! the *Function Router* queues events while no replica is available, the
//! *Function Deployer* provisions new replicas from registry images, and
//! the platform garbage-collects idle replicas (scale-to-zero) — the
//! very policy that causes cold starts. Each replica runs in its own
//! container, modelled as its own [`Kernel`] (own page cache, pid and
//! port namespaces); container clocks are synchronised to platform time
//! with the next-free-time pattern described in `DESIGN.md` §7.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use prebake_core::env::{fresh_container, import_images, provision_machine, Deployment};
use prebake_core::starter::{PrebakeStarter, Started, Starter, VanillaStarter};
use prebake_runtime::http::Request;
use prebake_runtime::Replica;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::event::EventQueue;
use prebake_sim::kernel::Kernel;
use prebake_sim::probe::ProbeCounters;
use prebake_sim::time::{SimDuration, SimInstant};

use crate::metrics::Metrics;
use crate::registry::Registry;

/// Platform-wide configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Maximum replicas per function.
    pub max_replicas: usize,
    /// Idle time after which a replica is garbage-collected.
    pub idle_timeout: SimDuration,
    /// Warm-pool floor per function (the pool-based mitigation of
    /// Lin & Glikson \[14\] used as an ablation baseline; 0 = pure
    /// scale-to-zero).
    pub min_warm_pool: usize,
    /// How many cold starts one node can drive concurrently before they
    /// queue on host I/O and CPU (the paper's §7 "concurrent snapshots"
    /// concern). `usize::MAX` disables the model.
    pub cold_start_concurrency: usize,
    /// Seed driving container-kernel noise.
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            max_replicas: 20,
            idle_timeout: SimDuration::from_secs(60),
            min_warm_pool: 0,
            cold_start_concurrency: 4,
            seed: 0xFAA5,
        }
    }
}

/// Maximum containers on the platform's worker node; a full node defers
/// scale-up until capacity frees.
const NODE_CAPACITY: usize = 64;

/// Port replicas bind inside their container.
const CONTAINER_PORT: u16 = 8080;

/// A completed request, as observed at the gateway.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Request id (submission order).
    pub id: u64,
    /// Function name.
    pub function: String,
    /// Arrival time at the gateway.
    pub arrived: SimInstant,
    /// Instant a replica began serving (queue and cold-start waits end
    /// here; a streaming frontend charges chunks from this point).
    pub dispatched: SimInstant,
    /// Completion time.
    pub completed: SimInstant,
    /// Whether the request waited on a cold start.
    pub cold: bool,
    /// Response body the replica produced (empty for errored requests).
    pub body: Bytes,
}

impl CompletedRequest {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.completed - self.arrived).as_millis_f64()
    }
}

struct Container {
    function: String,
    kernel: Kernel,
    replica: Replica,
    busy_until: SimInstant,
    last_active: SimInstant,
    started_at: SimInstant,
    ready_at: SimInstant,
}

#[derive(Debug)]
struct QueuedRequest {
    id: u64,
    arrived: SimInstant,
    req: Request,
}

#[derive(Debug)]
enum Event {
    Arrival {
        id: u64,
        function: String,
        req: Request,
    },
    ReplicaReady {
        container: u64,
    },
    RequestDone {
        container: u64,
    },
    IdleSweep,
}

/// The platform.
pub struct Platform {
    config: PlatformConfig,
    registry: Registry,
    containers: BTreeMap<u64, Container>,
    queues: BTreeMap<String, VecDeque<QueuedRequest>>,
    starting: BTreeMap<String, usize>,
    events: EventQueue<Event>,
    now: SimInstant,
    metrics: Metrics,
    completed: Vec<CompletedRequest>,
    next_container: u64,
    next_request: u64,
    /// Busy-until times of the node's in-flight cold starts
    /// (≤ `cold_start_concurrency`).
    slots: Vec<SimInstant>,
    /// Containers currently placed on the node.
    placed: usize,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("now", &self.now)
            .field("containers", &self.containers.len())
            .field("pending_events", &self.events.len())
            .field("completed", &self.completed.len())
            .finish()
    }
}

impl Platform {
    /// Creates a platform over a registry.
    pub fn new(config: PlatformConfig, registry: Registry) -> Platform {
        Platform {
            config,
            registry,
            containers: BTreeMap::new(),
            queues: BTreeMap::new(),
            starting: BTreeMap::new(),
            events: EventQueue::new(),
            now: SimInstant::EPOCH,
            metrics: Metrics::new(),
            completed: Vec::new(),
            next_container: 1,
            next_request: 1,
            slots: Vec::new(),
            placed: 0,
        }
    }

    /// Places a new replica: reserves one of the node's cold-start
    /// slots. Returns the slot index and the time the start may begin —
    /// or `None` if the node is full (scale-up waits for capacity).
    fn place_cold_start(&mut self) -> Option<(usize, SimInstant)> {
        if self.placed >= NODE_CAPACITY {
            return None;
        }
        let cap = self.config.cold_start_concurrency.max(1);
        if self.slots.len() < cap {
            self.slots.push(self.now);
            return Some((self.slots.len() - 1, self.now));
        }
        let (idx, &busy_until) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.as_nanos())
            .expect("slots non-empty");
        Some((idx, busy_until.max(self.now)))
    }

    /// Current platform time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Instant of the earliest pending event, if any — lets an external
    /// driver (the gateway) step [`Platform::run_until`] event-batch by
    /// event-batch and interleave its own bookkeeping between batches.
    pub fn next_event_time(&self) -> Option<SimInstant> {
        self.events.peek_time()
    }

    /// Gateway metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Requests completed so far, in completion order.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Live replicas of `function`.
    pub(crate) fn replica_count(&self, function: &str) -> usize {
        self.containers
            .values()
            .filter(|c| c.function == function)
            .count()
    }

    /// Makes a function routable (creates its queue) and pre-starts the
    /// warm pool if configured.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] if the function is not in the registry.
    pub fn deploy_function(&mut self, name: &str) -> SysResult<()> {
        if self.registry.pull(name).is_none() {
            return Err(Errno::Enoent);
        }
        self.queues.entry(name.to_owned()).or_default();
        for _ in 0..self.config.min_warm_pool {
            self.start_replica(name)?;
        }
        Ok(())
    }

    /// Schedules a request arrival at `at` (≥ now).
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] if the function is not deployed.
    pub fn submit(&mut self, at: SimInstant, function: &str, req: Request) -> SysResult<u64> {
        if !self.queues.contains_key(function) {
            return Err(Errno::Enoent);
        }
        let id = self.next_request;
        self.next_request += 1;
        self.events.schedule(
            at.max(self.now),
            Event::Arrival {
                id,
                function: function.to_owned(),
                req,
            },
        );
        Ok(id)
    }

    /// Runs until the event queue drains.
    ///
    /// # Errors
    ///
    /// Propagates replica/kernel errors.
    pub fn run(&mut self) -> SysResult<()> {
        while let Some((t, event)) = self.events.pop() {
            self.now = self.now.max(t);
            self.handle_event(event)?;
        }
        Ok(())
    }

    /// Runs events strictly before `bound`, then advances the clock to
    /// `bound`. Events at or after the bound stay queued — an external
    /// driver (the gateway) can interleave new submissions between event
    /// batches without perturbing the timeline.
    ///
    /// # Errors
    ///
    /// Propagates replica/kernel errors.
    pub fn run_until(&mut self, bound: SimInstant) -> SysResult<()> {
        while let Some(t) = self.events.peek_time() {
            if t >= bound {
                break;
            }
            let (t, event) = self.events.pop().expect("peeked event");
            self.now = self.now.max(t);
            self.handle_event(event)?;
        }
        self.now = self.now.max(bound);
        Ok(())
    }

    fn handle_event(&mut self, event: Event) -> SysResult<()> {
        match event {
            Event::Arrival { id, function, req } => {
                self.metrics.function(&function).requests.inc();
                self.queues
                    .get_mut(&function)
                    .ok_or(Errno::Enoent)?
                    .push_back(QueuedRequest {
                        id,
                        arrived: self.now,
                        req,
                    });
                self.dispatch(&function)?;
                // No capacity serving us now? consider scale-up.
                self.maybe_scale_up(&function)?;
                Ok(())
            }
            Event::ReplicaReady { container } => {
                let function = match self.containers.get(&container) {
                    Some(c) => c.function.clone(),
                    None => return Ok(()),
                };
                *self.starting.entry(function.clone()).or_default() = self
                    .starting
                    .get(&function)
                    .copied()
                    .unwrap_or(1)
                    .saturating_sub(1);
                self.dispatch(&function)?;
                // Schedule the idle sweep that may reap this replica.
                self.events
                    .schedule(self.now + self.config.idle_timeout, Event::IdleSweep);
                Ok(())
            }
            Event::RequestDone { container } => {
                let function = match self.containers.get(&container) {
                    Some(c) => c.function.clone(),
                    None => return Ok(()),
                };
                self.dispatch(&function)?;
                self.events
                    .schedule(self.now + self.config.idle_timeout, Event::IdleSweep);
                Ok(())
            }
            Event::IdleSweep => {
                self.sweep_idle();
                Ok(())
            }
        }
    }

    /// Assigns queued requests of `function` to idle ready replicas.
    fn dispatch(&mut self, function: &str) -> SysResult<()> {
        loop {
            let Some(queue) = self.queues.get_mut(function) else {
                return Ok(());
            };
            if queue.is_empty() {
                return Ok(());
            }
            // Find an idle, ready container.
            let Some((&cid, _)) = self.containers.iter().find(|(_, c)| {
                c.function == function && c.ready_at <= self.now && c.busy_until <= self.now
            }) else {
                return Ok(());
            };
            let qreq = self.queues.get_mut(function).unwrap().pop_front().unwrap();
            self.serve(cid, qreq)?;
        }
    }

    fn serve(&mut self, cid: u64, qreq: QueuedRequest) -> SysResult<()> {
        let dispatched = self.now;
        let container = self.containers.get_mut(&cid).expect("container exists");
        container.kernel.advance_to(self.now);
        let mut errored = false;
        let mut body = Bytes::new();
        let outcome = container.replica.handle(&mut container.kernel, &qreq.req);
        match outcome {
            Ok(response) => body = response.body,
            Err(Errno::Esrch | Errno::Enotconn | Errno::Ebadf | Errno::Efault) => {
                // Watchdog: the replica process died. Replace the
                // container, put the request back at the head of the
                // queue, and let scale-up provision a successor.
                let function = container.function.clone();
                self.remove_container(cid, RemovalReason::Crashed);
                self.queues
                    .get_mut(&function)
                    .ok_or(Errno::Enoent)?
                    .push_front(qreq);
                self.maybe_scale_up(&function)?;
                return Ok(());
            }
            Err(_application_error) => {
                // A bad request (e.g. an unparsable body) is the caller's
                // problem, not the platform's: complete it as an HTTP
                // 5xx-style error and keep serving.
                errored = true;
            }
        }
        let container = self.containers.get_mut(&cid).expect("container exists");
        let done = container.kernel.now();
        container.busy_until = done;
        container.last_active = done;
        let cold = container.started_at >= qreq.arrived;
        let function = container.function.clone();

        let record = CompletedRequest {
            id: qreq.id,
            function: function.clone(),
            arrived: qreq.arrived,
            dispatched,
            completed: done,
            cold,
            body,
        };
        let m = self.metrics.function(&function);
        m.latency.observe(record.latency_ms());
        if cold {
            m.cold_starts.inc();
        }
        if errored {
            m.request_errors.inc();
        }
        self.completed.push(record);
        self.events
            .schedule(done, Event::RequestDone { container: cid });
        Ok(())
    }

    /// Paper §4.1 concurrency model: "if a replica is busy and a new
    /// request arrives, the platform starts another replica to do the
    /// job".
    fn maybe_scale_up(&mut self, function: &str) -> SysResult<()> {
        let queued = self.queues.get(function).map_or(0, VecDeque::len);
        if queued == 0 {
            return Ok(());
        }
        let live = self.replica_count(function);
        let starting = self.starting.get(function).copied().unwrap_or(0);
        // Idle-or-soon-free capacity already covers the queue?
        let free_soon = self
            .containers
            .values()
            .filter(|c| {
                c.function == function && c.busy_until <= self.now && c.ready_at <= self.now
            })
            .count();
        let deficit = queued.saturating_sub(free_soon + starting);
        let headroom = self.config.max_replicas.saturating_sub(live + starting);
        for _ in 0..deficit.min(headroom) {
            if self.start_replica(function)?.is_none() {
                break; // node full: wait for capacity to free
            }
        }
        Ok(())
    }

    /// Provisions a new container and starts a replica in it (vanilla or
    /// prebaked, depending on the registry image). Returns `None` when the
    /// node is full.
    fn start_replica(&mut self, function: &str) -> SysResult<Option<u64>> {
        let image = self.registry.pull(function).ok_or(Errno::Enoent)?;
        let Some((slot, start_at)) = self.place_cold_start() else {
            return Ok(None);
        };
        let cid = self.next_container;
        self.next_container += 1;
        *self.starting.entry(function.to_owned()).or_default() += 1;

        // Provisioning (image pull, artifact install, cache pre-warm)
        // happens outside the measured timeline — the paper excludes
        // orchestration overheads — so it runs uncharged.
        let mut kernel = Kernel::new(self.config.seed ^ (cid << 8));
        let port = CONTAINER_PORT;
        let spec = image.spec.clone();
        let snapshot_files = image.snapshot_files.clone();
        let prebaked = image.is_prebaked();
        let (watchdog, dep) = kernel.uncharged(move |kernel| {
            let watchdog = provision_machine(kernel)?;
            let dep = Deployment::install(kernel, spec, port)?;
            let mut warm = Vec::new();
            if prebaked {
                import_images(kernel, &dep.images_dir(), &snapshot_files)?;
                warm = dep.image_paths();
            }
            fresh_container(kernel, &warm)?;
            Ok((watchdog, dep))
        })?;

        // Container clock joins platform time — delayed if the node's
        // cold-start slots are saturated (concurrent starts contend for
        // host I/O and CPU) — then the start runs.
        kernel.advance_to(start_at);
        let started_at = self.now;
        let starter: Box<dyn Starter> = if image.is_prebaked() {
            let mut prebake = PrebakeStarter::with_mode(image.restore_mode);
            prebake.threads = image.restore_threads;
            Box::new(prebake)
        } else {
            Box::new(VanillaStarter)
        };
        let Started {
            replica,
            startup,
            trace,
            restore,
            ..
        } = starter.start(&mut kernel, watchdog, &dep)?;
        let ready_at = kernel.now();
        self.slots[slot] = ready_at;
        self.placed += 1;

        let m = self.metrics.function(function);
        m.replicas_started.inc();
        m.startup.observe(startup.as_millis_f64());
        if prebaked {
            // Restore-path observability: the paper's lazy/CoW refinements
            // trade eager copy time for faults served later, so the
            // gateway exports both the restore latency and the fault mix.
            m.restore_ms.observe(startup.as_millis_f64());
            let counters = ProbeCounters::from_events(&trace);
            m.restore_major_faults.add(counters.major_faults);
            m.restore_minor_faults.add(counters.minor_faults);
            m.restore_cow_breaks.add(counters.cow_breaks);
            m.restore_extents.add(counters.extents_restored);
            m.restore_faults_avoided.add(counters.faults_avoided);
        }
        if let Some(stats) = &restore {
            m.restore_shards.add(stats.shards as u64);
            m.restore_seek_bytes_avoided.add(stats.seek_bytes_avoided);
            m.restore_pages_compacted.add(stats.pages_compacted as u64);
        }

        self.containers.insert(
            cid,
            Container {
                function: function.to_owned(),
                kernel,
                replica,
                busy_until: ready_at,
                last_active: ready_at,
                started_at,
                ready_at,
            },
        );
        self.events
            .schedule(ready_at, Event::ReplicaReady { container: cid });
        Ok(Some(cid))
    }

    /// Removes a container, returning its node capacity and recording
    /// the reason in metrics.
    fn remove_container(&mut self, cid: u64, reason: RemovalReason) {
        if let Some(container) = self.containers.remove(&cid) {
            self.placed = self.placed.saturating_sub(1);
            let m = self.metrics.function(&container.function);
            match reason {
                RemovalReason::Idle => m.replicas_reaped.inc(),
                RemovalReason::Crashed => m.replica_failures.inc(),
            }
        }
    }

    /// Garbage-collects replicas idle past the timeout, honouring the
    /// warm-pool floor.
    fn sweep_idle(&mut self) {
        let timeout = self.config.idle_timeout;
        let now = self.now;
        let mut victims = Vec::new();
        let mut per_fn: BTreeMap<String, usize> = BTreeMap::new();
        for (&cid, c) in &self.containers {
            *per_fn.entry(c.function.clone()).or_default() += 1;
            let idle = c.busy_until <= now
                && c.ready_at <= now
                && now.saturating_duration_since(c.last_active) >= timeout;
            if idle {
                victims.push((cid, c.function.clone()));
            }
        }
        for (cid, function) in victims {
            let remaining = per_fn.get(&function).copied().unwrap_or(0);
            if remaining <= self.config.min_warm_pool {
                continue;
            }
            self.remove_container(cid, RemovalReason::Idle);
            *per_fn.get_mut(&function).unwrap() -= 1;
        }
    }

    /// Chaos hook: crashes one live replica of `function` (kills its
    /// process inside the container). Returns `true` if a victim was
    /// found. The watchdog path detects the corpse at the next dispatch
    /// and replaces it.
    #[cfg(test)]
    pub(crate) fn inject_replica_crash(&mut self, function: &str) -> bool {
        let victim = self
            .containers
            .iter_mut()
            .find(|(_, c)| c.function == function);
        let Some((_, container)) = victim else {
            return false;
        };
        let pid = container.replica.pid();
        let _ = container.kernel.sys_exit(pid, 137);
        true
    }
}

/// Why a container was removed.
#[derive(Debug, Clone, Copy)]
enum RemovalReason {
    Idle,
    Crashed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, Template};
    use prebake_functions::FunctionSpec;

    fn platform_with(template: &Template, config: PlatformConfig) -> Platform {
        let registry = Registry::new();
        let image = FunctionBuilder
            .build(FunctionSpec::noop(), template)
            .unwrap();
        registry.push(image);
        let mut p = Platform::new(config, registry);
        p.deploy_function("noop").unwrap();
        p
    }

    #[test]
    fn unknown_function_rejected() {
        let mut p = Platform::new(PlatformConfig::default(), Registry::new());
        assert_eq!(p.deploy_function("ghost").unwrap_err(), Errno::Enoent);
        assert_eq!(
            p.submit(SimInstant::EPOCH, "ghost", Request::empty())
                .unwrap_err(),
            Errno::Enoent
        );
    }

    #[test]
    fn single_request_cold_starts_then_completes() {
        let mut p = platform_with(&Template::java11(), PlatformConfig::default());
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 1);
        let r = &p.completed()[0];
        assert!(r.cold);
        // latency ≈ vanilla NOOP cold start + service
        assert!(
            (90.0..130.0).contains(&r.latency_ms()),
            "latency {}ms",
            r.latency_ms()
        );
        assert_eq!(p.metrics().get("noop").unwrap().cold_starts.get(), 1);
    }

    #[test]
    fn warm_replica_serves_fast() {
        let mut p = platform_with(&Template::java11(), PlatformConfig::default());
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.submit(
            SimInstant::EPOCH + SimDuration::from_secs(1),
            "noop",
            Request::empty(),
        )
        .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 2);
        let warm = &p.completed()[1];
        assert!(!warm.cold);
        assert!(
            warm.latency_ms() < 10.0,
            "warm latency {}",
            warm.latency_ms()
        );
        assert_eq!(
            p.metrics().get("noop").unwrap().replicas_started.get(),
            1,
            "no extra replica needed"
        );
    }

    #[test]
    fn concurrent_requests_scale_out() {
        let mut p = platform_with(&Template::java11(), PlatformConfig::default());
        for _ in 0..3 {
            p.submit(SimInstant::EPOCH, "noop", Request::empty())
                .unwrap();
        }
        p.run().unwrap();
        assert_eq!(p.completed().len(), 3);
        let started = p.metrics().get("noop").unwrap().replicas_started.get();
        assert!(
            started >= 2,
            "busy replicas trigger scale-out, got {started}"
        );
    }

    #[test]
    fn max_replicas_respected() {
        let config = PlatformConfig {
            max_replicas: 1,
            ..PlatformConfig::default()
        };
        let mut p = platform_with(&Template::java11(), config);
        for _ in 0..5 {
            p.submit(SimInstant::EPOCH, "noop", Request::empty())
                .unwrap();
        }
        p.run().unwrap();
        assert_eq!(p.completed().len(), 5, "all served eventually");
        assert_eq!(
            p.metrics().get("noop").unwrap().replicas_started.get(),
            1,
            "replica cap respected"
        );
    }

    #[test]
    fn idle_replicas_reaped_scale_to_zero() {
        let config = PlatformConfig {
            idle_timeout: SimDuration::from_secs(5),
            ..PlatformConfig::default()
        };
        let mut p = platform_with(&Template::java11(), config);
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.replica_count("noop"), 0, "scale-to-zero after idle");
        assert_eq!(p.metrics().get("noop").unwrap().replicas_reaped.get(), 1);
    }

    #[test]
    fn warm_pool_floor_survives_sweep() {
        let config = PlatformConfig {
            idle_timeout: SimDuration::from_secs(5),
            min_warm_pool: 1,
            ..PlatformConfig::default()
        };
        let mut p = platform_with(&Template::java11(), config);
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.replica_count("noop"), 1, "pool floor kept");
        // A request long after idle-time is warm thanks to the pool.
        p.submit(
            p.now() + SimDuration::from_secs(120),
            "noop",
            Request::empty(),
        )
        .unwrap();
        p.run().unwrap();
        let last = p.completed().last().unwrap();
        assert!(!last.cold, "pool keeps requests warm");
    }

    #[test]
    fn prebaked_image_cold_start_is_faster() {
        let mut vanilla = platform_with(&Template::java11(), PlatformConfig::default());
        vanilla
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        vanilla.run().unwrap();
        let v = vanilla.completed()[0].latency_ms();

        let mut prebaked = platform_with(&Template::java11_criu(), PlatformConfig::default());
        prebaked
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        prebaked.run().unwrap();
        let p = prebaked.completed()[0].latency_ms();

        assert!(p < v, "prebaked cold start {p}ms !< vanilla {v}ms");
    }

    #[test]
    fn prefetch_image_serves_cold_and_warm_requests() {
        // End-to-end: a prefetch-template image (snapshot + ws.img)
        // restores with working-set prefetch, serves the cold request,
        // and keeps serving warm ones.
        let mut p = platform_with(&Template::java11_criu_prefetch(), PlatformConfig::default());
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.submit(
            SimInstant::EPOCH + SimDuration::from_secs(1),
            "noop",
            Request::empty(),
        )
        .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 2);
        assert!(p.completed()[0].cold);
        assert!(!p.completed()[1].cold);

        // And the pure-lazy template works too.
        let mut lazy = platform_with(&Template::java11_criu_lazy(), PlatformConfig::default());
        lazy.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        lazy.run().unwrap();
        assert_eq!(lazy.completed().len(), 1);
    }

    #[test]
    fn cold_start_concurrency_serialises_a_multi_tenant_burst() {
        // Six *distinct* functions cold-start at once: each needs its own
        // replica, so saturated cold-start slots convoy the burst.
        let run = |concurrency: usize| {
            let registry = Registry::new();
            let names: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
            for name in &names {
                let spec = FunctionSpec::noop().with_name(name.clone());
                registry.push(FunctionBuilder.build(spec, &Template::java11()).unwrap());
            }
            let config = PlatformConfig {
                cold_start_concurrency: concurrency,
                ..PlatformConfig::default()
            };
            let mut p = Platform::new(config, registry);
            for name in &names {
                p.deploy_function(name).unwrap();
                p.submit(SimInstant::EPOCH, name, Request::empty()).unwrap();
            }
            p.run().unwrap();
            assert_eq!(p.completed().len(), 6);
            p.completed()
                .iter()
                .map(|r| r.latency_ms())
                .fold(0.0f64, f64::max)
        };
        let serialized = run(1);
        let parallel = run(16);
        assert!(
            serialized > parallel * 3.0,
            "one slot must convoy the burst: {serialized} vs {parallel}"
        );
    }

    #[test]
    fn bad_request_errors_without_killing_the_platform() {
        // Markdown rejects non-UTF-8 bodies; the platform must complete
        // the request as an application error and keep serving.
        let registry = Registry::new();
        registry.push(
            FunctionBuilder
                .build(FunctionSpec::markdown(), &Template::java11())
                .unwrap(),
        );
        let mut p = Platform::new(PlatformConfig::default(), registry);
        p.deploy_function("markdown-render").unwrap();
        p.submit(
            SimInstant::EPOCH,
            "markdown-render",
            Request::with_body(vec![0xFF, 0xFE, 0x80]),
        )
        .unwrap();
        p.submit(
            SimInstant::EPOCH + SimDuration::from_secs(1),
            "markdown-render",
            Request::with_body(b"# fine".to_vec()),
        )
        .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 2, "both requests completed");
        let m = p.metrics().get("markdown-render").unwrap();
        assert_eq!(m.request_errors.get(), 1);
    }

    #[test]
    fn crashed_replica_is_replaced_and_request_retried() {
        // A pool floor of 1 keeps a victim alive across run() (the idle
        // sweep always fires before quiescence, whatever the timeout).
        let config = PlatformConfig {
            min_warm_pool: 1,
            ..PlatformConfig::default()
        };
        let mut p = platform_with(&Template::java11(), config);
        // Warm one replica up.
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.run().unwrap();
        assert_eq!(p.completed().len(), 1);

        // Kill it, then send another request: the watchdog path must
        // detect the corpse, replace the replica and still answer.
        assert!(p.inject_replica_crash("noop"));
        assert!(!p.inject_replica_crash("ghost"));
        p.submit(
            p.now() + SimDuration::from_secs(1),
            "noop",
            Request::empty(),
        )
        .unwrap();
        p.run().unwrap();

        assert_eq!(p.completed().len(), 2, "request survived the crash");
        let m = p.metrics().get("noop").unwrap();
        assert_eq!(m.replica_failures.get(), 1);
        assert_eq!(m.replicas_started.get(), 2, "successor was started");
        let retried = p.completed().last().unwrap();
        assert!(
            retried.latency_ms() > 50.0,
            "the retried request paid a fresh cold start: {}ms",
            retried.latency_ms()
        );
    }

    #[test]
    fn cluster_capacity_defers_scale_up() {
        let config = PlatformConfig {
            idle_timeout: SimDuration::from_secs(3600),
            ..PlatformConfig::default()
        };
        let mut p = platform_with(&Template::java11(), config);
        // Every slot but one is taken by containers of other tenants.
        p.placed = NODE_CAPACITY - 1;
        for _ in 0..6 {
            p.submit(SimInstant::EPOCH, "noop", Request::empty())
                .unwrap();
        }
        p.run().unwrap();
        assert_eq!(p.completed().len(), 6, "all served despite a full node");
        assert_eq!(
            p.metrics().get("noop").unwrap().replicas_started.get(),
            1,
            "the last free slot caps the fleet"
        );
    }

    #[test]
    fn parallel_ordered_and_compact_templates_serve_and_export_counters() {
        // Restore-path metrics are fed from the probe trace. Eager
        // restore copies everything up front, so no faults here.
        let mut eager = platform_with(&Template::java11_criu(), PlatformConfig::default());
        eager
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        eager.run().unwrap();
        let m = eager.metrics().get("noop").unwrap();
        assert_eq!(m.restore_ms.count(), 1);
        assert_eq!(m.restore_major_faults.get(), 0);
        assert!(
            m.restore_extents.get() > 0,
            "eager restore vectors its runs"
        );
        assert_eq!(m.restore_faults_avoided.get(), 0, "no fault-around window");

        // A lazy-restore image pays demand faults inside the startup
        // window instead, and the gateway counts them.
        let mut lazy = platform_with(&Template::java11_criu_lazy(), PlatformConfig::default());
        lazy.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        lazy.run().unwrap();
        let lm = lazy.metrics().get("noop").unwrap();
        assert_eq!(lm.restore_ms.count(), 1);
        assert!(lm.restore_major_faults.get() > 0, "lazy restore faults");

        // Parallel template: restore fans out and the gateway counts the
        // shards; the cold start beats the serial template's.
        let mut serial = platform_with(&Template::java11_criu_warm(), PlatformConfig::default());
        serial
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        serial.run().unwrap();
        let mut par = platform_with(&Template::java11_criu_parallel(), PlatformConfig::default());
        par.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        par.run().unwrap();
        assert_eq!(
            serial.metrics().get("noop").unwrap().restore_shards.get(),
            1
        );
        assert_eq!(par.metrics().get("noop").unwrap().restore_shards.get(), 4);
        let serial_ms = serial.metrics().get("noop").unwrap().restore_ms.mean();
        let par_ms = par.metrics().get("noop").unwrap().restore_ms.mean();
        assert!(
            par_ms < serial_ms,
            "sharded restore {par_ms}ms !< serial {serial_ms}ms"
        );

        // Ordered template: the fault-order layout turns the prefetch
        // read into streaming, visible in the seek counter.
        let mut dump_order =
            platform_with(&Template::java11_criu_prefetch(), PlatformConfig::default());
        dump_order
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        dump_order.run().unwrap();
        let mut ordered =
            platform_with(&Template::java11_criu_ordered(), PlatformConfig::default());
        ordered
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        ordered.run().unwrap();
        let avoided = |p: &Platform| {
            p.metrics()
                .get("noop")
                .unwrap()
                .restore_seek_bytes_avoided
                .get()
        };
        assert!(
            avoided(&ordered) > avoided(&dump_order),
            "ordered layout streams more: {} !> {}",
            avoided(&ordered),
            avoided(&dump_order)
        );

        // Compact template: the restore reports the fallback split and
        // the request still completes.
        let mut compact =
            platform_with(&Template::java11_criu_compact(), PlatformConfig::default());
        compact
            .submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        compact.run().unwrap();
        assert_eq!(compact.completed().len(), 1);
        let cm = compact.metrics().get("noop").unwrap();
        assert!(cm.restore_pages_compacted.get() > 0);
        let text = compact.metrics().render();
        assert!(text.contains("prebake_restore_pages_compacted_total{function=\"noop\"}"));
    }

    #[test]
    fn metrics_render_after_traffic() {
        let mut p = platform_with(&Template::java11(), PlatformConfig::default());
        p.submit(SimInstant::EPOCH, "noop", Request::empty())
            .unwrap();
        p.run().unwrap();
        let text = p.metrics().render();
        assert!(text.contains("faas_requests_total{function=\"noop\"} 1"));
        assert!(text.contains("faas_replicas_started_total{function=\"noop\"} 1"));
    }
}
