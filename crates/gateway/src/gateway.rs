//! The standalone gateway: an asynchronous streaming frontend over one
//! [`Platform`].
//!
//! Arrivals flow through three stages, all on virtual time:
//!
//! 1. **Result cache** — idempotent invocations whose cached entry is
//!    still live are answered at the edge in [`CacheConfig::serve_ms`]
//!    without touching a replica.
//! 2. **Admission** — at most `max_inflight` invocations proceed
//!    concurrently; the overflow parks in a bounded queue and is
//!    promoted FIFO as completions free slots; past the queue, arrivals
//!    are shed with backpressure.
//! 3. **Streaming** — a backend response is delivered as chunks spread
//!    across its service window, so *time to first chunk* (TTFC) is
//!    recorded separately from completion latency.
//!
//! The gateway drives the platform with [`Platform::run_until`] between
//! arrivals, harvesting completions as they land so deferred arrivals
//! are submitted at the instant their slot frees — the event
//! interleaving is deterministic and independent of host scheduling.

use std::collections::BTreeMap;

use bytes::Bytes;
use prebake_platform::loadgen::LoadError;
use prebake_platform::{CompletedRequest, Platform};
use prebake_runtime::http::Request;
use prebake_sim::error::Errno;
use prebake_sim::time::{SimDuration, SimInstant};

use crate::admission::{AdmissionController, AdmissionOutcome, AdmissionStats};
use crate::cache::{CacheConfig, CacheInsert, CacheLookup, ResultCache};
use crate::metrics::GatewayMetrics;
use crate::stream::{plan, Chunk, StreamConfig};

/// Gear label the standalone gateway files TTFC observations under (it
/// sits above one platform and does not see per-replica restore gears;
/// the fleet frontier records real gear labels).
const PLATFORM_GEAR: &str = "platform";

/// Gateway configuration. The per-worker caps are multiplied by the
/// worker count the frontend fronts (the standalone gateway counts as
/// one worker; a fleet shard scales by its cell size).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Concurrent invocations each fronted worker may hold in flight.
    pub inflight_per_worker: usize,
    /// Admission-queue slots per fronted worker.
    pub queue_per_worker: usize,
    /// Response-streaming shape.
    pub stream: StreamConfig,
    /// Result-cache policy.
    pub cache: CacheConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            inflight_per_worker: 8,
            queue_per_worker: 32,
            stream: StreamConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// Gateway errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The platform refused an operation (e.g. unknown function).
    Platform(Errno),
    /// The arrival stream produced an error in-band.
    Load(LoadError),
    /// The invocation was shed with backpressure.
    Shed {
        /// Function the shed invocation targeted.
        function: String,
    },
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Platform(errno) => write!(f, "platform error: {errno:?}"),
            GatewayError::Load(err) => write!(f, "load generator error: {err}"),
            GatewayError::Shed { function } => {
                write!(f, "invocation of {function} shed with backpressure")
            }
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<Errno> for GatewayError {
    fn from(errno: Errno) -> Self {
        GatewayError::Platform(errno)
    }
}

impl From<LoadError> for GatewayError {
    fn from(err: LoadError) -> Self {
        GatewayError::Load(err)
    }
}

/// What the gateway decided about one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// Answered from the result cache; its [`InvokeReply`] is already
    /// recorded.
    Cached,
    /// Admitted to the backend immediately.
    Admitted,
    /// Parked in the admission queue; admitted by a later completion.
    Queued,
    /// Shed with backpressure; no reply will be produced.
    Shed,
}

/// One answered invocation, as the client observes it.
#[derive(Debug, Clone)]
pub struct InvokeReply {
    /// Function invoked.
    pub function: String,
    /// Arrival instant at the gateway.
    pub arrived: SimInstant,
    /// Instant service began (a cached reply serves at arrival).
    pub dispatched: SimInstant,
    /// Instant the last chunk landed.
    pub completed: SimInstant,
    /// Whether the backend paid a cold start (always `false` for cached
    /// replies).
    pub cold: bool,
    /// Whether the reply came from the result cache.
    pub cached: bool,
    /// Response body.
    pub body: Bytes,
    /// The streamed chunk timeline (last chunk at `completed`).
    pub chunks: Vec<Chunk>,
}

impl InvokeReply {
    /// Arrival → first chunk, in milliseconds.
    pub fn ttfc_ms(&self) -> f64 {
        let first = self.chunks.first().map_or(self.completed, |c| c.at);
        (first - self.arrived).as_millis_f64()
    }

    /// Arrival → last chunk, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.completed - self.arrived).as_millis_f64()
    }
}

/// Everything an open-loop drive produced.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Replies in completion order (cached replies at their edge-serve
    /// instant).
    pub replies: Vec<InvokeReply>,
    /// Final admission accounting.
    pub admission: AdmissionStats,
}

/// An arrival parked in the admission queue.
#[derive(Debug, Clone)]
struct Parked {
    arrived: SimInstant,
    function: String,
    req: Request,
}

/// Bookkeeping for an invocation submitted to the platform.
#[derive(Debug, Clone)]
struct Inflight {
    arrived: SimInstant,
    cache_key: Option<String>,
}

/// The streaming frontend over one [`Platform`].
pub struct Gateway {
    platform: Platform,
    config: GatewayConfig,
    admission: AdmissionController<Parked>,
    cache: ResultCache<Bytes>,
    metrics: GatewayMetrics,
    inflight: BTreeMap<u64, Inflight>,
    replies: Vec<InvokeReply>,
    seen: usize,
}

impl Gateway {
    /// Fronts `platform` with a gateway. The standalone gateway counts
    /// as one worker for the per-worker admission caps.
    pub fn new(platform: Platform, config: GatewayConfig) -> Gateway {
        let admission =
            AdmissionController::new(config.inflight_per_worker, config.queue_per_worker);
        let cache = ResultCache::new(config.cache.clone());
        Gateway {
            platform,
            config,
            admission,
            cache,
            metrics: GatewayMetrics::default(),
            inflight: BTreeMap::new(),
            replies: Vec::new(),
            seen: 0,
        }
    }

    /// Current virtual time (the fronted platform's clock).
    pub fn now(&self) -> SimInstant {
        self.platform.now()
    }

    /// The fronted platform (e.g. for registry inspection).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Gateway metrics accumulated so far.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// The conservation identity over everything offered so far:
    /// `arrivals == cached + admitted + shed + queued`.
    pub fn conserved(&self) -> bool {
        let m = &self.metrics;
        self.admission.conserved()
            && m.arrivals.get()
                == m.cache_hits.get()
                    + m.admitted.get()
                    + m.shed()
                    + self.admission.queue_depth() as u64
    }

    /// Deploys `function` on the fronted platform.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Platform`] if the function image is unknown.
    pub fn deploy(&mut self, function: &str) -> Result<(), GatewayError> {
        self.platform.deploy_function(function).map_err(Into::into)
    }

    /// Offers one arrival at `at` (≥ now). Pumps the platform up to the
    /// arrival instant first, so completions that free admission slots
    /// before `at` have already been harvested.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Platform`] if the function is not deployed. A
    /// shed arrival is an [`ArrivalOutcome::Shed`], not an error.
    pub fn arrive(
        &mut self,
        at: SimInstant,
        function: &str,
        req: Request,
    ) -> Result<ArrivalOutcome, GatewayError> {
        self.pump_until(at)?;
        let at = at.max(self.platform.now());
        self.metrics.arrivals.inc();
        self.metrics
            .queue_depth
            .observe(self.admission.queue_depth() as f64);

        let cache_key = self
            .cache
            .ttl_for(function)
            .map(|_| cache_key(function, &req));
        if let Some(key) = &cache_key {
            match self.cache.lookup(key, function, at) {
                CacheLookup::Hit { value, .. } => {
                    self.metrics.cache_hits.inc();
                    self.serve_cached(at, function, value);
                    return Ok(ArrivalOutcome::Cached);
                }
                CacheLookup::Stale { .. } => self.metrics.cache_stale.inc(),
                CacheLookup::Miss => self.metrics.cache_misses.inc(),
                CacheLookup::Bypass => {}
            }
        }

        let parked = Parked {
            arrived: at,
            function: function.to_owned(),
            req,
        };
        match self.admission.offer(parked) {
            AdmissionOutcome::Admitted(p) => {
                self.metrics.admitted.inc();
                self.submit(at, p, cache_key)?;
                Ok(ArrivalOutcome::Admitted)
            }
            AdmissionOutcome::Queued { .. } => Ok(ArrivalOutcome::Queued),
            AdmissionOutcome::Shed(_) => {
                self.metrics.shed_backpressure.inc();
                Ok(ArrivalOutcome::Shed)
            }
        }
    }

    /// Runs the platform until every submitted invocation has completed
    /// and the admission queue has drained, harvesting replies. Pending
    /// housekeeping events (idle GC sweeps) are left in the queue — the
    /// clock stops just past the last gateway completion, so caches stay
    /// live and replicas stay warm for the next arrival.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn drain(&mut self) -> Result<(), GatewayError> {
        let tick = SimDuration::from_nanos(1);
        while !self.inflight.is_empty() || self.admission.queue_depth() > 0 {
            let Some(t) = self.platform.next_event_time() else {
                break;
            };
            self.platform
                .run_until(t + tick)
                .map_err(GatewayError::Platform)?;
            self.harvest()?;
        }
        Ok(())
    }

    /// Replies recorded so far, in completion order.
    pub fn replies(&self) -> &[InvokeReply] {
        &self.replies
    }

    /// Takes the recorded replies, leaving the log empty.
    pub fn take_replies(&mut self) -> Vec<InvokeReply> {
        std::mem::take(&mut self.replies)
    }

    /// Drains everything and packages the run.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn finish(&mut self) -> Result<DriveReport, GatewayError> {
        self.drain()?;
        Ok(DriveReport {
            replies: self.take_replies(),
            admission: *self.admission.stats(),
        })
    }

    /// Processes platform events strictly before `bound`, batch by
    /// batch, harvesting completions after each batch so queue
    /// promotions are submitted at (one tick after) the completion that
    /// freed the slot.
    fn pump_until(&mut self, bound: SimInstant) -> Result<(), GatewayError> {
        let tick = SimDuration::from_nanos(1);
        while let Some(t) = self.platform.next_event_time() {
            if t >= bound {
                break;
            }
            self.platform
                .run_until(t + tick)
                .map_err(GatewayError::Platform)?;
            self.harvest()?;
        }
        self.platform
            .run_until(bound)
            .map_err(GatewayError::Platform)?;
        self.harvest()?;
        Ok(())
    }

    /// Turns newly completed platform requests into replies; returns how
    /// many were harvested.
    fn harvest(&mut self) -> Result<usize, GatewayError> {
        // Snapshot: finishing a completion can submit a promoted arrival,
        // which appends to `platform.completed()` only via later events.
        let fresh: Vec<CompletedRequest> = self.platform.completed()[self.seen..].to_vec();
        self.seen += fresh.len();
        for rec in &fresh {
            self.finish_one(rec)?;
        }
        Ok(fresh.len())
    }

    fn finish_one(&mut self, rec: &CompletedRequest) -> Result<(), GatewayError> {
        let Some(meta) = self.inflight.remove(&rec.id) else {
            // Not gateway-submitted (e.g. direct platform traffic).
            return Ok(());
        };
        let n = self.config.stream.chunks_for(rec.body.len() as u64);
        let chunks = plan(rec.dispatched, rec.completed, rec.body.len() as u64, n);
        self.metrics.chunks.add(n as u64);
        let reply = InvokeReply {
            function: rec.function.clone(),
            arrived: meta.arrived,
            dispatched: rec.dispatched,
            completed: rec.completed,
            cold: rec.cold,
            cached: false,
            body: rec.body.clone(),
            chunks,
        };
        self.metrics
            .observe_ttfc(PLATFORM_GEAR, reply.ttfc_ms(), rec.cold);
        if let Some(key) = &meta.cache_key {
            match self
                .cache
                .insert(key, &rec.function, rec.body.clone(), rec.completed)
            {
                CacheInsert::Stored { evicted } => {
                    self.metrics.cache_insertions.inc();
                    if evicted {
                        self.metrics.cache_evictions.inc();
                    }
                }
                CacheInsert::Bypass => {}
            }
        }
        self.replies.push(reply);

        if let Some(promoted) = self.admission.release() {
            self.metrics.admitted.inc();
            self.metrics.deferred.inc();
            let key = self
                .cache
                .ttl_for(&promoted.function)
                .map(|_| cache_key(&promoted.function, &promoted.req));
            self.submit(rec.completed, promoted, key)?;
        }
        Ok(())
    }

    fn submit(
        &mut self,
        at: SimInstant,
        parked: Parked,
        cache_key: Option<String>,
    ) -> Result<(), GatewayError> {
        let id = self
            .platform
            .submit(at, &parked.function, parked.req)
            .map_err(GatewayError::Platform)?;
        self.inflight.insert(
            id,
            Inflight {
                arrived: parked.arrived,
                cache_key,
            },
        );
        Ok(())
    }

    fn serve_cached(&mut self, at: SimInstant, function: &str, body: Bytes) {
        let serve = SimDuration::from_millis_f64(self.config.cache.serve_ms.max(0.0));
        let completed = at + serve;
        let n = self.config.stream.chunks_for(body.len() as u64);
        let chunks = plan(at, completed, body.len() as u64, n);
        self.metrics.chunks.add(n as u64);
        self.metrics
            .observe_cached((completed - at).as_millis_f64());
        self.replies.push(InvokeReply {
            function: function.to_owned(),
            arrived: at,
            dispatched: at,
            completed,
            cold: false,
            cached: true,
            body,
            chunks,
        });
    }
}

/// Cache key: function name plus an FNV-1a hash of path and body —
/// deterministic, allocation-light, and collision-safe enough for a
/// simulator's cache (same function + same request bytes ⇒ same key).
fn cache_key(function: &str, req: &Request) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in req.path.bytes().chain(req.body.iter().copied()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    }
    format!("{function}\u{1}{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_separates_functions_and_bodies() {
        let a = cache_key("f", &Request::empty());
        let b = cache_key("g", &Request::empty());
        let c = cache_key(
            "f",
            &Request {
                path: "/".to_owned(),
                body: Bytes::from_static(b"x"),
            },
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cache_key("f", &Request::empty()), "deterministic");
    }
}
