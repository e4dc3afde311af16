//! Asynchronous streaming gateway over the virtual clock.
//!
//! The crate the platform was missing between the load generator and
//! the scheduler: a request *frontend*. Four pieces, each reusable on
//! its own:
//!
//! - [`admission`] — bounded concurrent-inflight admission with a FIFO
//!   overflow queue and typed backpressure outcomes, conservation-
//!   checked (`offered == admitted + shed + queued` at every instant).
//! - [`cache`] — a deterministic TTL result cache for idempotent
//!   invocations: hits serve at the edge in well under 10ms of virtual
//!   time, with hit/miss/stale classification.
//! - [`stream`] — chunked response delivery across the service window,
//!   making *time to first chunk* a first-class latency distinct from
//!   completion (where the lazy/prefetch restore gears' early first
//!   response becomes visible platform-wide).
//! - [`sdk`] — a typed client ([`GatewayClient`]) for single blocking
//!   invocations.
//!
//! [`Gateway`] composes the first three over one
//! [`Platform`](prebake_platform::Platform); the fleet scheduler embeds
//! the same [`AdmissionController`]/[`ResultCache`]/[`stream`] pieces
//! per shard as its arrival frontier (see `prebake-fleet`). Everything
//! runs on virtual time with no wall-clock or hash-order dependence, so
//! a seeded run is bit-reproducible.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod gateway;
pub mod metrics;
pub mod sdk;
pub mod stream;

pub use admission::{AdmissionController, AdmissionOutcome, AdmissionStats};
pub use cache::{CacheConfig, CacheInsert, CacheLookup, ResultCache, CACHED_SERVE};
pub use gateway::{ArrivalOutcome, DriveReport, Gateway, GatewayConfig, GatewayError, InvokeReply};
pub use metrics::GatewayMetrics;
pub use sdk::GatewayClient;
pub use stream::{first_chunk_at, Chunk, StreamConfig};
