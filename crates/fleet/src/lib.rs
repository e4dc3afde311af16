//! Fleet scheduler: multi-worker placement, keep-alive policies, and
//! trace-driven workloads over the prebake simulator.
//!
//! Where the rest of the workspace measures how fast *one* replica can
//! start, this crate asks the control-plane question: across a fleet of
//! workers with finite memory, which keep-alive policy and which restore
//! gear minimise cold starts and tail latency for a multi-tenant
//! workload? The pieces:
//!
//! - [`profile`] — per-function start-cost profiles measured with the
//!   single-machine trial harness, one [`GearCost`] per restore [`Gear`].
//! - [`policy`] — the pluggable policy engine: [`KeepAlive`] (fixed TTL,
//!   LRU-under-pressure, histogram-adaptive with predictive pre-warm)
//!   crossed with [`StartSelection`] (fixed gear or adaptive).
//! - [`worker`] — one node's replica pool, memory budget with
//!   dedup-aware image-cache charging, node-local pull-through snapshot
//!   cache, and cold-start concurrency slots.
//! - [`sim`] — the deterministic event-driven scheduler itself:
//!   admission control, per-function queues, deficit scale-up,
//!   least-loaded placement, expiry sweeps, and span-traced invocations.
//! - [`metrics`] — Prometheus-format fleet counters and latency
//!   histograms.
//!
//! With a [`RegistryConfig`], snapshot images live behind a shared
//! `prebake_registry::SnapshotRegistry` instead of being node-local:
//! cold starts pull their image through the placed node's cache (frames
//! any resident image already holds ride free), placement can prefer
//! the node that would fetch the fewest bytes, and the pre-warm engine
//! pre-pulls images to predicted nodes.
//!
//! Workloads come from `prebake_platform::loadgen::Schedule`
//! (constant/Poisson/Pareto/burst arrivals). The
//! `ablation_fleet` bench sweeps policy × fleet size × memory budget on
//! the paper's Fig. 5 function mix; `ablation_registry` sweeps pull
//! modes × placement on a multi-node fleet.

#![warn(missing_docs)]

pub mod metrics;
pub mod policy;
pub mod profile;
pub mod sim;
pub mod worker;

pub use policy::{KeepAlive, Policy, StartSelection};
pub use prebake_gateway::{
    AdmissionStats, CacheConfig, GatewayConfig, GatewayMetrics, StreamConfig,
};
pub use profile::{FunctionProfile, Gear, GearCost};
pub use sim::{default_fleet_obs, FleetConfig, FleetError, FleetRequest, FleetSim, RegistryConfig};
