//! # prebake-platform
//!
//! A FaaS platform substrate in the shape the paper assumes: the SPEC-RG
//! reference architecture (§2) plus the OpenFaaS integration surface
//! (§5).
//!
//! - [`registry`] — the Function Registry holding pushable container
//!   images (with snapshots baked in for CRIU templates)
//! - [`builder`] — the Function Builder and the Templates Repository
//!   (`java11`, `java11-criu`, `java11-criu-warm1` and the restore-gear
//!   variants)
//! - [`platform`] — router, deployer, per-container machines, the
//!   busy-replica scale-out rule, idle GC (scale-to-zero), warm-pool
//!   floors, one worker node with a cold-start concurrency cap,
//!   and watchdog-style crash recovery (a dead replica is replaced and
//!   its request retried)
//! - [`loadgen`] — the paper's hold-first-request constant-rate
//!   generator, plus Poisson, burst and heavy-tailed (Pareto) patterns,
//!   materialized as [`loadgen::Schedule`]
//! - [`metrics`] — Prometheus-style gateway metrics
//! - [`openfaas`] — `faas-cli new/build/push/deploy`, the gateway and the
//!   privileged-restore requirement
//!
//! ## Example: the paper's §5 feasibility flow
//!
//! ```
//! use prebake_platform::openfaas::{FaasGateway, ProviderConfig};
//! use prebake_platform::platform::PlatformConfig;
//! use prebake_functions::FunctionSpec;
//! use prebake_runtime::http::Request;
//!
//! let mut gw = FaasGateway::new(PlatformConfig::default(), ProviderConfig::default());
//! let project = gw.new_project(FunctionSpec::noop(), "java11-criu-warm1").unwrap();
//! let image = gw.build(&project).unwrap();   // boots + warms + checkpoints
//! gw.push(image);                            // snapshot ships in the image
//! gw.deploy("noop").unwrap();                // privileged restore allowed
//! let cold_ms = gw.invoke_and_wait("noop", Request::empty()).unwrap();
//! assert!(cold_ms < 90.0, "prebaked cold start: {cold_ms}ms");
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod loadgen;
pub mod metrics;
pub mod openfaas;
pub mod platform;
pub mod registry;

pub use builder::{FunctionBuilder, Template};
pub use loadgen::{
    Arrival, ArrivalGen, LoadError, LoadResult, MergedArrivals, PoissonProcess, Schedule,
};
pub use platform::{CompletedRequest, Platform, PlatformConfig};
pub use registry::Registry;
