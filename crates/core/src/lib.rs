//! # prebake-core
//!
//! The paper's contribution: **prebaking** — starting serverless function
//! replicas by restoring CRIU snapshots of previously started processes
//! instead of the fork-exec + bootstrap path.
//!
//! - [`prebaker`] — build-time snapshot generation with the paper's two
//!   policies: [`SnapshotPolicy::AfterReady`] (PB-NoWarmup) and
//!   [`SnapshotPolicy::AfterWarmup`] (PB-Warmup, which captures class
//!   loading and JIT state)
//! - [`starter`] — [`starter::VanillaStarter`] (fork-exec) vs [`starter::PrebakeStarter`]
//!   (restore) behind one trait
//! - [`phases`] — the Figure-4 CLONE/EXEC/RTS/APPINIT decomposition from
//!   kernel probe traces
//! - [`measure`] — the repeated-trial harness behind every figure and
//!   table (fresh machine per repetition, snapshot baked once)
//! - [`mod@env`] — machine provisioning and container-image modelling
//!
//! ## Example: the paper's headline comparison
//!
//! ```
//! use prebake_core::measure::{StartMode, TrialRunner};
//! use prebake_functions::FunctionSpec;
//!
//! let vanilla = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
//! let prebake = TrialRunner::new(FunctionSpec::noop(), StartMode::PrebakeNoWarmup).unwrap();
//!
//! let v = vanilla.startup_trial(1).unwrap().startup_ms;
//! let p = prebake.startup_trial(1).unwrap().startup_ms;
//! assert!(p < v, "prebaking must beat the vanilla cold start");
//! ```

#![warn(missing_docs)]

pub mod env;
pub mod measure;
pub mod phases;
pub mod prebaker;
pub mod starter;

pub use phases::{phases_from_span_tree, Phases};
pub use prebaker::{bake, SnapshotPolicy};
