//! # prebake
//!
//! A production-quality Rust reproduction of *"Prebaking Functions to
//! Warm the Serverless Cold Start"* (Silva, Fireman & Pereira,
//! Middleware '20, DOI 10.1145/3423211.3425682).
//!
//! The paper's **prebaking** technique replaces the fork-exec cold-start
//! path of serverless function replicas with the restoration of CRIU
//! process snapshots taken at build time — optionally *after warming the
//! function*, so class-loading and JIT state ride along. This workspace
//! rebuilds that system end to end over a deterministic OS substrate:
//!
//! | crate | role |
//! |---|---|
//! | [`prebake_sim`] | virtual-clock kernel: processes, pages, VMAs, simfs + page cache, ptrace, `/proc`, capabilities |
//! | [`prebake_runtime`] | "JLVM" managed runtime: real class-file parsing/verification, lazy JIT, in-guest state |
//! | [`prebake_criu`] | checkpoint/restore: parasite dump pipeline, image format, privileged restore, image cache |
//! | [`prebake_lazy`] | lazy restore: working-set recording into `ws.img` over the demand-paging kernel |
//! | [`prebake_functions`] | the paper's workloads: NOOP, Markdown renderer, Image Resizer, synthetic class sets |
//! | [`prebake_core`] | the contribution: snapshot policies, vanilla vs prebake starters, phase measurement, trial harness |
//! | [`prebake_platform`] | SPEC-RG / OpenFaaS platform: function registry, builder templates, autoscaler, gateway, load generation |
//! | [`prebake_registry`] | snapshot registry tier: content-addressed manifests, network-charged pulls, per-node pull-through caches |
//! | [`prebake_obs`] | fleet telemetry: windowed time-series recorder, SLO burn engine, tail-sampled tracing with exemplars |
//! | [`prebake_stats`] | bootstrap CIs, Shapiro–Wilk, Wilcoxon–Mann–Whitney, ECDFs |
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! substitution statement and experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure.
//!
//! ## Quick taste
//!
//! ```
//! use prebake_core::measure::{StartMode, TrialRunner};
//! use prebake_functions::FunctionSpec;
//!
//! // The paper's Fig. 3 comparison for the Markdown function, 3 reps.
//! let vanilla = TrialRunner::new(FunctionSpec::markdown(), StartMode::Vanilla).unwrap();
//! let prebake = TrialRunner::new(FunctionSpec::markdown(), StartMode::PrebakeNoWarmup).unwrap();
//! let v = vanilla.startup_trial(0).unwrap().startup_ms;
//! let p = prebake.startup_trial(0).unwrap().startup_ms;
//! assert!(p < 0.7 * v, "prebaking removes the ~70ms runtime bootstrap");
//! ```

#![warn(missing_docs)]

pub use prebake_core as core;
pub use prebake_criu as criu;
pub use prebake_functions as functions;
pub use prebake_lazy as lazy;
pub use prebake_platform as platform;
// Re-exported under its full name so the *snapshot* registry
// (image-byte distribution, `prebake_registry::SnapshotRegistry`) can
// never be confused with the platform's *function* registry
// (build metadata, `prebake_platform::registry::Registry`).
pub use prebake_registry;
// Full name for the same reason: `obs` the telemetry stack, not an
// abbreviation that could collide with a future module.
pub use prebake_obs;
pub use prebake_runtime as runtime;
pub use prebake_sim as sim;
pub use prebake_stats as stats;
