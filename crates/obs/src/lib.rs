//! # prebake-obs — fleet-scale telemetry
//!
//! The paper's argument is a latency distribution; at fleet scale the
//! interesting questions are *when* the distribution's tail spiked,
//! *which tenant* burned the latency budget, and *which trace* shows
//! why. This crate answers all three deterministically over the
//! virtual clock:
//!
//! - [`recorder`] — a windowed time-series ring: fixed-width windows of
//!   per-(metric, tenant, node, gear) counters and streaming histograms
//!   (reusing `platform::metrics::Histogram`), with per-bucket exemplar
//!   links to retained traces.
//! - [`slo`] — declarative objectives ("cold-start p99 < 250ms over 60s
//!   windows", "cold fraction < 10%") evaluated as SRE-style error-budget
//!   burn rates with multi-window burn alerts and per-tenant worst-offender
//!   attribution, emitted as typed [`SloEvent`]s.
//! - [`sampler`] — tail-based span sampling: keep every SLO-breaching or
//!   erroring trace in full, keep the boring rest with a small seeded
//!   hash probability. Pure function of (seed, trace id) — bit-reproducible.
//! - [`export`] — a deterministic text dashboard and an
//!   exemplar-annotated Chrome-trace export, both golden-testable.
//! - [`stack`] — the [`ObsStack`] bundle a simulator embeds.
//!
//! Everything is `BTreeMap`-ordered and fixed-precision formatted, so a
//! given event sequence renders byte-identically on every run — the same
//! determinism discipline the rest of the workspace builds on.

pub mod export;
pub mod recorder;
pub mod sampler;
pub mod slo;
pub mod stack;

pub use export::{chrome_trace_with_exemplars, dashboard, DashboardSpec};
pub use recorder::{Exemplar, Recorder, RecorderConfig, SeriesId, SeriesKey, WindowView};
pub use sampler::{SampleStats, SamplerConfig};
pub use slo::{Objective, ObjectiveStatus, SloEvent, SloEventKind, SloReport, WindowBurn};
pub use stack::{ObsConfig, ObsStack};

/// Default latency bucket bounds (ms), matching the fleet scheduler's
/// `LATENCY_BOUNDS_MS` so windowed series merge with fleet aggregates.
pub(crate) const DEFAULT_LATENCY_BOUNDS_MS: [f64; 12] = [
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0,
];
