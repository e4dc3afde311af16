//! [`ObsStack`]: the recorder + SLO engine + tail sampler bundle a
//! simulator embeds.
//!
//! The stack owns the recorder the sim feeds, knows the configured
//! objectives (so it can answer "does this latency breach any SLO?"
//! at span-emission time — the tail-sampling keep signal), and keeps
//! the sampling bookkeeping that the ablation asserts on.

use crate::export::{chrome_trace_with_exemplars, dashboard, DashboardSpec};
use crate::recorder::{Recorder, RecorderConfig};
use crate::sampler::{SampleStats, SamplerConfig, TailSampler};
use crate::slo::{Objective, Sli, SloEngine, SloReport};
use prebake_sim::trace::TraceSpan;

/// Everything needed to stand up an [`ObsStack`].
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Recorder shape (window width, ring capacity, default bounds).
    pub recorder: RecorderConfig,
    /// Declarative objectives the SLO engine evaluates.
    pub objectives: Vec<Objective>,
    /// Tail-sampling shape; `None` keeps every trace (keep-all mode).
    pub sampler: Option<SamplerConfig>,
}

/// The composed telemetry stack.
#[derive(Debug, Clone)]
pub struct ObsStack {
    /// The windowed recorder the host feeds.
    pub recorder: Recorder,
    engine: SloEngine,
    sampler: Option<TailSampler>,
    /// Tail-sampling bookkeeping (tree/span keep counts).
    pub sampling: SampleStats,
}

impl ObsStack {
    /// Builds the stack from its configuration.
    pub fn new(config: ObsConfig) -> ObsStack {
        ObsStack {
            recorder: Recorder::new(config.recorder),
            engine: SloEngine::new(config.objectives),
            sampler: config.sampler.map(TailSampler::new),
            sampling: SampleStats::default(),
        }
    }

    /// Whether `value_ms` on `metric` breaches any latency objective's
    /// threshold — the "interesting" signal for tail sampling.
    pub fn latency_breach(&self, metric: &str, value_ms: f64) -> bool {
        self.engine.objectives().iter().any(|o| match &o.sli {
            Sli::LatencyUnder {
                metric: m,
                threshold_ms,
            } => m == metric && value_ms > *threshold_ms,
            Sli::EventRatio { .. } => false,
        })
    }

    /// The tail decision for one completed trace tree of `tree_spans`
    /// spans. Always `true` (keep-all) without a sampler. Updates the
    /// sampling stats either way so reduction ratios are comparable.
    pub fn keep_trace(&mut self, trace_id: u64, interesting: bool, tree_spans: u64) -> bool {
        let keep = match &self.sampler {
            None => true,
            Some(s) => s.keep(trace_id, interesting),
        };
        if keep {
            self.sampling.trees_kept += 1;
            self.sampling.spans_kept += tree_spans;
            if interesting {
                self.sampling.interesting_kept += 1;
            }
        } else {
            self.sampling.trees_dropped += 1;
            self.sampling.spans_dropped += tree_spans;
        }
        keep
    }

    /// Folds another stack's recorder ring and sampling stats into this
    /// one — the multi-shard merge path. Objectives are taken from
    /// `self`; absorbing shard stacks in index order is deterministic.
    pub fn absorb(&mut self, other: &ObsStack) {
        self.recorder.absorb(&other.recorder);
        self.sampling.trees_kept += other.sampling.trees_kept;
        self.sampling.trees_dropped += other.sampling.trees_dropped;
        self.sampling.spans_kept += other.sampling.spans_kept;
        self.sampling.spans_dropped += other.sampling.spans_dropped;
        self.sampling.interesting_kept += other.sampling.interesting_kept;
    }

    /// Evaluates the objectives against the current ring.
    pub fn report(&self) -> SloReport {
        self.engine.evaluate(&self.recorder)
    }

    /// The deterministic text dashboard for the current ring.
    pub fn dashboard(&self, spec: &DashboardSpec) -> String {
        dashboard(&self.recorder, &self.report(), spec)
    }

    /// Chrome-trace JSON of `spans` with this stack's exemplars linked in.
    pub fn chrome_trace(&self, spans: &[TraceSpan]) -> String {
        chrome_trace_with_exemplars(spans, &self.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ObsConfig {
        ObsConfig {
            recorder: RecorderConfig::default(),
            objectives: vec![
                Objective::latency("lat", "fleet_latency_ms", 250.0, 0.9),
                Objective::ratio("cold", "cold_total", "req_total", 0.9),
            ],
            sampler: Some(SamplerConfig {
                keep_fraction: 0.0,
                seed: 1,
            }),
        }
    }

    #[test]
    fn latency_breach_matches_only_latency_objectives() {
        let stack = ObsStack::new(config());
        assert!(stack.latency_breach("fleet_latency_ms", 251.0));
        assert!(!stack.latency_breach("fleet_latency_ms", 250.0));
        assert!(!stack.latency_breach("other_ms", 9999.0));
        assert_eq!(stack.engine.objectives().len(), 2);
    }

    #[test]
    fn keep_trace_tracks_stats() {
        let mut stack = ObsStack::new(config());
        assert!(stack.keep_trace(1, true, 6));
        assert!(!stack.keep_trace(2, false, 4));
        assert_eq!(stack.sampling.trees_kept, 1);
        assert_eq!(stack.sampling.interesting_kept, 1);
        assert_eq!(stack.sampling.spans_kept, 6);
        assert_eq!(stack.sampling.spans_dropped, 4);

        // No sampler = keep-all.
        let mut keep_all = ObsStack::new(ObsConfig::default());
        assert!(keep_all.keep_trace(2, false, 4));
        assert_eq!(keep_all.sampling.trees_dropped, 0);
    }
}
