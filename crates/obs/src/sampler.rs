//! Deterministic tail-based span sampling.
//!
//! At fleet scale the tracer would retain a span tree per invocation —
//! hundreds of thousands of spans per run. Tail-based sampling decides
//! *after* a request completes (when its outcome is known): trees that
//! breached an SLO threshold or errored are always kept in full; the
//! rest are kept with a small seeded probability. The keep decision
//! hashes (seed, trace id) — no RNG state — so a given workload keeps
//! exactly the same trace ids on every run, machine-independently.

/// Sampler shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Probability of keeping an uninteresting trace, in `[0, 1]`.
    pub keep_fraction: f64,
    /// Hash seed; different seeds keep different (but each
    /// deterministic) subsets.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            keep_fraction: 0.02,
            seed: 1,
        }
    }
}

/// The tail sampler. Stateless: every decision is a pure function of
/// (config, trace id, interesting-flag).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailSampler {
    config: SamplerConfig,
}

impl TailSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `[0, 1]`.
    pub(crate) fn new(config: SamplerConfig) -> TailSampler {
        assert!(
            (0.0..=1.0).contains(&config.keep_fraction),
            "keep_fraction in [0,1]"
        );
        TailSampler { config }
    }

    /// Uniform-ish hash of a trace id into `[0, 1)` (seeded FNV-1a).
    pub(crate) fn hash01(&self, trace_id: u64) -> f64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self
            .config
            .seed
            .to_le_bytes()
            .into_iter()
            .chain(trace_id.to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Top 53 bits -> exactly representable f64 in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The tail decision: interesting traces are always kept, the rest
    /// kept iff their hash lands under `keep_fraction`.
    pub(crate) fn keep(&self, trace_id: u64, interesting: bool) -> bool {
        interesting || self.hash01(trace_id) < self.config.keep_fraction
    }
}

/// Tail-sampling bookkeeping: trees and spans kept or dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Root trees kept.
    pub trees_kept: u64,
    /// Root trees dropped.
    pub trees_dropped: u64,
    /// Spans retained (all spans of kept trees).
    pub spans_kept: u64,
    /// Spans discarded with their dropped trees.
    pub spans_dropped: u64,
    /// Trees kept because the predicate marked them interesting.
    pub interesting_kept: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_roughly_uniform() {
        let s = TailSampler::new(SamplerConfig {
            keep_fraction: 0.1,
            seed: 7,
        });
        let mut kept = 0usize;
        for id in 0..10_000u64 {
            assert_eq!(s.hash01(id), s.hash01(id));
            let h = s.hash01(id);
            assert!((0.0..1.0).contains(&h));
            if s.keep(id, false) {
                kept += 1;
            }
        }
        // 10% +- 1.5% over 10k ids.
        assert!((850..=1150).contains(&kept), "kept {kept}");
        // A different seed keeps a different subset.
        let other = TailSampler::new(SamplerConfig {
            keep_fraction: 0.1,
            seed: 8,
        });
        assert!((0..1000u64).any(|id| s.keep(id, false) != other.keep(id, false)));
    }

    #[test]
    fn interesting_always_kept_even_at_zero_fraction() {
        let s = TailSampler::new(SamplerConfig {
            keep_fraction: 0.0,
            seed: 1,
        });
        assert!(s.keep(42, true));
        assert!(!s.keep(42, false));
    }
}
