//! Chunked response streaming over virtual time.
//!
//! The platform's call-and-return API charges a response as one
//! completion instant; a streaming frontend delivers it as chunks
//! spread across the service window, which makes *time to first chunk*
//! (TTFC) a first-class latency distinct from completion. That is where
//! the lazy/prefetch gears' early-first-response advantage — visible in
//! the paper at the single-restore level — finally shows up at the
//! platform level: their first chunk leaves long before an eager
//! restore has even finished copying.
//!
//! The model is analytic, not evented: service is linearised across the
//! chunk count, so chunk `i` of `n` lands at
//! `dispatched + service * (i+1)/n`. Completion time is untouched and
//! no extra events are scheduled — a million-invocation run pays
//! arithmetic, not event-queue traffic, for its TTFC histograms.

use prebake_sim::time::{SimDuration, SimInstant};

/// Response-streaming configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Chunks a response is streamed as when the body size is unknown
    /// (the fleet's synthetic profiles). Clamped to at least 1.
    pub chunks: usize,
    /// Chunk size for real bodies (the standalone gateway): a body of
    /// `b` bytes streams as `ceil(b / chunk_bytes)` chunks.
    pub chunk_bytes: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunks: 8,
            chunk_bytes: 16 * 1024,
        }
    }
}

impl StreamConfig {
    /// Chunk count for a body of `bytes` (at least 1 — even an empty
    /// response sends one terminating chunk).
    pub(crate) fn chunks_for(&self, bytes: u64) -> usize {
        let per = self.chunk_bytes.max(1) as u64;
        (bytes.div_ceil(per)).max(1) as usize
    }
}

/// One streamed response chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Instant the chunk reaches the client.
    pub at: SimInstant,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// Instant the first of `n` chunks lands when service spans
/// `[dispatched, completed]`.
pub fn first_chunk_at(dispatched: SimInstant, completed: SimInstant, n: usize) -> SimInstant {
    let n = n.max(1) as u128;
    let span = completed.saturating_duration_since(dispatched).as_nanos() as u128;
    dispatched + SimDuration::from_nanos((span / n) as u64)
}

/// Lays a body of `total_bytes` out as `n` chunks across the service
/// window, even-sized with the remainder on the last chunk. The final
/// chunk always lands exactly at `completed`.
pub(crate) fn plan(
    dispatched: SimInstant,
    completed: SimInstant,
    total_bytes: u64,
    n: usize,
) -> Vec<Chunk> {
    let n = n.max(1);
    let span = completed.saturating_duration_since(dispatched).as_nanos() as u128;
    let per = total_bytes / n as u64;
    (0..n)
        .map(|i| Chunk {
            at: dispatched + SimDuration::from_nanos((span * (i as u128 + 1) / n as u128) as u64),
            bytes: if i + 1 == n {
                total_bytes - per * (n as u64 - 1)
            } else {
                per
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_split_service_and_bytes() {
        let d = SimInstant::EPOCH + SimDuration::from_millis(10);
        let c = d + SimDuration::from_millis(8);
        let chunks = plan(d, c, 100, 4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].at, d + SimDuration::from_millis(2));
        assert_eq!(chunks[3].at, c, "last chunk lands at completion");
        assert_eq!(chunks.iter().map(|ch| ch.bytes).sum::<u64>(), 100);
        assert_eq!(chunks[3].bytes, 25);
        assert_eq!(first_chunk_at(d, c, 4), chunks[0].at);
    }

    #[test]
    fn zero_chunks_clamps_to_one() {
        let d = SimInstant::EPOCH;
        let c = d + SimDuration::from_millis(5);
        let chunks = plan(d, c, 7, 0);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].at, c);
        assert_eq!(chunks[0].bytes, 7);
        assert_eq!(first_chunk_at(d, c, 0), c);
    }

    #[test]
    fn chunks_for_rounds_up_and_floors_at_one() {
        let sc = StreamConfig {
            chunks: 8,
            chunk_bytes: 1024,
        };
        assert_eq!(sc.chunks_for(0), 1);
        assert_eq!(sc.chunks_for(1024), 1);
        assert_eq!(sc.chunks_for(1025), 2);
        assert_eq!(sc.chunks_for(10 * 1024), 10);
    }

    #[test]
    fn first_chunk_beats_completion_for_multi_chunk_responses() {
        let d = SimInstant::EPOCH;
        let c = d + SimDuration::from_millis(80);
        assert!(first_chunk_at(d, c, 8) < c);
        assert_eq!(
            first_chunk_at(d, c, 8),
            d + SimDuration::from_millis(10),
            "1/8th of the window"
        );
    }
}
