//! Bounded admission control for the gateway frontend.
//!
//! Production gateways hold a fixed number of invocations in flight and
//! park the overflow in a bounded queue; everything past the queue is
//! shed with backpressure. The controller here is the deterministic core
//! of that policy: a pure state machine over abstract payloads, so the
//! fleet scheduler and the standalone [`Gateway`] reuse the same
//! conservation-checked accounting.
//!
//! The invariant the proptests pin down: at every instant,
//! `offered == admitted + shed + queued` — no arrival is ever lost or
//! double-counted, whatever the interleaving of offers, releases and
//! downstream aborts.
//!
//! [`Gateway`]: crate::Gateway

use std::collections::VecDeque;

/// What the controller decided about one offered arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionOutcome<T> {
    /// An in-flight slot was free: the arrival proceeds immediately.
    /// The payload is handed back so admission never has to clone it.
    Admitted(T),
    /// Every slot is busy; the arrival parked in the bounded queue and
    /// will be admitted by a future [`AdmissionController::release`].
    /// `depth` is the queue depth including this arrival.
    Queued {
        /// Queue depth after parking, including this arrival.
        depth: usize,
    },
    /// Queue full: rejected with backpressure. The payload is returned
    /// so the caller can record or answer the shed request.
    Shed(T),
}

/// Cumulative admission accounting. `admitted`/`shed` move together
/// under [`AdmissionController::abort`] (a downstream refusal
/// reclassifies the admit as a shed), so the conservation identity
/// holds at every step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Arrivals offered to the controller.
    pub offered: u64,
    /// Arrivals admitted (immediately or after queueing), minus aborts.
    pub admitted: u64,
    /// Arrivals that waited in the queue before admission (cumulative).
    pub deferred: u64,
    /// Arrivals rejected: queue-full backpressure plus downstream aborts.
    pub shed: u64,
    /// Most invocations ever in flight at once.
    pub peak_inflight: usize,
    /// Deepest the queue ever got.
    pub peak_queue: usize,
}

impl AdmissionStats {
    /// Sums another stats block into this one (the shard-fold path).
    /// Peaks take the max — a per-cell high-water mark, not a sum.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.deferred += other.deferred;
        self.shed += other.shed;
        self.peak_inflight = self.peak_inflight.max(other.peak_inflight);
        self.peak_queue = self.peak_queue.max(other.peak_queue);
    }
}

/// The bounded-concurrency admission controller: at most `max_inflight`
/// payloads admitted-but-unreleased at once, at most `queue_cap` parked
/// behind them, everything else shed.
#[derive(Debug, Clone)]
pub struct AdmissionController<T> {
    max_inflight: usize,
    queue_cap: usize,
    inflight: usize,
    queue: VecDeque<T>,
    stats: AdmissionStats,
}

impl<T> AdmissionController<T> {
    /// Creates a controller. `max_inflight` is clamped to at least 1
    /// (a gateway that can never admit anything is a misconfiguration,
    /// not a model).
    pub fn new(max_inflight: usize, queue_cap: usize) -> AdmissionController<T> {
        AdmissionController {
            max_inflight: max_inflight.max(1),
            queue_cap,
            inflight: 0,
            queue: VecDeque::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// Offers one arrival: admit if a slot is free, queue if the queue
    /// has room, shed otherwise.
    pub fn offer(&mut self, item: T) -> AdmissionOutcome<T> {
        self.stats.offered += 1;
        if self.inflight < self.max_inflight {
            self.inflight += 1;
            self.stats.admitted += 1;
            self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight);
            return AdmissionOutcome::Admitted(item);
        }
        if self.queue.len() < self.queue_cap {
            self.queue.push_back(item);
            self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
            return AdmissionOutcome::Queued {
                depth: self.queue.len(),
            };
        }
        self.stats.shed += 1;
        AdmissionOutcome::Shed(item)
    }

    /// Releases one in-flight slot (an invocation completed). If the
    /// queue is non-empty its head is admitted into the freed slot and
    /// returned; the caller must start serving it.
    pub fn release(&mut self) -> Option<T> {
        self.inflight = self.inflight.saturating_sub(1);
        self.promote()
    }

    /// Admits the queue head into a free slot without releasing anything
    /// — the retry path after [`AdmissionController::abort`] frees the
    /// slot a refused promotion held. Returns `None` when every slot is
    /// busy or the queue is empty.
    pub fn promote(&mut self) -> Option<T> {
        if self.inflight >= self.max_inflight {
            return None;
        }
        let next = self.queue.pop_front()?;
        self.inflight += 1;
        self.stats.admitted += 1;
        self.stats.deferred += 1;
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight);
        Some(next)
    }

    /// Reclassifies the most recent admit as a shed: the backend refused
    /// the admitted arrival (e.g. a downstream queue cap), so its slot
    /// frees immediately and the conservation ledger moves the arrival
    /// from `admitted` to `shed`.
    pub fn abort(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
        self.stats.admitted = self.stats.admitted.saturating_sub(1);
        self.stats.shed += 1;
    }

    /// Arrivals currently parked in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> &AdmissionStats {
        &self.stats
    }

    /// The conservation identity: every offered arrival is admitted,
    /// shed, or still queued. Holds at every step by construction; the
    /// proptests drive arbitrary schedules through it to prove that.
    pub fn conserved(&self) -> bool {
        self.stats.offered == self.stats.admitted + self.stats.shed + self.queue.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity_then_queues_then_sheds() {
        let mut ac: AdmissionController<u32> = AdmissionController::new(2, 1);
        assert!(matches!(ac.offer(1), AdmissionOutcome::Admitted(1)));
        assert!(matches!(ac.offer(2), AdmissionOutcome::Admitted(2)));
        assert!(matches!(ac.offer(3), AdmissionOutcome::Queued { depth: 1 }));
        assert!(matches!(ac.offer(4), AdmissionOutcome::Shed(4)));
        assert_eq!(ac.inflight, 2);
        assert_eq!(ac.queue_depth(), 1);
        assert!(ac.conserved());
    }

    #[test]
    fn release_promotes_the_queue_head() {
        let mut ac: AdmissionController<u32> = AdmissionController::new(1, 4);
        ac.offer(1);
        ac.offer(2);
        ac.offer(3);
        assert_eq!(ac.release(), Some(2), "FIFO promotion");
        assert_eq!(ac.inflight, 1);
        assert_eq!(ac.release(), Some(3));
        assert_eq!(ac.release(), None, "queue drained");
        assert_eq!(ac.inflight, 0);
        let s = ac.stats();
        assert_eq!((s.offered, s.admitted, s.deferred, s.shed), (3, 3, 2, 0));
        assert!(ac.conserved());
    }

    #[test]
    fn abort_reclassifies_an_admit_as_shed() {
        let mut ac: AdmissionController<u32> = AdmissionController::new(1, 0);
        assert!(matches!(ac.offer(1), AdmissionOutcome::Admitted(1)));
        ac.abort();
        assert_eq!(ac.inflight, 0);
        assert_eq!(ac.stats().admitted, 0);
        assert_eq!(ac.stats().shed, 1);
        assert!(ac.conserved());
        // The freed slot admits the next offer.
        assert!(matches!(ac.offer(2), AdmissionOutcome::Admitted(2)));
    }

    #[test]
    fn zero_inflight_clamps_to_one() {
        let mut ac: AdmissionController<u32> = AdmissionController::new(0, 0);
        assert!(matches!(ac.offer(1), AdmissionOutcome::Admitted(1)));
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_peaks() {
        let mut a = AdmissionStats {
            offered: 5,
            admitted: 3,
            deferred: 1,
            shed: 1,
            peak_inflight: 2,
            peak_queue: 4,
        };
        let b = AdmissionStats {
            offered: 2,
            admitted: 2,
            deferred: 0,
            shed: 0,
            peak_inflight: 3,
            peak_queue: 1,
        };
        a.merge(&b);
        assert_eq!(a.offered, 7);
        assert_eq!(a.admitted, 5);
        assert_eq!(a.peak_inflight, 3);
        assert_eq!(a.peak_queue, 4);
    }
}
