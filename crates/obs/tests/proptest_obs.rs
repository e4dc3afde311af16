//! Property tests for the windowed recorder's ring: rollover against a
//! reference model, conservation of accepted counts, and ordering
//! invariants under arbitrary (non-monotone) write sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use prebake_obs::{Recorder, RecorderConfig, SeriesKey};
use prebake_sim::time::{SimDuration, SimInstant};

/// Reference model of the ring: a sparse map of materialized windows
/// plus the same eviction/late-drop rules, written independently of the
/// VecDeque implementation.
#[derive(Default)]
struct Model {
    windows: BTreeMap<u64, u64>,
    rolled: u64,
    late_drops: u64,
    capacity: usize,
}

impl Model {
    // The contains/insert split deliberately mirrors the ring's
    // insert-then-evict order (the inserted window may evict itself);
    // the entry API would obscure that.
    #[allow(clippy::map_entry)]
    fn inc(&mut self, idx: u64, n: u64) {
        if let Some((&front, _)) = self.windows.first_key_value() {
            if idx < front && self.rolled > 0 {
                self.late_drops += 1;
                return;
            }
        }
        if !self.windows.contains_key(&idx) {
            self.windows.insert(idx, 0);
            while self.windows.len() > self.capacity {
                self.windows.pop_first();
                self.rolled += 1;
            }
        }
        match self.windows.get_mut(&idx) {
            Some(c) => *c += n,
            None => self.late_drops += 1, // inserted window was itself evicted
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ring agrees with the reference model write for write:
    /// retained windows, per-window totals, rollover and late-drop
    /// counters.
    #[test]
    fn ring_rollover_matches_reference_model(
        capacity in 1usize..6,
        width_s in 1u64..8,
        writes in proptest::collection::vec((0u64..400, 1u64..10), 1..80),
    ) {
        let width = SimDuration::from_secs(width_s);
        let mut rec = Recorder::new(RecorderConfig {
            width,
            capacity,
            bounds: vec![10.0, 100.0],
        });
        let mut model = Model { capacity, ..Model::default() };
        for &(offset_s, n) in &writes {
            let at = SimInstant::EPOCH + SimDuration::from_secs(offset_s);
            model.inc(offset_s / width_s, n);
            rec.inc(at, SeriesKey::new("events_total").tenant("t"), n);
        }
        let got: BTreeMap<u64, u64> = rec
            .windows()
            .map(|w| (w.index, w.counter_metric("events_total")))
            .collect();
        prop_assert_eq!(&got, &model.windows);
        prop_assert_eq!(rec.windows_rolled, model.rolled);
        prop_assert_eq!(rec.late_drops, model.late_drops);
        // Conservation: retained + rolled-away + dropped accounts for
        // every write (rolled windows lose their counts, but the
        // retained total never exceeds the grand total).
        let retained: u64 = got.values().sum();
        let written: u64 = writes.iter().map(|&(_, n)| n).sum();
        prop_assert!(retained <= written);
        if model.rolled == 0 && model.late_drops == 0 {
            prop_assert_eq!(retained, written, "nothing rolled: all writes retained");
        }
    }

    /// Ring ordering invariants hold under any write sequence: window
    /// indexes strictly ascend, at most `capacity` windows are retained,
    /// and each window's start matches its index.
    #[test]
    fn ring_windows_stay_sorted_and_bounded(
        capacity in 1usize..5,
        width_s in 1u64..5,
        offsets in proptest::collection::vec(0u64..300, 1..60),
    ) {
        let width = SimDuration::from_secs(width_s);
        let mut rec = Recorder::new(RecorderConfig {
            width,
            capacity,
            bounds: vec![50.0],
        });
        for &offset_s in &offsets {
            let at = SimInstant::EPOCH + SimDuration::from_secs(offset_s);
            rec.observe_exemplar(at, SeriesKey::new("lat_ms"), offset_s as f64, None);
        }
        let indexes: Vec<u64> = rec.windows().map(|w| w.index).collect();
        prop_assert!(indexes.len() <= capacity);
        prop_assert!(indexes.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        for w in rec.windows() {
            prop_assert_eq!(
                w.start,
                SimInstant::EPOCH + SimDuration::from_secs(w.index * width_s)
            );
        }
        // Histogram observations respect the same ring: total count in
        // retained windows never exceeds the number of writes.
        let counted: u64 = rec
            .windows()
            .filter_map(|w| w.merged_histogram("lat_ms", None))
            .map(|h| h.count())
            .sum();
        prop_assert!(counted <= offsets.len() as u64);
    }
}
