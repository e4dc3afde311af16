//! Windowed time-series recorder over the virtual clock.
//!
//! The fleet sim pushes hundreds of thousands of events through a run;
//! end-of-run scalar counters cannot say *when* a cold-start tail
//! spiked or which tenant caused it. The recorder slices virtual time
//! into fixed-width windows (a bounded ring) and keeps, per window,
//! counters and streaming histograms keyed by
//! (metric, tenant, node, gear). Everything is `BTreeMap`-backed so a
//! given event sequence renders byte-identically on every run.
//!
//! Series identities are **interned**: the recorder owns a `KeyTable`
//! mapping each distinct [`SeriesKey`] to a dense [`SeriesId`], and the
//! per-window maps are keyed by id. Hot paths intern a key once and feed
//! [`Recorder::inc_id`] / [`Recorder::observe_exemplar_id`] with no
//! per-event `String` clones; the key-based entry points remain as
//! intern-and-delegate conveniences. All rendered output is resolved
//! back to keys and sorted by key, so the exposition stays byte-stable
//! regardless of interning order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use prebake_platform::metrics::Histogram;
use prebake_sim::time::{SimDuration, SimInstant};

/// Identity of one time series: a metric name plus the label dimensions
/// the fleet cares about. Empty `tenant`/`gear` and `None` node mean the
/// label is absent (the series is an unsplit aggregate on that axis).
///
/// Ordering is derived — (metric, tenant, node, gear) — which fixes the
/// exposition and dashboard ordering deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name, e.g. `fleet_latency_ms` (see DESIGN.md §15 for the
    /// naming scheme).
    pub metric: String,
    /// Tenant / function name, or empty when unattributed.
    pub tenant: String,
    /// Worker/node index, when the event is node-local.
    pub node: Option<u32>,
    /// Start gear label (`vanilla`, `eager`, ...), or empty.
    pub gear: String,
}

impl SeriesKey {
    /// A key with only the metric name set.
    pub fn new(metric: &str) -> SeriesKey {
        SeriesKey {
            metric: metric.to_owned(),
            ..SeriesKey::default()
        }
    }

    /// Builder-style tenant label.
    pub fn tenant(mut self, tenant: &str) -> SeriesKey {
        self.tenant = tenant.to_owned();
        self
    }

    /// Builder-style node label.
    pub fn node(mut self, node: u32) -> SeriesKey {
        self.node = Some(node);
        self
    }

    /// Builder-style gear label.
    pub fn gear(mut self, gear: &str) -> SeriesKey {
        self.gear = gear.to_owned();
        self
    }

    /// Prometheus label pairs without braces (`tenant="a",node="0"`),
    /// empty when no label is set.
    pub(crate) fn labels(&self) -> String {
        let mut parts = Vec::new();
        if !self.tenant.is_empty() {
            parts.push(format!("tenant=\"{}\"", self.tenant));
        }
        if let Some(node) = self.node {
            parts.push(format!("node=\"{node}\""));
        }
        if !self.gear.is_empty() {
            parts.push(format!("gear=\"{}\"", self.gear));
        }
        parts.join(",")
    }
}

/// Dense handle for an interned [`SeriesKey`] — an index into the
/// recorder's `KeyTable`. Ids are assigned in first-intern order and
/// are only meaningful against the table that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(u32);

impl SeriesId {
    /// The id's table index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only intern table mapping [`SeriesKey`]s to dense
/// [`SeriesId`]s and back.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyTable {
    keys: Vec<SeriesKey>,
    ids: BTreeMap<SeriesKey, SeriesId>,
}

impl KeyTable {
    /// The id for `key`, interning it on first sight.
    pub(crate) fn intern(&mut self, key: &SeriesKey) -> SeriesId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = SeriesId(u32::try_from(self.keys.len()).expect("series cardinality fits u32"));
        self.keys.push(key.clone());
        self.ids.insert(key.clone(), id);
        id
    }

    /// The id for `key` if it has been interned.
    pub(crate) fn get(&self, key: &SeriesKey) -> Option<SeriesId> {
        self.ids.get(key).copied()
    }

    /// The key an id resolves to.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different table.
    pub(crate) fn resolve(&self, id: SeriesId) -> &SeriesKey {
        &self.keys[id.index()]
    }
}

/// A link from a histogram bucket to one retained trace: the classic
/// OpenMetrics exemplar, minus the wire format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Trace (request) id the observation came from.
    pub trace_id: u64,
    /// The observed value.
    pub value_ms: f64,
    /// When it was observed.
    pub at: SimInstant,
}

/// A histogram plus one optional exemplar per bucket (`+Inf` included).
/// The kept exemplar is the largest value seen in the bucket — the most
/// interesting trace to follow from a latency bucket — with first-seen
/// winning ties so replays are deterministic.
#[derive(Debug, Clone)]
pub(crate) struct WindowHistogram {
    /// The bucketed distribution for this window.
    pub hist: Histogram,
    /// Per-bucket exemplar slots, same length as `hist.bucket_counts()`.
    pub exemplars: Vec<Option<Exemplar>>,
}

impl WindowHistogram {
    fn new(hist: Histogram) -> WindowHistogram {
        let slots = hist.bucket_counts().len();
        WindowHistogram {
            hist,
            exemplars: vec![None; slots],
        }
    }

    fn observe(&mut self, value_ms: f64, at: SimInstant, trace_id: Option<u64>) {
        self.hist.observe(value_ms);
        if let Some(trace_id) = trace_id {
            let idx = self
                .hist
                .bounds()
                .iter()
                .position(|&b| value_ms <= b)
                .unwrap_or(self.hist.bounds().len());
            let slot = &mut self.exemplars[idx];
            let replace = match slot {
                None => true,
                Some(prev) => value_ms > prev.value_ms,
            };
            if replace {
                *slot = Some(Exemplar {
                    trace_id,
                    value_ms,
                    at,
                });
            }
        }
    }

    /// Folds another window-histogram in: bucket counts add, and each
    /// bucket keeps the larger exemplar (`self` wins ties, so absorbing
    /// shard outputs in shard order is deterministic).
    fn absorb(&mut self, other: &WindowHistogram) {
        self.hist.merge(&other.hist);
        for (slot, incoming) in self.exemplars.iter_mut().zip(&other.exemplars) {
            if let Some(ex) = incoming {
                let replace = match slot {
                    None => true,
                    Some(prev) => ex.value_ms > prev.value_ms,
                };
                if replace {
                    *slot = Some(*ex);
                }
            }
        }
    }
}

/// One fixed-width slice of virtual time. Series data is keyed by
/// [`SeriesId`]; read it through [`WindowView`], which carries the
/// resolving [`KeyTable`].
#[derive(Debug, Clone)]
pub(crate) struct Window {
    /// Window ordinal: `floor(t / width)`.
    pub index: u64,
    /// Inclusive window start (`index * width`).
    pub start: SimInstant,
    counters: BTreeMap<SeriesId, u64>,
    hists: BTreeMap<SeriesId, WindowHistogram>,
}

impl Window {
    fn new(index: u64, width: SimDuration) -> Window {
        Window {
            index,
            start: SimInstant::EPOCH + SimDuration::from_nanos(index * width.as_nanos()),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }
}

/// A window paired with the key table that resolves its series ids —
/// what [`Recorder::windows`] yields. Copyable and cheap; all lookups
/// resolve ids lazily and iterate in key order.
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    /// Window ordinal: `floor(t / width)`.
    pub index: u64,
    /// Inclusive window start (`index * width`).
    pub start: SimInstant,
    keys: &'a KeyTable,
    win: &'a Window,
}

impl<'a> WindowView<'a> {
    fn new(keys: &'a KeyTable, win: &'a Window) -> WindowView<'a> {
        WindowView {
            index: win.index,
            start: win.start,
            keys,
            win,
        }
    }

    /// One histogram series in this window, if it received observations.
    pub(crate) fn histogram(&self, key: &SeriesKey) -> Option<&'a WindowHistogram> {
        self.keys.get(key).and_then(|id| self.win.hists.get(&id))
    }

    /// All histogram series in this window, in key order.
    pub(crate) fn histograms(&self) -> Vec<(&'a SeriesKey, &'a WindowHistogram)> {
        let mut out: Vec<(&SeriesKey, &WindowHistogram)> = self
            .win
            .hists
            .iter()
            .map(|(&id, wh)| (self.keys.resolve(id), wh))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Sum of a counter metric over every label split in this window.
    pub fn counter_metric(&self, metric: &str) -> u64 {
        self.win
            .counters
            .iter()
            .filter(|(&id, _)| self.keys.resolve(id).metric == metric)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Sum of a counter metric restricted to one tenant in this window.
    pub(crate) fn counter_metric_tenant(&self, metric: &str, tenant: &str) -> u64 {
        self.win
            .counters
            .iter()
            .filter(|(&id, _)| {
                let k = self.keys.resolve(id);
                k.metric == metric && k.tenant == tenant
            })
            .map(|(_, &v)| v)
            .sum()
    }

    /// Merged histogram for a metric (optionally one tenant) in this
    /// window; `None` when no matching series exists. Merge order is
    /// key order, so mixed-bounds series fail deterministically.
    pub fn merged_histogram(&self, metric: &str, tenant: Option<&str>) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for (k, wh) in self.histograms() {
            if k.metric != metric {
                continue;
            }
            if let Some(t) = tenant {
                if k.tenant != t {
                    continue;
                }
            }
            match &mut merged {
                None => merged = Some(wh.hist.clone()),
                Some(m) => m.merge(&wh.hist),
            }
        }
        merged
    }
}

/// Recorder shape: window width, ring capacity, default histogram
/// bucket bounds (used by [`Recorder::observe_exemplar`]; merged-in histograms
/// keep their own bounds).
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Window width in virtual time.
    pub width: SimDuration,
    /// Maximum number of materialized windows kept; older windows roll
    /// off the front of the ring.
    pub capacity: usize,
    /// Bucket bounds for histograms created by `observe_exemplar`.
    pub bounds: Vec<f64>,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            width: SimDuration::from_secs(60),
            capacity: 64,
            bounds: crate::DEFAULT_LATENCY_BOUNDS_MS.to_vec(),
        }
    }
}

/// The windowed time-series recorder.
///
/// Windows are materialized sparsely: only indices that receive data
/// exist, kept in ascending order in a `VecDeque`. Observations older
/// than the oldest retained window (after a rollover) are dropped and
/// counted in [`Recorder::late_drops`] rather than resurrecting evicted
/// windows.
#[derive(Debug, Clone)]
pub struct Recorder {
    config: RecorderConfig,
    keys: KeyTable,
    windows: VecDeque<Window>,
    /// Windows evicted off the ring so far.
    pub windows_rolled: u64,
    /// Observations dropped because their window had already rolled off.
    pub late_drops: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(RecorderConfig::default())
    }
}

impl Recorder {
    /// Creates a recorder.
    ///
    /// # Panics
    ///
    /// Panics if the window width is zero or the capacity is zero.
    pub fn new(config: RecorderConfig) -> Recorder {
        assert!(config.width.as_nanos() > 0, "window width must be nonzero");
        assert!(config.capacity > 0, "ring needs at least one window");
        Recorder {
            config,
            keys: KeyTable::default(),
            windows: VecDeque::new(),
            windows_rolled: 0,
            late_drops: 0,
        }
    }

    /// The recorder's configuration.
    pub(crate) fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// Interns a series key, returning the dense id hot paths should
    /// cache and feed to [`Recorder::inc_id`] /
    /// [`Recorder::observe_exemplar_id`].
    pub fn intern(&mut self, key: &SeriesKey) -> SeriesId {
        self.keys.intern(key)
    }

    /// Window ordinal containing `at`.
    pub(crate) fn index_of(&self, at: SimInstant) -> u64 {
        at.as_nanos() / self.config.width.as_nanos()
    }

    /// Materialized windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = WindowView<'_>> {
        self.windows.iter().map(|w| WindowView::new(&self.keys, w))
    }

    fn window_mut_at_index(&mut self, idx: u64) -> Option<&mut Window> {
        locate_window(
            &mut self.windows,
            &mut self.windows_rolled,
            &mut self.late_drops,
            self.config.capacity,
            self.config.width,
            idx,
        )
    }

    fn window_mut(&mut self, at: SimInstant) -> Option<&mut Window> {
        let idx = self.index_of(at);
        self.window_mut_at_index(idx)
    }

    /// Adds `n` to a counter series at virtual time `at`.
    pub fn inc(&mut self, at: SimInstant, key: SeriesKey, n: u64) {
        let id = self.keys.intern(&key);
        self.inc_id(at, id, n);
    }

    /// Adds `n` to an interned counter series at virtual time `at` —
    /// the allocation-free hot path.
    pub fn inc_id(&mut self, at: SimInstant, id: SeriesId, n: u64) {
        if let Some(w) = self.window_mut(at) {
            *w.counters.entry(id).or_insert(0) += n;
        }
    }

    /// Records one histogram observation carrying an optional exemplar
    /// trace id (a retained trace the bucket can link to).
    pub fn observe_exemplar(
        &mut self,
        at: SimInstant,
        key: SeriesKey,
        value_ms: f64,
        trace_id: Option<u64>,
    ) {
        let id = self.keys.intern(&key);
        self.observe_exemplar_id(at, id, value_ms, trace_id);
    }

    /// Records one histogram observation on an interned series — the
    /// allocation-free hot path.
    pub fn observe_exemplar_id(
        &mut self,
        at: SimInstant,
        id: SeriesId,
        value_ms: f64,
        trace_id: Option<u64>,
    ) {
        // Split-borrow through the free helper so the window lookup and
        // the config bounds never alias.
        let idx = at.as_nanos() / self.config.width.as_nanos();
        let bounds = &self.config.bounds;
        if let Some(w) = locate_window(
            &mut self.windows,
            &mut self.windows_rolled,
            &mut self.late_drops,
            self.config.capacity,
            self.config.width,
            idx,
        ) {
            w.hists
                .entry(id)
                .or_insert_with(|| WindowHistogram::new(Histogram::new(bounds)))
                .observe(value_ms, at, trace_id);
        }
    }

    /// Folds another recorder's windows into this one — the multi-shard
    /// merge path. Counters add, histograms merge bucket-wise, and each
    /// exemplar bucket keeps the larger value (`self` wins ties, so
    /// absorbing shards in index order is deterministic). Ring
    /// bookkeeping (`windows_rolled`, `late_drops`) is summed.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ (the rings would not align) or
    /// if a shared series carries mismatched histogram bounds.
    pub(crate) fn absorb(&mut self, other: &Recorder) {
        assert_eq!(
            self.config.width.as_nanos(),
            other.config.width.as_nanos(),
            "absorb needs matching window widths"
        );
        for w in &other.windows {
            // Resolve through the foreign table, intern into ours.
            let counters: Vec<(SeriesId, u64)> = w
                .counters
                .iter()
                .map(|(&id, &v)| (self.keys.intern(other.keys.resolve(id)), v))
                .collect();
            let hists: Vec<(SeriesId, &WindowHistogram)> = w
                .hists
                .iter()
                .map(|(&id, wh)| (self.keys.intern(other.keys.resolve(id)), wh))
                .collect();
            let Some(mine) = self.window_mut_at_index(w.index) else {
                continue;
            };
            for (id, v) in counters {
                *mine.counters.entry(id).or_insert(0) += v;
            }
            for (id, wh) in hists {
                match mine.hists.get_mut(&id) {
                    Some(target) => target.absorb(wh),
                    None => {
                        mine.hists.insert(id, wh.clone());
                    }
                }
            }
        }
        self.windows_rolled += other.windows_rolled;
        self.late_drops += other.late_drops;
    }

    /// Tenants that appear on any series of `metric` (counter or
    /// histogram), including the empty tenant when unlabelled series
    /// exist.
    pub fn tenants_of(&self, metric: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for w in &self.windows {
            for &id in w.counters.keys() {
                let k = self.keys.resolve(id);
                if k.metric == metric {
                    out.insert(k.tenant.clone());
                }
            }
            for &id in w.hists.keys() {
                let k = self.keys.resolve(id);
                if k.metric == metric {
                    out.insert(k.tenant.clone());
                }
            }
        }
        out
    }

    /// All exemplars across the ring in deterministic order
    /// (window, series, bucket).
    pub fn exemplars(&self) -> Vec<(WindowView<'_>, &SeriesKey, usize, &Exemplar)> {
        let mut out = Vec::new();
        for w in &self.windows {
            let view = WindowView::new(&self.keys, w);
            for (k, wh) in view.histograms() {
                for (bucket, ex) in wh.exemplars.iter().enumerate() {
                    if let Some(ex) = ex {
                        out.push((view, k, bucket, ex));
                    }
                }
            }
        }
        out
    }
}

/// Finds (materializing on demand) the window at `idx`, enforcing ring
/// capacity and late-drop semantics. A free function over disjoint field
/// borrows so the id-based hot paths can hold the config bounds at the
/// same time.
fn locate_window<'w>(
    windows: &'w mut VecDeque<Window>,
    windows_rolled: &mut u64,
    late_drops: &mut u64,
    capacity: usize,
    width: SimDuration,
    idx: u64,
) -> Option<&'w mut Window> {
    if let Some(front) = windows.front() {
        if idx < front.index && *windows_rolled > 0 {
            *late_drops += 1;
            return None;
        }
    }
    // Find the insertion point; most feeds are monotone in virtual
    // time so this is almost always the back.
    let pos = windows.partition_point(|w| w.index < idx);
    let exists = windows.get(pos).is_some_and(|w| w.index == idx);
    if !exists {
        windows.insert(pos, Window::new(idx, width));
        while windows.len() > capacity {
            windows.pop_front();
            *windows_rolled += 1;
        }
    }
    // Re-locate after the possible eviction shifted positions.
    let pos = windows.partition_point(|w| w.index < idx);
    if windows.get(pos).is_some_and(|w| w.index == idx) {
        windows.get_mut(pos)
    } else {
        // The window we just inserted was itself evicted (idx was the
        // oldest index of an already-full ring).
        *late_drops += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_secs(s: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(s)
    }

    fn small_config(capacity: usize) -> RecorderConfig {
        RecorderConfig {
            width: SimDuration::from_secs(60),
            capacity,
            bounds: vec![10.0, 100.0, 1000.0],
        }
    }

    /// The retained window containing `at`.
    fn window_at(r: &Recorder, at: SimInstant) -> WindowView<'_> {
        let idx = r.index_of(at);
        r.windows().find(|w| w.index == idx).unwrap()
    }

    /// A counter metric summed over every retained window.
    fn total(r: &Recorder, metric: &str) -> u64 {
        r.windows().map(|w| w.counter_metric(metric)).sum()
    }

    /// Value of one counter series in a window (0 when absent).
    fn counter(w: &WindowView<'_>, key: &SeriesKey) -> u64 {
        w.keys
            .get(key)
            .and_then(|id| w.win.counters.get(&id))
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn series_key_labels_and_ordering() {
        let bare = SeriesKey::new("m");
        assert_eq!(bare.labels(), "");
        let full = SeriesKey::new("m").tenant("a").node(3).gear("cow");
        assert_eq!(full.labels(), "tenant=\"a\",node=\"3\",gear=\"cow\"");
        assert!(bare < full, "unlabelled sorts before labelled");
    }

    #[test]
    fn interning_reuses_ids_and_resolves_back() {
        let mut r = Recorder::new(small_config(4));
        let a = r.intern(&SeriesKey::new("m").tenant("a"));
        let b = r.intern(&SeriesKey::new("m").tenant("b"));
        assert_ne!(a, b);
        assert_eq!(r.intern(&SeriesKey::new("m").tenant("a")), a);
        assert_eq!(r.keys.keys.len(), 2);
        assert_eq!(r.keys.resolve(a).tenant, "a");
        // The id path and the key path land on the same series.
        r.inc_id(at_secs(0), a, 2);
        r.inc(at_secs(0), SeriesKey::new("m").tenant("a"), 3);
        let w = window_at(&r, at_secs(0));
        assert_eq!(counter(&w, &SeriesKey::new("m").tenant("a")), 5);
    }

    #[test]
    fn observations_land_in_their_window() {
        let mut r = Recorder::new(small_config(8));
        let key = SeriesKey::new("req").tenant("a");
        r.inc(at_secs(5), key.clone(), 1);
        r.inc(at_secs(59), key.clone(), 2);
        r.inc(at_secs(60), key.clone(), 4);
        let windows: Vec<_> = r.windows().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(counter(&windows[0], &key), 3);
        assert_eq!(windows[1].index, 1);
        assert_eq!(counter(&windows[1], &key), 4);
        assert_eq!(windows[1].start, at_secs(60));
        assert_eq!(total(&r, "req"), 7);
    }

    #[test]
    fn sparse_windows_skip_quiet_periods() {
        let mut r = Recorder::new(small_config(8));
        r.inc(at_secs(0), SeriesKey::new("x"), 1);
        r.inc(at_secs(600), SeriesKey::new("x"), 1);
        assert_eq!(r.windows().count(), 2, "quiet windows not materialized");
    }

    #[test]
    fn rollover_evicts_oldest_and_counts_late_drops() {
        let mut r = Recorder::new(small_config(2));
        r.inc(at_secs(0), SeriesKey::new("x"), 1);
        r.inc(at_secs(60), SeriesKey::new("x"), 1);
        r.inc(at_secs(120), SeriesKey::new("x"), 1);
        assert_eq!(r.windows_rolled, 1);
        assert_eq!(r.windows().map(|w| w.index).collect::<Vec<_>>(), [1, 2]);
        // A write into the evicted window is dropped, not resurrected.
        r.inc(at_secs(30), SeriesKey::new("x"), 1);
        assert_eq!(r.late_drops, 1);
        assert_eq!(r.windows().count(), 2);
        assert_eq!(total(&r, "x"), 2);
    }

    #[test]
    fn out_of_order_before_rollover_backfills() {
        let mut r = Recorder::new(small_config(8));
        r.inc(at_secs(120), SeriesKey::new("x"), 1);
        r.inc(at_secs(0), SeriesKey::new("x"), 1);
        assert_eq!(r.windows().map(|w| w.index).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(r.late_drops, 0);
    }

    #[test]
    fn exemplar_keeps_bucket_max_first_seen_wins() {
        let mut r = Recorder::new(small_config(4));
        let key = SeriesKey::new("lat_ms").tenant("a");
        r.observe_exemplar(at_secs(1), key.clone(), 5.0, Some(11));
        r.observe_exemplar(at_secs(2), key.clone(), 9.0, Some(22));
        r.observe_exemplar(at_secs(3), key.clone(), 9.0, Some(33)); // tie: 22 kept
        r.observe_exemplar(at_secs(4), key.clone(), 50.0, Some(44));
        r.observe_exemplar(at_secs(5), key.clone(), 70.0, None); // no trace: bucket max unchanged
        let w = window_at(&r, at_secs(1));
        let wh = w.histogram(&key).unwrap();
        let ex0 = wh.exemplars[0].unwrap();
        assert_eq!((ex0.trace_id, ex0.value_ms), (22, 9.0));
        let ex1 = wh.exemplars[1].unwrap();
        assert_eq!((ex1.trace_id, ex1.value_ms), (44, 50.0));
        assert_eq!(wh.hist.count(), 5);
        let all = r.exemplars();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].2, 0, "bucket order");
    }

    #[test]
    fn absorb_merges_counters_hists_and_exemplars() {
        let mut a = Recorder::new(small_config(8));
        let mut b = Recorder::new(small_config(8));
        // Different intern orders on purpose.
        b.inc(at_secs(61), SeriesKey::new("req").tenant("z"), 7);
        b.inc(at_secs(0), SeriesKey::new("req").tenant("a"), 2);
        b.observe_exemplar(at_secs(0), SeriesKey::new("lat").tenant("a"), 9.0, Some(2));
        a.inc(at_secs(0), SeriesKey::new("req").tenant("a"), 1);
        a.observe_exemplar(at_secs(0), SeriesKey::new("lat").tenant("a"), 5.0, Some(1));
        a.absorb(&b);
        let w0 = window_at(&a, at_secs(0));
        assert_eq!(counter(&w0, &SeriesKey::new("req").tenant("a")), 3);
        let wh = w0.histogram(&SeriesKey::new("lat").tenant("a")).unwrap();
        assert_eq!(wh.hist.count(), 2);
        // The larger exemplar (9.0, trace 2) wins the shared bucket.
        assert_eq!(wh.exemplars[0].unwrap().trace_id, 2);
        assert_eq!(total(&a, "req"), 10);
        assert_eq!(a.windows().count(), 2, "b's window 1 materialized");
        // Absorbing shards in either order gives the same windows here
        // (exemplar max is symmetric when values differ).
        let mut c = Recorder::new(small_config(8));
        c.inc(at_secs(0), SeriesKey::new("req").tenant("a"), 1);
        c.observe_exemplar(at_secs(0), SeriesKey::new("lat").tenant("a"), 5.0, Some(1));
        let mut b2 = b.clone();
        b2.absorb(&c);
        let contents = |r: &Recorder| {
            r.windows()
                .map(|w| {
                    let lat = w.merged_histogram("lat", None).map(|h| h.count());
                    (w.index, w.counter_metric("req"), lat)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(contents(&a), contents(&b2));
        let traces = |r: &Recorder| {
            r.exemplars()
                .iter()
                .map(|e| e.3.trace_id)
                .collect::<Vec<_>>()
        };
        assert_eq!(traces(&a), traces(&b2));
    }

    #[test]
    fn merged_histogram_filters_by_tenant() {
        let mut r = Recorder::new(small_config(8));
        r.observe_exemplar(at_secs(0), SeriesKey::new("lat").tenant("a"), 5.0, None);
        r.observe_exemplar(at_secs(0), SeriesKey::new("lat").tenant("b"), 500.0, None);
        r.observe_exemplar(at_secs(70), SeriesKey::new("lat").tenant("a"), 50.0, None);
        let count = |tenant| {
            r.windows()
                .filter_map(|w| w.merged_histogram("lat", tenant))
                .map(|h| h.count())
                .sum::<u64>()
        };
        assert_eq!(count(None), 3);
        assert_eq!(count(Some("a")), 2);
        assert_eq!(count(Some("zzz")), 0);
        assert_eq!(
            r.tenants_of("lat").into_iter().collect::<Vec<_>>(),
            ["a", "b"]
        );
    }
}
