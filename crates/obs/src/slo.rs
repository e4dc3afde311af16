//! Declarative SLOs with error-budget burn-rate evaluation.
//!
//! An objective names an SLI (latency-under-threshold or a good/bad
//! event ratio), a target good fraction, and a pair of evaluation
//! horizons (short + long, in recorder windows). The engine replays the
//! recorder ring and computes, per window and per tenant, the
//! error-budget **burn rate** — `bad_fraction / (1 - target)` — the SRE
//! workbook quantity where 1.0 means "spending budget exactly as fast
//! as the SLO allows". Window breaches and multi-window burn alerts
//! come out as typed [`SloEvent`]s; per-tenant attribution falls out of
//! the label split the recorder already keeps.
//!
//! Latency SLIs count an observation as *good* when it lands in a
//! bucket whose upper bound is `<=` the threshold, so thresholds should
//! sit on a configured bucket bound (e.g. 250 ms with the fleet's
//! default bounds); a threshold between bounds is conservatively
//! rounded *down* to the previous bound.

use std::collections::BTreeMap;

use prebake_sim::time::SimInstant;

use crate::recorder::{Recorder, WindowView};

/// What fraction of events were good, and how it is measured.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Sli {
    /// Good = histogram observations of `metric` at or under
    /// `threshold_ms` (bucket-bound semantics, see module docs).
    LatencyUnder {
        /// Histogram metric to read.
        metric: String,
        /// Goodness threshold in milliseconds.
        threshold_ms: f64,
    },
    /// Good = `total - bad` over two counter metrics (e.g. cold starts
    /// over requests).
    EventRatio {
        /// Counter metric counting bad events.
        bad: String,
        /// Counter metric counting all events.
        total: String,
    },
}

impl Sli {
    /// The metric whose label splits define the tenant set.
    fn attribution_metric(&self) -> &str {
        match self {
            Sli::LatencyUnder { metric, .. } => metric,
            Sli::EventRatio { total, .. } => total,
        }
    }

    /// (bad, total) for one tenant in one window.
    fn window_tenant(&self, w: &WindowView<'_>, tenant: &str) -> (u64, u64) {
        match self {
            Sli::LatencyUnder {
                metric,
                threshold_ms,
            } => match w.merged_histogram(metric, Some(tenant)) {
                None => (0, 0),
                Some(h) => {
                    let total = h.count();
                    let good: u64 = h
                        .bounds()
                        .iter()
                        .zip(h.bucket_counts())
                        .filter(|(b, _)| **b <= *threshold_ms)
                        .map(|(_, c)| *c)
                        .sum();
                    (total - good, total)
                }
            },
            Sli::EventRatio { bad, total } => (
                w.counter_metric_tenant(bad, tenant),
                w.counter_metric_tenant(total, tenant),
            ),
        }
    }
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Objective name, used in events and the dashboard.
    pub name: String,
    /// How goodness is measured.
    pub(crate) sli: Sli,
    /// Required good fraction in `(0, 1)`, e.g. `0.9` for "90% of
    /// requests under threshold".
    pub target: f64,
    /// Short burn horizon in windows (the fast-burn confirmation).
    pub(crate) short_windows: usize,
    /// Long burn horizon in windows (the sustained-burn signal).
    pub(crate) long_windows: usize,
    /// Burn rate both horizons must exceed to fire a [`SloEventKind::BurnAlert`].
    pub(crate) fast_burn: f64,
}

impl Objective {
    /// Latency objective: `fraction of metric <= threshold_ms` must be
    /// at least `target`.
    pub fn latency(name: &str, metric: &str, threshold_ms: f64, target: f64) -> Objective {
        Objective {
            name: name.to_owned(),
            sli: Sli::LatencyUnder {
                metric: metric.to_owned(),
                threshold_ms,
            },
            target,
            short_windows: 1,
            long_windows: 6,
            fast_burn: 6.0,
        }
    }

    /// Ratio objective: `bad / total` must stay at or under `1 - target`.
    pub fn ratio(name: &str, bad: &str, total: &str, target: f64) -> Objective {
        Objective {
            name: name.to_owned(),
            sli: Sli::EventRatio {
                bad: bad.to_owned(),
                total: total.to_owned(),
            },
            target,
            short_windows: 1,
            long_windows: 6,
            fast_burn: 6.0,
        }
    }

    /// Builder-style burn-alert horizons.
    pub fn burn_windows(mut self, short: usize, long: usize, fast_burn: f64) -> Objective {
        assert!(short >= 1 && long >= short, "need 1 <= short <= long");
        self.short_windows = short;
        self.long_windows = long;
        self.fast_burn = fast_burn;
        self
    }

    /// The error budget: allowed bad fraction `1 - target`.
    pub(crate) fn budget(&self) -> f64 {
        1.0 - self.target
    }
}

/// Burn measured for one (window, tenant) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBurn {
    /// Window ordinal in the recorder ring.
    pub window_index: u64,
    /// Window start in virtual time.
    pub(crate) window_start: SimInstant,
    /// Attributed tenant ("" when the series carried no tenant label).
    pub tenant: String,
    /// Bad events in the cell.
    pub bad: u64,
    /// Total events in the cell.
    pub total: u64,
    /// `(bad/total) / budget`; 0 when the cell is empty.
    pub burn: f64,
}

/// What a [`SloEvent`] reports.
#[derive(Debug, Clone, PartialEq)]
pub enum SloEventKind {
    /// A single window burned faster than 1× budget.
    WindowBreach {
        /// The cell's burn rate.
        burn: f64,
        /// Bad events in the window.
        bad: u64,
        /// Total events in the window.
        total: u64,
    },
    /// Short- and long-horizon burn both exceeded `fast_burn`,
    /// evaluated at the end of this window.
    BurnAlert {
        /// Burn over the trailing short horizon.
        short_burn: f64,
        /// Burn over the trailing long horizon.
        long_burn: f64,
    },
}

/// A typed SLO event, attributed to an objective, tenant, and window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEvent {
    /// Objective name.
    pub objective: String,
    /// Attributed tenant.
    pub tenant: String,
    /// Window ordinal the event anchors to.
    pub window_index: u64,
    /// That window's start instant.
    pub(crate) window_start: SimInstant,
    /// Breach or burn alert.
    pub kind: SloEventKind,
}

/// Whole-ring status of one objective.
#[derive(Debug, Clone)]
pub struct ObjectiveStatus {
    /// Objective name.
    pub name: String,
    /// Bad events across the ring (all tenants).
    pub bad: u64,
    /// Total events across the ring (all tenants).
    pub total: u64,
    /// Overall burn rate across the ring.
    pub burn: f64,
    /// The worst-burning (window, tenant) cell with any bad events —
    /// the engine's attribution of *who* burned the budget *when*.
    pub worst: Option<WindowBurn>,
}

impl ObjectiveStatus {
    /// Overall good fraction (1 when no events).
    pub(crate) fn good_fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            1.0 - self.bad as f64 / self.total as f64
        }
    }
}

/// Evaluation output: per-objective statuses plus the ordered event log.
#[derive(Debug, Clone, Default)]
pub struct SloReport {
    /// One status per configured objective, in configuration order.
    pub(crate) statuses: Vec<ObjectiveStatus>,
    /// Events ordered by (objective order, window, tenant, kind).
    pub events: Vec<SloEvent>,
}

impl SloReport {
    /// Status of a named objective.
    pub fn status(&self, objective: &str) -> Option<&ObjectiveStatus> {
        self.statuses.iter().find(|s| s.name == objective)
    }

    /// Worst-offender attribution for a named objective.
    pub fn worst_offender(&self, objective: &str) -> Option<&WindowBurn> {
        self.status(objective).and_then(|s| s.worst.as_ref())
    }

    /// Events of a named objective.
    pub fn events_of<'r>(&'r self, objective: &str) -> impl Iterator<Item = &'r SloEvent> {
        let objective = objective.to_owned();
        self.events.iter().filter(move |e| e.objective == objective)
    }
}

/// Evaluates a set of objectives against a recorder ring.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    objectives: Vec<Objective>,
}

impl SloEngine {
    /// Creates an engine over the given objectives.
    pub fn new(objectives: Vec<Objective>) -> SloEngine {
        for o in &objectives {
            assert!(
                o.target > 0.0 && o.target < 1.0,
                "target must be in (0,1): {}",
                o.name
            );
        }
        SloEngine { objectives }
    }

    /// The configured objectives.
    pub(crate) fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Replays the recorder ring and produces statuses + events.
    pub fn evaluate(&self, rec: &Recorder) -> SloReport {
        let mut report = SloReport::default();
        let windows: Vec<WindowView<'_>> = rec.windows().collect();
        for o in &self.objectives {
            let budget = o.budget();
            let tenants = rec.tenants_of(o.sli.attribution_metric());
            // cells[tenant] = per-window (bad, total) aligned with `windows`.
            let mut cells: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
            for t in &tenants {
                cells.insert(
                    t.as_str(),
                    windows.iter().map(|w| o.sli.window_tenant(w, t)).collect(),
                );
            }

            let mut status = ObjectiveStatus {
                name: o.name.clone(),
                bad: 0,
                total: 0,
                burn: 0.0,
                worst: None,
            };
            for (wi, w) in windows.iter().enumerate() {
                for (tenant, series) in &cells {
                    let (bad, total) = series[wi];
                    status.bad += bad;
                    status.total += total;
                    let burn = burn_rate(bad, total, budget);
                    if bad > 0 {
                        let cell = WindowBurn {
                            window_index: w.index,
                            window_start: w.start,
                            tenant: (*tenant).to_owned(),
                            bad,
                            total,
                            burn,
                        };
                        // Strictly-greater keeps the earliest window and
                        // first tenant (BTreeMap order) on ties.
                        if status.worst.as_ref().is_none_or(|p| burn > p.burn) {
                            status.worst = Some(cell.clone());
                        }
                        if burn > 1.0 {
                            report.events.push(SloEvent {
                                objective: o.name.clone(),
                                tenant: (*tenant).to_owned(),
                                window_index: w.index,
                                window_start: w.start,
                                kind: SloEventKind::WindowBreach { burn, bad, total },
                            });
                        }
                    }
                    // Multi-window burn alert evaluated at this window's
                    // close: both trailing horizons must exceed fast_burn.
                    let short = trailing_burn(series, wi, o.short_windows, budget);
                    let long = trailing_burn(series, wi, o.long_windows, budget);
                    if short >= o.fast_burn && long >= o.fast_burn {
                        report.events.push(SloEvent {
                            objective: o.name.clone(),
                            tenant: (*tenant).to_owned(),
                            window_index: w.index,
                            window_start: w.start,
                            kind: SloEventKind::BurnAlert {
                                short_burn: short,
                                long_burn: long,
                            },
                        });
                    }
                }
            }
            status.burn = burn_rate(status.bad, status.total, budget);
            report.statuses.push(status);
        }
        report
    }
}

/// `(bad/total) / budget`, 0 for empty cells.
fn burn_rate(bad: u64, total: u64, budget: f64) -> f64 {
    if total == 0 {
        0.0
    } else {
        (bad as f64 / total as f64) / budget
    }
}

/// Burn over the trailing `horizon` materialized windows ending at `end`
/// (inclusive), event-weighted: `(sum bad / sum total) / budget`.
fn trailing_burn(series: &[(u64, u64)], end: usize, horizon: usize, budget: f64) -> f64 {
    let from = (end + 1).saturating_sub(horizon);
    let (mut bad, mut total) = (0u64, 0u64);
    for &(b, t) in &series[from..=end] {
        bad += b;
        total += t;
    }
    burn_rate(bad, total, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{RecorderConfig, SeriesKey};
    use prebake_sim::time::SimDuration;

    fn at_secs(s: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_secs(s)
    }

    fn recorder() -> Recorder {
        Recorder::new(RecorderConfig {
            width: SimDuration::from_secs(60),
            capacity: 32,
            bounds: vec![10.0, 100.0, 250.0, 1000.0],
        })
    }

    #[test]
    fn ratio_objective_attributes_worst_tenant_and_window() {
        let mut r = recorder();
        // Window 0: tenant a clean, tenant b burns 2/10.
        for (t, bad, total) in [("a", 0u64, 10u64), ("b", 2, 10)] {
            r.inc(at_secs(1), SeriesKey::new("cold_total").tenant(t), bad);
            r.inc(at_secs(1), SeriesKey::new("req_total").tenant(t), total);
        }
        // Window 2: tenant b burns harder (5/10).
        r.inc(at_secs(121), SeriesKey::new("cold_total").tenant("b"), 5);
        r.inc(at_secs(121), SeriesKey::new("req_total").tenant("b"), 10);

        let engine = SloEngine::new(vec![Objective::ratio(
            "cold-fraction",
            "cold_total",
            "req_total",
            0.9,
        )]);
        let report = engine.evaluate(&r);
        let status = report.status("cold-fraction").unwrap();
        assert_eq!((status.bad, status.total), (7, 30));
        let worst = status.worst.as_ref().unwrap();
        assert_eq!(worst.tenant, "b");
        assert_eq!(worst.window_index, 2);
        assert!((worst.burn - 5.0).abs() < 1e-9, "0.5/0.1 = 5x budget");
        // Both of b's windows breached (burn > 1), a never did.
        let breaches: Vec<_> = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, SloEventKind::WindowBreach { .. }))
            .collect();
        assert_eq!(breaches.len(), 2);
        assert!(breaches.iter().all(|e| e.tenant == "b"));
    }

    #[test]
    fn latency_objective_counts_bucket_bound_goodness() {
        let mut r = recorder();
        let key = SeriesKey::new("lat_ms").tenant("a");
        for v in [5.0, 50.0, 200.0, 900.0] {
            r.observe_exemplar(at_secs(1), key.clone(), v, None);
        }
        // threshold 250: values <= 250-bucket are good => 3 good, 1 bad.
        let engine = SloEngine::new(vec![Objective::latency("p-lat", "lat_ms", 250.0, 0.5)]);
        let status = engine.evaluate(&r);
        let s = status.status("p-lat").unwrap();
        assert_eq!((s.bad, s.total), (1, 4));
        assert!((s.burn - 0.5).abs() < 1e-9);
        assert!((s.good_fraction() - 0.75).abs() < 1e-9);
        // A threshold between bounds rounds down conservatively: 300 still
        // uses the 250 bucket, same result.
        let engine300 = SloEngine::new(vec![Objective::latency("p-lat", "lat_ms", 300.0, 0.5)]);
        assert_eq!(engine300.evaluate(&r).status("p-lat").unwrap().bad, 1);
    }

    #[test]
    fn burn_alert_needs_both_horizons() {
        let mut r = recorder();
        // 6 quiet windows then 2 windows of 100% bad for tenant a.
        for w in 0..6u64 {
            r.inc(at_secs(w * 60 + 1), SeriesKey::new("bad").tenant("a"), 0);
            r.inc(at_secs(w * 60 + 1), SeriesKey::new("all").tenant("a"), 10);
        }
        for w in 6..8u64 {
            r.inc(at_secs(w * 60 + 1), SeriesKey::new("bad").tenant("a"), 10);
            r.inc(at_secs(w * 60 + 1), SeriesKey::new("all").tenant("a"), 10);
        }
        // target 0.9 => budget 0.1 => a fully-bad window burns at 10x.
        // short=1 long=3 fast=2: at window 6 long covers w4..w6 =>
        // (10/30)/0.1 = 3.33 >= 2 => alert fires; with fast=4 it must not.
        let fires = SloEngine::new(vec![
            Objective::ratio("o", "bad", "all", 0.9).burn_windows(1, 3, 2.0)
        ]);
        let alerts: Vec<_> = fires
            .evaluate(&r)
            .events
            .into_iter()
            .filter(|e| matches!(e.kind, SloEventKind::BurnAlert { .. }))
            .collect();
        assert_eq!(alerts.len(), 2, "windows 6 and 7 alert");
        assert_eq!(alerts[0].window_index, 6);

        let quiet = SloEngine::new(vec![
            Objective::ratio("o", "bad", "all", 0.9).burn_windows(1, 3, 4.0)
        ]);
        let alerts: Vec<_> = quiet
            .evaluate(&r)
            .events
            .into_iter()
            .filter(|e| matches!(e.kind, SloEventKind::BurnAlert { .. }))
            .collect();
        assert_eq!(
            alerts.len(),
            1,
            "long horizon at window 7 covers w5..w7 = (20/30)/0.1 = 6.67 >= 4, \
             but window 6's long burn 3.33 < 4"
        );
        assert_eq!(alerts[0].window_index, 7);
    }

    #[test]
    fn empty_recorder_yields_clean_report() {
        let r = recorder();
        let engine = SloEngine::new(vec![Objective::ratio("o", "bad", "all", 0.99)]);
        let report = engine.evaluate(&r);
        let s = report.status("o").unwrap();
        assert_eq!(s.total, 0);
        assert_eq!(s.burn, 0.0);
        assert!(s.worst.is_none());
        assert!(report.events.is_empty());
        assert_eq!(s.good_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "target must be in (0,1)")]
    fn rejects_degenerate_target() {
        SloEngine::new(vec![Objective::ratio("o", "b", "t", 1.0)]);
    }
}
