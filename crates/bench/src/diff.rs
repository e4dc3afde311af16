//! The bench regression gate: compares two `BENCH_*.json` documents
//! metric by metric with direction-aware tolerance bands.
//!
//! Both documents are flattened to `path → number` (e.g.
//! `sweep[3].p99_ms`, `compact.pages_compacted`). Paths whose leaf names
//! mark a latency or cost metric are *lower-is-better*: the gate fails
//! when the new value exceeds the old by more than the relative
//! tolerance **and** the absolute floor (the floor keeps sub-millisecond
//! jitter on tiny medians from tripping a percentage band). All other
//! numeric leaves are *neutral*: changes are reported as drift but never
//! fail the gate, since deterministic reruns only move them when
//! behavior intentionally changed.

use crate::json::Value;

/// Whether a metric's direction is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latency/cost: growth beyond tolerance is a regression.
    LowerIsBetter,
    /// Counters and structure: changes are drift, never failures.
    Neutral,
}

/// Classifies a flattened metric path by its leaf name.
pub fn direction_of(path: &str) -> Direction {
    let leaf = path
        .rsplit(['.', ']'])
        .find(|s| !s.is_empty())
        .unwrap_or(path);
    if leaf.ends_with("_ms")
        || leaf.ends_with("_mb")
        || leaf == "cold_fraction"
        || leaf == "shed"
        || leaf.ends_with("egress_bytes")
    {
        Direction::LowerIsBetter
    } else {
        Direction::Neutral
    }
}

/// What the gate concluded about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Lower-is-better metric grew past tolerance: fails the gate.
    Regression,
    /// Lower-is-better metric shrank past tolerance.
    Improvement,
    /// Neutral metric moved past tolerance.
    Drift,
    /// Within tolerance (or below the absolute floor).
    Stable,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened path, e.g. `sweep[3].p99_ms`.
    pub path: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Direction the path classified to.
    pub direction: Direction,
    /// The gate's conclusion.
    pub verdict: Verdict,
}

impl MetricDelta {
    /// Relative change `(new - old) / |old|` (infinite when the
    /// baseline is zero and the candidate isn't).
    pub fn rel_change(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.new - self.old) / self.old.abs()
        }
    }
}

/// Tolerances for the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative band, e.g. `0.05` = ±5 %.
    pub rel: f64,
    /// Absolute floor: deltas smaller than this never regress
    /// (milliseconds for `_ms` metrics; same unit as the metric
    /// otherwise).
    pub floor_abs: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            rel: 0.05,
            floor_abs: 0.5,
        }
    }
}

/// The full comparison of two documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Every metric present in both documents, in baseline file order.
    pub deltas: Vec<MetricDelta>,
    /// Numeric paths only the baseline has (schema shrank).
    pub missing_in_new: Vec<String>,
    /// Numeric paths only the candidate has (schema grew).
    pub missing_in_old: Vec<String>,
}

impl DiffReport {
    /// Metrics that fail the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regression)
    }

    /// True when the candidate passes (no regressions; missing metrics
    /// are reported but do not fail, so the gate survives schema
    /// evolution between stacked PRs).
    pub fn passes(&self) -> bool {
        self.regressions().next().is_none()
    }

    /// Renders the human-readable comparison table. Stable with
    /// everything in band; one line per regression, improvement, drift,
    /// and missing path otherwise.
    pub fn render(&self, tol: Tolerance) -> String {
        let mut out = String::new();
        let (mut reg, mut imp, mut drift, mut stable) = (0usize, 0usize, 0usize, 0usize);
        for d in &self.deltas {
            match d.verdict {
                Verdict::Regression => reg += 1,
                Verdict::Improvement => imp += 1,
                Verdict::Drift => drift += 1,
                Verdict::Stable => stable += 1,
            }
            if d.verdict != Verdict::Stable {
                out.push_str(&format!(
                    "{:>12}  {}  {:.4} -> {:.4}  ({:+.1}%)\n",
                    match d.verdict {
                        Verdict::Regression => "REGRESSION",
                        Verdict::Improvement => "improvement",
                        Verdict::Drift => "drift",
                        Verdict::Stable => unreachable!(),
                    },
                    d.path,
                    d.old,
                    d.new,
                    d.rel_change() * 100.0,
                ));
            }
        }
        for p in &self.missing_in_new {
            out.push_str(&format!("{:>12}  {p}\n", "missing-new"));
        }
        for p in &self.missing_in_old {
            out.push_str(&format!("{:>12}  {p}\n", "new-metric"));
        }
        out.push_str(&format!(
            "compared {} metrics (tol {:.1}% / floor {}): \
             {reg} regressions, {imp} improvements, {drift} drifts, {stable} stable\n",
            self.deltas.len(),
            tol.rel * 100.0,
            tol.floor_abs,
        ));
        out
    }
}

/// Flattens every numeric leaf of `v` into `(path, value)` pairs, in
/// document order.
pub fn flatten(v: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &Value, path: String, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((path, *n)),
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, format!("{path}[{i}]"), out);
            }
        }
        Value::Obj(members) => {
            for (k, member) in members {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(member, child, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Compares `new` against the `old` baseline.
pub fn diff(old: &Value, new: &Value, tol: Tolerance) -> DiffReport {
    use std::collections::BTreeMap;
    let old_flat = flatten(old);
    let new_map: BTreeMap<String, f64> = flatten(new).into_iter().collect();
    let old_keys: std::collections::BTreeSet<&String> = old_flat.iter().map(|(k, _)| k).collect();

    let mut report = DiffReport::default();
    for (path, old_v) in &old_flat {
        let Some(&new_v) = new_map.get(path) else {
            report.missing_in_new.push(path.clone());
            continue;
        };
        let direction = direction_of(path);
        let over_floor = (new_v - old_v).abs() > tol.floor_abs;
        let over_band = if *old_v == 0.0 {
            new_v != *old_v
        } else {
            ((new_v - old_v) / old_v.abs()).abs() > tol.rel
        };
        let verdict = match direction {
            Direction::LowerIsBetter if over_floor && over_band => {
                if new_v > *old_v {
                    Verdict::Regression
                } else {
                    Verdict::Improvement
                }
            }
            Direction::Neutral if over_floor && over_band => Verdict::Drift,
            _ => Verdict::Stable,
        };
        report.deltas.push(MetricDelta {
            path: path.clone(),
            old: *old_v,
            new: new_v,
            direction,
            verdict,
        });
    }
    report.missing_in_old = new_map
        .keys()
        .filter(|k| !old_keys.contains(k))
        .cloned()
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn directions_classify_by_leaf_name() {
        assert_eq!(direction_of("sweep[3].p99_ms"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("baseline.cold_fraction"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_of("mem_high_water_mb"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("registry.egress_bytes"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_of("sweep[0].shed"), Direction::LowerIsBetter);
        assert_eq!(direction_of("parallel[1].shards"), Direction::Neutral);
        assert_eq!(
            direction_of("layout.fault_order.seek_bytes_avoided"),
            Direction::Neutral
        );
    }

    #[test]
    fn identical_documents_pass_clean() {
        let v = parse(r#"{"a": {"p99_ms": 100.0, "count": 7}, "b": [1.5, 2.5]}"#).unwrap();
        let report = diff(&v, &v, Tolerance::default());
        assert!(report.passes());
        assert_eq!(report.deltas.len(), 4);
        assert!(report.deltas.iter().all(|d| d.verdict == Verdict::Stable));
        assert!(report.missing_in_new.is_empty());
        assert!(report.missing_in_old.is_empty());
    }

    /// Every committed baseline must parse and diff clean against
    /// itself: guards the flatten/tolerance logic on the real schemas and
    /// catches a baseline edit that no longer parses.
    #[test]
    fn committed_baselines_parse_and_self_diff_clean() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut baselines: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        baselines.sort();
        assert!(baselines.len() >= 7, "found only {baselines:?}");
        for name in baselines {
            let text = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
            let v = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let report = diff(&v, &v, Tolerance::default());
            assert!(!report.deltas.is_empty(), "{name} has no numeric fields");
            assert!(
                report.deltas.iter().all(|d| d.verdict == Verdict::Stable),
                "{name} moved against itself"
            );
            assert!(report.missing_in_new.is_empty() && report.missing_in_old.is_empty());
        }
    }

    #[test]
    fn twenty_percent_p99_regression_fails_the_gate() {
        let old = parse(r#"{"sweep": [{"p99_ms": 100.0, "requests": 50}]}"#).unwrap();
        let new = parse(r#"{"sweep": [{"p99_ms": 120.0, "requests": 50}]}"#).unwrap();
        let report = diff(&old, &new, Tolerance::default());
        assert!(!report.passes());
        let regs: Vec<_> = report.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "sweep[0].p99_ms");
        assert!((regs[0].rel_change() - 0.2).abs() < 1e-9);
        let text = report.render(Tolerance::default());
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("1 regressions"));
    }

    #[test]
    fn improvements_and_neutral_drift_do_not_fail() {
        let old = parse(r#"{"p99_ms": 100.0, "expirations": 40}"#).unwrap();
        let new = parse(r#"{"p99_ms": 50.0, "expirations": 80}"#).unwrap();
        let report = diff(&old, &new, Tolerance::default());
        assert!(report.passes());
        assert_eq!(report.deltas[0].verdict, Verdict::Improvement);
        assert_eq!(report.deltas[1].verdict, Verdict::Drift);
    }

    #[test]
    fn absolute_floor_absorbs_tiny_median_jitter() {
        // 0.43ms -> 0.47ms is +9% but only 0.04ms: not a regression.
        let old = parse(r#"{"p50_ms": 0.43}"#).unwrap();
        let new = parse(r#"{"p50_ms": 0.47}"#).unwrap();
        let report = diff(&old, &new, Tolerance::default());
        assert!(report.passes());
        assert_eq!(report.deltas[0].verdict, Verdict::Stable);
        // ...but a tighter floor catches it.
        let tight = diff(
            &old,
            &new,
            Tolerance {
                rel: 0.05,
                floor_abs: 0.01,
            },
        );
        assert!(!tight.passes());
    }

    #[test]
    fn schema_changes_report_without_failing() {
        let old = parse(r#"{"a_ms": 1.0, "gone_ms": 2.0}"#).unwrap();
        let new = parse(r#"{"a_ms": 1.0, "added_ms": 3.0}"#).unwrap();
        let report = diff(&old, &new, Tolerance::default());
        assert!(report.passes());
        assert_eq!(report.missing_in_new, vec!["gone_ms".to_owned()]);
        assert_eq!(report.missing_in_old, vec!["added_ms".to_owned()]);
        let text = report.render(Tolerance::default());
        assert!(text.contains("missing-new  gone_ms"));
        assert!(text.contains("new-metric  added_ms"));
    }

    #[test]
    fn zero_baseline_growth_is_caught_for_latency_metrics() {
        let old = parse(r#"{"queue_p99_ms": 0.0}"#).unwrap();
        let new = parse(r#"{"queue_p99_ms": 45.0}"#).unwrap();
        let report = diff(&old, &new, Tolerance::default());
        assert!(!report.passes());
        assert!(report.deltas[0].rel_change().is_infinite());
    }
}
