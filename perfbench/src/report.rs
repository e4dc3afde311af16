//! Metric definitions, the result line the driver reads, and the
//! machine fingerprint.
//!
//! Every metric name says which clock it uses: `host_` is wall time of
//! the Rust code, `sim_` is modelled virtual time. The tables here are
//! the single source for names, units, directions and bounds; a unit
//! test holds `BENCHMARK.json` to them.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark can print.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only;
    /// per-layer metrics carry 0 and are never gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The seven end-to-end metrics, reported for every workload.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("host_peak_rss_mb", "MiB", Better::Lower, 0.20),
    e2e("sim_p50_ms", "ms", Better::Lower, 0.02),
    e2e("sim_tail_ms", "ms", Better::Lower, 0.05),
    e2e("sim_slo_ok_share", "ratio", Better::Higher, 0.02),
    e2e("ok_share", "ratio", Better::Higher, 0.001),
];

/// The five restore gears, as metric-name suffixes.
pub const GEARS: [&str; 5] = ["eager", "lazy", "prefetch", "cow", "cow_prefetch"];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in print order. The prefix before the first
/// dot is the crate directory. A traced run prints all of them; a
/// metric whose call is not on the traced workload's path reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // sim
    layer("sim.event_queue_host_ns_per_event", "ns", Lower),
    layer("sim.fs_read_host_ms_per_gib", "ms/GiB", Lower),
    // functions
    layer("functions.spec_build_host_ms", "ms", Lower),
    // runtime
    layer("runtime.boot_host_ms", "ms", Lower),
    layer("runtime.boot_sim_ms", "ms", Lower),
    layer("runtime.attach_host_ms", "ms", Lower),
    layer("runtime.first_request_host_ms.eager", "ms", Lower),
    layer("runtime.first_request_host_ms.lazy", "ms", Lower),
    layer("runtime.first_request_host_ms.prefetch", "ms", Lower),
    layer("runtime.first_request_host_ms.cow", "ms", Lower),
    layer("runtime.first_request_host_ms.cow_prefetch", "ms", Lower),
    layer("runtime.first_request_sim_ms.eager", "ms", Lower),
    layer("runtime.first_request_sim_ms.lazy", "ms", Lower),
    layer("runtime.first_request_sim_ms.prefetch", "ms", Lower),
    layer("runtime.first_request_sim_ms.cow", "ms", Lower),
    layer("runtime.first_request_sim_ms.cow_prefetch", "ms", Lower),
    // criu
    layer("criu.read_images_host_ms", "ms", Lower),
    layer("criu.read_images_lazy_host_ms", "ms", Lower),
    layer("criu.restore_set_host_ms.eager", "ms", Lower),
    layer("criu.restore_set_host_ms.lazy", "ms", Lower),
    layer("criu.restore_set_host_ms.prefetch", "ms", Lower),
    layer("criu.restore_set_host_ms.cow", "ms", Lower),
    layer("criu.restore_set_host_ms.cow_prefetch", "ms", Lower),
    layer("criu.restore_sim_ms.eager", "ms", Lower),
    layer("criu.restore_sim_ms.lazy", "ms", Lower),
    layer("criu.restore_sim_ms.prefetch", "ms", Lower),
    layer("criu.restore_sim_ms.cow", "ms", Lower),
    layer("criu.restore_sim_ms.cow_prefetch", "ms", Lower),
    layer("criu.restore_cached_host_ms", "ms", Lower),
    layer("criu.dump_host_ms", "ms", Lower),
    layer("criu.dump_sim_ms", "ms", Lower),
    layer("criu.dump_frozen_sim_ms", "ms", Lower),
    layer("criu.repack_host_ms", "ms", Lower),
    layer("criu.repack_sim_ms", "ms", Lower),
    layer("criu.check_host_ms", "ms", Lower),
    layer("criu.image_mib", "MiB", Lower),
    layer("criu.pages_stored", "count", Lower),
    layer("criu.pages_unique", "count", Lower),
    layer("criu.hot_mib_after_compact", "MiB", Lower),
    layer("criu.major_faults.lazy", "count", Lower),
    // core
    layer("core.fixture_host_ms", "ms", Lower),
    layer("core.bake_host_ms", "ms", Lower),
    layer("core.record_ws_host_ms", "ms", Lower),
    layer("core.start_host_ms.eager", "ms", Lower),
    layer("core.start_host_ms.lazy", "ms", Lower),
    layer("core.start_host_ms.prefetch", "ms", Lower),
    layer("core.start_host_ms.cow", "ms", Lower),
    layer("core.start_host_ms.cow_prefetch", "ms", Lower),
    layer("core.start_self_host_ms.eager", "ms", Lower),
    layer("core.start_self_host_ms.lazy", "ms", Lower),
    layer("core.start_self_host_ms.prefetch", "ms", Lower),
    layer("core.start_self_host_ms.cow", "ms", Lower),
    layer("core.start_self_host_ms.cow_prefetch", "ms", Lower),
    layer("core.startup_trial_host_ms", "ms", Lower),
    // platform
    layer("platform.loadgen_host_ns_per_arrival", "ns", Lower),
    layer("platform.histogram_observe_host_ns", "ns", Lower),
    layer("platform.cold_invoke_host_ms", "ms", Lower),
    layer("platform.cold_invoke_sim_ms", "ms", Lower),
    layer("platform.warm_invoke_host_us", "us", Lower),
    // registry
    layer("registry.pull_host_us", "us", Lower),
    layer("registry.egress_mib_per_kop", "MiB", Lower),
    layer("registry.dedup_share", "ratio", Higher),
    layer("registry.pull_cache_hit_share", "ratio", Higher),
    // fleet
    layer("fleet.events_per_op", "count", Lower),
    layer("fleet.host_ns_per_event", "ns", Lower),
    layer("fleet.run_self_host_s", "s", Lower),
    layer("fleet.cold_share", "ratio", Lower),
    layer("fleet.shed_share", "ratio", Lower),
    layer("fleet.evictions_per_kop", "count", Lower),
    layer("fleet.expirations_per_kop", "count", Lower),
    layer("fleet.replicas_started_per_kop", "count", Lower),
    layer("fleet.queue_delay_p50_ms", "ms", Lower),
    layer("fleet.pull_wait_p50_ms", "ms", Lower),
    layer("fleet.profile_measure_host_s", "s", Lower),
    // obs
    layer("obs.recorder_observe_host_ns", "ns", Lower),
    layer("obs.fleet_overhead_share", "ratio", Lower),
    layer("obs.spans_kept_share", "ratio", Lower),
    layer("obs.late_drops", "count", Lower),
    // gateway
    layer("gateway.admission_host_ns_per_offer", "ns", Lower),
    layer("gateway.cache_host_ns_per_lookup", "ns", Lower),
    layer("gateway.fleet_overhead_share", "ratio", Lower),
    layer("gateway.cache_hit_share", "ratio", Higher),
    layer("gateway.deferred_share", "ratio", Lower),
    layer("gateway.invoke_cached_host_us", "us", Lower),
    // perfbench (the harness itself)
    layer("perfbench.trace_overhead_share", "ratio", Lower),
    layer("perfbench.round_iqr_share", "ratio", Lower),
    layer("perfbench.allocs_per_op", "count", Lower),
    layer("perfbench.alloc_kib_per_op", "KiB", Lower),
];

/// One measured value, with the sample count behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// The value, all digits.
    pub value: f64,
    /// Samples the value summarises (calls, ops or rounds).
    pub n: usize,
    /// Free-form qualifier, e.g. the tail rung chosen.
    pub note: String,
}

/// Collects per-layer values by name; unset names read 0.
#[derive(Debug, Default)]
pub struct LayerValues(Vec<Measured>);

impl LayerValues {
    /// Records `name = value` over `n` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] or set twice — both
    /// are bugs in a workload.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "unknown per-layer metric {name}"
        );
        assert!(
            !self.0.iter().any(|m| m.name == name),
            "per-layer metric {name} set twice"
        );
        self.0.push(Measured {
            name: name.to_owned(),
            value,
            n,
            note: String::new(),
        });
    }

    /// A value set earlier.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} read before it was set"))
            .value
    }

    /// Every [`PER_LAYER`] metric in table order, 0 where unset.
    pub fn complete(self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|def| {
                self.0
                    .iter()
                    .find(|m| m.name == def.name)
                    .cloned()
                    .unwrap_or(Measured {
                        name: def.name.to_owned(),
                        value: 0.0,
                        n: 0,
                        note: "not on this workload's path".to_owned(),
                    })
            })
            .collect()
    }
}

/// Looks a definition up in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed (modelled refusals are not failures).
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check or errored. Refusals the model makes on
    /// purpose (shed arrivals) are counted in `ok_share`, not here.
    pub failed: u64,
    /// The metrics of this pass.
    pub metrics: Vec<Measured>,
}

impl RunResult {
    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let unit = def(&m.name).map_or("", |d| d.unit);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name,
                json_number(m.value)
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table: name, value, unit, direction, bound
    /// and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let d = def(&m.name).expect("metric is defined");
            let bound = if d.bound > 0.0 {
                format!("bound {:>4.1}%", d.bound * 100.0)
            } else {
                "ungated".to_owned()
            };
            writeln!(
                out,
                "  {:<44} {:>16} {:<7} {:<6} {bound:<11} n={:<7} {}",
                m.name,
                json_number(m.value),
                d.unit,
                d.better.label(),
                m.n,
                m.note
            )
            .expect("write to string");
        }
        out
    }
}

/// A float as JSON: shortest round-trip digits, never `NaN`/`inf`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// CPU model, core count and compiler: wall-clock numbers from
/// different machines or compilers are not comparable.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown cpu".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine: cpu \"{cpu}\", nproc {nproc}, {}",
        env!("PERFBENCH_RUSTC")
    )
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_bench::json::{parse, Value};

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(all[..i].iter().all(|o| o.name != d.name), "dup {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        // Every gear-suffixed family covers all five gears.
        for family in [
            "runtime.first_request_host_ms",
            "runtime.first_request_sim_ms",
            "criu.restore_set_host_ms",
            "criu.restore_sim_ms",
            "core.start_host_ms",
            "core.start_self_host_ms",
        ] {
            for gear in GEARS {
                assert!(
                    def(&format!("{family}.{gear}")).is_some(),
                    "{family}.{gear}"
                );
            }
        }
    }

    #[test]
    fn the_result_line_parses_with_the_repo_json_reader() {
        let mut layers = LayerValues::default();
        layers.set("criu.read_images_host_ms", 470.123456789, 9);
        let result = RunResult {
            correct: true,
            attempted: 64,
            failed: 0,
            metrics: layers.complete(),
        };
        let line = result.json_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("valid json");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(64.0));
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object missing");
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let read = doc
            .get("metrics")
            .and_then(|m| m.get("criu.read_images_host_ms"))
            .expect("present");
        assert_eq!(
            read.get("value").and_then(Value::as_f64),
            Some(470.123456789)
        );
        assert_eq!(read.get("unit"), Some(&Value::Str("ms".to_owned())));
        // Unset metrics read 0 rather than disappearing.
        let unset = doc
            .get("metrics")
            .and_then(|m| m.get("fleet.events_per_op"))
            .expect("present");
        assert_eq!(unset.get("value").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let str_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(item, "name"), d.name);
            assert_eq!(str_of(item, "unit"), d.unit);
            assert_eq!(str_of(item, "better"), d.better.label());
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(d.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(item, "name"), d.name);
            assert_eq!(str_of(item, "unit"), d.unit);
            assert_eq!(str_of(item, "better"), d.better.label());
        }
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn fingerprint_names_cpu_cores_and_compiler() {
        let fp = fingerprint();
        assert!(fp.contains("nproc") && fp.contains("rustc"), "{fp}");
    }
}
