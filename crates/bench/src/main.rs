//! `prebake-bench`: every table, figure and ablation of the paper in one
//! binary, one registry entry per experiment (the crate docs list the
//! options).
//!
//! `prebake-bench <id>...` runs the named experiments in order: each
//! prints its report and, if it has one, writes its JSON artifact to
//! `HarnessArgs::artifact_path`. `prebake-bench check` runs every
//! experiment at `--quick` and seed 1 and compares it with its golden
//! `baselines/quick/<golden>`: the JSON artifact where the experiment
//! writes one, its report otherwise. A mismatch leaves the actual output
//! at `target/quick/<golden>` and exits 1; a failed `assert!` inside an
//! experiment fails the run as well. Experiments that need the same
//! plain trials share them through one [`Memo`], so each trial set is
//! computed once per process.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use prebake_bench::{fleetmix, parallel_startup_trials, HarnessArgs};
use prebake_core::measure::{StartMode, StartupTrial, TrialRunner};
use prebake_fleet::FunctionProfile;
use prebake_functions::FunctionSpec;
use prebake_runtime::profile::RuntimeProfile;

/// One module per experiment, `src/experiments/<id>.rs`. Each takes the
/// vocabulary they share from here with `use super::*`.
mod experiments {
    use crate::{paper_functions, Memo, Report};
    use prebake_bench::{
        improvement_pct, parallel_startup_trials, speedup_ratio_pct, summarize, HarnessArgs,
    };
    use prebake_core::measure::{StartMode, TrialRunner};
    use prebake_functions::{FunctionSpec, SyntheticSize};
    use prebake_sim::kernel::Kernel;
    use prebake_sim::time::{SimDuration, SimInstant};
    use prebake_stats::summary::{median, quantile};

    pub(crate) mod ablation_extent_restore;
    pub(crate) mod ablation_fleet;
    pub(crate) mod ablation_gateway;
    pub(crate) mod ablation_lazy_restore;
    pub(crate) mod ablation_memcache;
    pub(crate) mod ablation_obs;
    pub(crate) mod ablation_pagestore;
    pub(crate) mod ablation_pool_baseline;
    pub(crate) mod ablation_registry;
    pub(crate) mod ablation_restore_parallel;
    pub(crate) mod ablation_scale;
    pub(crate) mod ablation_snapshot_point;
    pub(crate) mod extension_concurrency;
    pub(crate) mod extension_predump;
    pub(crate) mod extension_runtimes;
    pub(crate) mod fig3_startup;
    pub(crate) mod fig4_phases;
    pub(crate) mod fig5_sizes;
    pub(crate) mod fig6_speedup;
    pub(crate) mod fig7_ecdf;
    pub(crate) mod table1_intervals;
    pub(crate) mod trace_startup;
}

/// One registry entry.
struct Experiment {
    /// The name `prebake-bench <id>` runs it by: its module's name.
    id: &'static str,
    /// Its file under `baselines/quick/`: the JSON artifact's name for
    /// the experiments that write one, the report otherwise.
    golden: &'static str,
    /// Writes the report and returns the JSON artifact, if any.
    run: fn(&HarnessArgs, &Memo, &mut Report) -> Option<String>,
}

/// `id => golden` pairs, each `id` a module of `experiments`.
macro_rules! registry {
    ($($id:ident => $golden:literal,)*) => {
        &[$(Experiment { id: stringify!($id), golden: $golden, run: experiments::$id::run },)*]
    };
}

/// Every experiment, in the order `all` and `check` run them.
const EXPERIMENTS: &[Experiment] = registry! {
    fig3_startup => "fig3_startup.txt",
    fig4_phases => "fig4_phases.txt",
    fig5_sizes => "fig5_sizes.txt",
    fig6_speedup => "fig6_speedup.txt",
    fig7_ecdf => "fig7_ecdf.txt",
    table1_intervals => "table1_intervals.txt",
    extension_runtimes => "extension_runtimes.txt",
    extension_concurrency => "extension_concurrency.txt",
    extension_predump => "extension_predump.txt",
    ablation_pool_baseline => "ablation_pool_baseline.txt",
    ablation_snapshot_point => "ablation_snapshot_point.txt",
    ablation_memcache => "ablation_memcache.txt",
    ablation_lazy_restore => "ablation_lazy_restore.txt",
    ablation_pagestore => "ablation_pagestore.txt",
    trace_startup => "trace_startup.txt",
    ablation_extent_restore => "BENCH_restore.json",
    ablation_fleet => "BENCH_fleet.json",
    ablation_registry => "BENCH_registry.json",
    ablation_restore_parallel => "BENCH_parallel.json",
    ablation_obs => "BENCH_obs.json",
    ablation_scale => "BENCH_scale.json",
    ablation_gateway => "BENCH_gateway.json",
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let check = argv == ["check"];
    let argv = if check {
        vec!["all".to_owned(), "--quick".to_owned()]
    } else {
        argv
    };
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let (selected, args) = HarnessArgs::parse(&argv, &ids);
    let memo = Memo::default();
    let mut moved = 0;
    for e in selected.into_iter().map(|i| &EXPERIMENTS[i]) {
        let started = Instant::now();
        if check {
            eprint!("{} --quick", e.id);
        }
        let mut report = Report::default();
        let artifact = (e.run)(&args, &memo, &mut report);
        if !check {
            if let Some(json) = &artifact {
                args.write_artifact(e.golden, json);
            }
            print!("{}", report.0);
            continue;
        }
        // Recorded, not gated: shared runners are too noisy for a time
        // bound.
        eprintln!(" took {:.1} s", started.elapsed().as_secs_f64());
        if !matches_golden(e.golden, &artifact.unwrap_or(report.0)) {
            moved += 1;
        }
    }
    if check {
        println!("check: {moved} of {} goldens moved", EXPERIMENTS.len());
        std::process::exit(i32::from(moved > 0));
    }
}

/// Compares `actual` with `baselines/quick/<golden>`. On a mismatch
/// writes it to `target/quick/<golden>` and prints the `diff -u` that
/// shows the move.
fn matches_golden(golden: &str, actual: &str) -> bool {
    let expected = format!("baselines/quick/{golden}");
    if std::fs::read_to_string(&expected).is_ok_and(|text| text == actual) {
        return true;
    }
    let path = format!("target/quick/{golden}");
    std::fs::create_dir_all("target/quick").expect("mkdir target/quick");
    std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("FAILED: {golden} moved: diff -u {expected} {path}");
    false
}

/// The paper's three real functions (Figs. 3, 4 and 7).
fn paper_functions() -> [FunctionSpec; 3] {
    [
        FunctionSpec::noop(),
        FunctionSpec::markdown(),
        FunctionSpec::image_resizer(),
    ]
}

/// An experiment's report: lines of text the runner prints or compares
/// with the golden.
#[derive(Default)]
struct Report(String);

impl Report {
    /// Appends one line.
    fn line(&mut self, text: fmt::Arguments) {
        writeln!(self.0, "{text}").expect("a String takes every write");
    }

    /// Appends a horizontal rule sized to the report tables.
    fn hr(&mut self) {
        self.line(format_args!("{}", "-".repeat(78)));
    }

    /// Appends a table's column header between two rules.
    fn header(&mut self, columns: fmt::Arguments) {
        self.hr();
        self.line(columns);
        self.hr();
    }
}

/// Measurements that several experiments read, computed once per process
/// for each distinct input. Only results are kept, never runners or
/// images.
#[derive(Default)]
struct Memo {
    /// Plain startup trials: `TrialRunner::new` then
    /// `parallel_startup_trials`, no runner options. Each trial carries
    /// its snapshot size.
    trials: RefCell<HashMap<TrialKey, Rc<[StartupTrial]>>>,
    /// `fleetmix::fig5_profiles` by profiling repetitions and seed.
    profiles: RefCell<HashMap<(usize, u64), Vec<FunctionProfile>>>,
}

/// Every input of a plain trial set: the spec's name and runtime profile
/// (`with_runtime` keeps the name), the start mode, repetitions and base
/// seed.
type TrialKey = (String, RuntimeProfile, StartMode, usize, u64);

impl Memo {
    /// `reps` startup trials of `spec` under `mode` from seed `seed` on.
    ///
    /// # Panics
    ///
    /// Panics if the runner cannot be built or a trial fails.
    fn trials(
        &self,
        spec: &FunctionSpec,
        mode: StartMode,
        reps: usize,
        seed: u64,
    ) -> Rc<[StartupTrial]> {
        let key = (spec.name().to_owned(), spec.runtime(), mode, reps, seed);
        let mut sets = self.trials.borrow_mut();
        let trials = sets.entry(key).or_insert_with(|| {
            let runner = TrialRunner::new(spec.clone(), mode).expect("build runner");
            parallel_startup_trials(&runner, reps, seed).into()
        });
        Rc::clone(trials)
    }

    /// The Fig. 5 mix profiled under every gear (`fleetmix::fig5_profiles`).
    fn fig5_profiles(&self, profile_reps: usize, seed: u64) -> Vec<FunctionProfile> {
        let mut sets = self.profiles.borrow_mut();
        let profiles = sets
            .entry((profile_reps, seed))
            .or_insert_with(|| fleetmix::fig5_profiles(profile_reps, seed));
        profiles.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_golden_belongs_to_exactly_one_experiment() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/quick");
        let mut goldens: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        goldens.sort();
        let mut named: Vec<&str> = EXPERIMENTS.iter().map(|e| e.golden).collect();
        named.sort();
        assert_eq!(goldens, named, "one registry entry per golden");
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "ids are unique");
    }

    #[test]
    fn memo_matches_direct_trials_and_keys_on_the_runtime() {
        let memo = Memo::default();
        let java = FunctionSpec::noop();
        let node = FunctionSpec::noop().with_runtime(RuntimeProfile::NodeLike);
        let direct = |spec: &FunctionSpec| {
            let runner = TrialRunner::new(spec.clone(), StartMode::Vanilla).unwrap();
            parallel_startup_trials(&runner, 3, 7)
        };
        for spec in [&java, &node] {
            let memoized = memo.trials(spec, StartMode::Vanilla, 3, 7);
            for (m, d) in memoized.iter().zip(direct(spec)) {
                assert_eq!(
                    (m.startup_ms, m.first_response_ms, m.probes),
                    (d.startup_ms, d.first_response_ms, d.probes)
                );
            }
        }
        let again = memo.trials(&java, StartMode::Vanilla, 3, 7);
        assert!(Rc::ptr_eq(
            &again,
            &memo.trials(&java, StartMode::Vanilla, 3, 7)
        ));
        let other = memo.trials(&node, StartMode::Vanilla, 3, 7);
        assert!(
            !Rc::ptr_eq(&again, &other),
            "a runtime profile is its own set"
        );
        assert_ne!(again[0].startup_ms, other[0].startup_ms);
    }
}
