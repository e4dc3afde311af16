//! # prebake-bench
//!
//! Shared harness utilities for `prebake-bench`, the one binary that
//! regenerates every table, figure and ablation of the paper (`DESIGN.md`
//! §4 indexes them, `EXPERIMENTS.md` reports paper-vs-measured results):
//!
//! ```text
//! prebake-bench <id>...|all [--reps N] [--quick] [--seed S]
//! prebake-bench check
//! ```
//!
//! `--reps` sets the repetitions per treatment (default 200, the paper's
//! count), `--quick` sets 30 for smoke runs, `--seed` the base RNG seed
//! (default 1). `check` runs every experiment at `--quick` and seed 1
//! against its golden under `baselines/quick/`. The ablations run their
//! full experiment at `FULL_REPS` repetitions or more and a reduced smoke
//! experiment below it ([`HarnessArgs::is_full`]).
//!
//! Repetitions fan out across host threads with crossbeam; each trial
//! builds its own virtual machine, so parallelism cannot perturb the
//! measured virtual times.

#![warn(missing_docs)]

pub mod fleetmix;
pub mod json;

use prebake_core::measure::{StartupTrial, TrialRunner};
use prebake_stats::bootstrap::{median_ci, ConfInterval};
use prebake_stats::summary::median;

/// Command-line options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// Repetitions per treatment.
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
}

/// Repetitions at or above which a JSON ablation runs its full
/// experiment. Trial counts are capped here, so every larger value runs
/// the identical experiment; `--quick` (30) sits below it.
pub(crate) const FULL_REPS: usize = 40;

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { reps: 200, seed: 1 }
    }
}

impl HarnessArgs {
    /// Parses `argv` (without the program name) into the experiments it
    /// names, as indices into `ids` (`all` names every one), and the
    /// shared options. Exits with status 2 and the usage line on an
    /// unknown id or flag, a bad flag value, or no id at all.
    pub fn parse(argv: &[String], ids: &[&str]) -> (Vec<usize>, HarnessArgs) {
        HarnessArgs::parse_from(argv, ids).unwrap_or_else(|msg| {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        })
    }

    fn parse_from(argv: &[String], ids: &[&str]) -> Result<(Vec<usize>, HarnessArgs), String> {
        let mut args = HarnessArgs::default();
        let mut selected = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--quick" => args.reps = 30,
                "--reps" => {
                    args.reps = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--reps needs a positive number")?;
                }
                "--seed" => {
                    args.seed = argv
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs a number")?;
                }
                "all" => selected.extend(0..ids.len()),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                id => selected.push(
                    ids.iter()
                        .position(|&known| known == id)
                        .ok_or_else(|| format!("unknown experiment {id}"))?,
                ),
            }
        }
        if selected.is_empty() {
            return Err("no experiment named".to_owned());
        }
        Ok((selected, args))
    }

    /// Whether this is a full run rather than a quick smoke run.
    pub fn is_full(&self) -> bool {
        self.reps >= FULL_REPS
    }

    /// Repetitions an ablation runs per treatment: the requested count,
    /// capped at `FULL_REPS`.
    pub fn capped_reps(&self) -> usize {
        self.reps.min(FULL_REPS)
    }

    /// Whether this run reproduces the checked-in baselines bit for
    /// bit: a full run under the default seed.
    pub fn is_baseline_run(&self) -> bool {
        self.is_full() && self.seed == 1
    }

    /// Where the JSON artifact `name` belongs: only a baseline run
    /// refreshes the checked-in copy at the repository root; quick or
    /// reseeded runs land in the gitignored `results/` directory.
    pub fn artifact_path(&self, name: &str) -> String {
        if self.is_baseline_run() {
            name.to_owned()
        } else {
            format!("results/{name}")
        }
    }

    /// Writes the JSON artifact `name` to its
    /// `HarnessArgs::artifact_path` and returns that path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_artifact(&self, name: &str, json: &str) -> String {
        let path = self.artifact_path(name);
        if path != name {
            std::fs::create_dir_all("results").expect("mkdir results");
        }
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        path
    }
}

const USAGE: &str = "usage: prebake-bench <id>...|all [--reps N] [--quick] [--seed S]
       prebake-bench check";

/// Runs `reps` startup trials in parallel across host threads.
///
/// # Panics
///
/// Panics if any trial fails — experiment configurations are expected to
/// be valid.
pub fn parallel_startup_trials(runner: &TrialRunner, reps: usize, seed0: u64) -> Vec<StartupTrial> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(reps.max(1));
    let mut results: Vec<Option<StartupTrial>> = vec![None; reps];
    let chunk = reps.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for (t, slice) in results.chunks_mut(chunk).enumerate() {
            let base = seed0 + (t * chunk) as u64;
            scope.spawn(move |_| {
                for (i, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(
                        runner
                            .startup_trial(base + i as u64)
                            .expect("startup trial failed"),
                    );
                }
            });
        }
    })
    .expect("trial thread panicked");
    results.into_iter().map(|t| t.unwrap()).collect()
}

/// Summary of one treatment's sample: median + bootstrap 95 % CI.
#[derive(Debug, Clone, Copy)]
pub struct TreatmentSummary {
    /// Sample median (ms).
    pub median_ms: f64,
    /// 95 % bootstrap CI of the median.
    pub ci: ConfInterval,
}

/// Computes the paper's standard per-treatment summary.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(samples_ms: &[f64], seed: u64) -> TreatmentSummary {
    TreatmentSummary {
        median_ms: median(samples_ms),
        ci: median_ci(samples_ms, 2000, 0.95, seed),
    }
}

/// Formats an improvement percentage `(old - new) / old`.
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    (old - new) / old * 100.0
}

/// Formats the paper's speed-up ratio `old / new` as a percentage
/// (e.g. 403.96 for "403.96 %").
pub fn speedup_ratio_pct(old: f64, new: f64) -> f64 {
    old / new * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebake_core::measure::StartMode;
    use prebake_functions::FunctionSpec;

    /// Runs `reps` startup trials serially with the same seed schedule as
    /// `parallel_startup_trials` — the reference the parallel fan-out must
    /// reproduce bit-for-bit (each trial builds its own virtual machine, so
    /// host threading can never leak into virtual time).
    ///
    /// # Panics
    ///
    /// Panics if any trial fails.
    fn serial_startup_trials(runner: &TrialRunner, reps: usize, seed0: u64) -> Vec<StartupTrial> {
        (0..reps)
            .map(|i| {
                runner
                    .startup_trial(seed0 + i as u64)
                    .expect("startup trial failed")
            })
            .collect()
    }

    #[test]
    fn quick_and_reseeded_runs_stay_out_of_the_checked_in_baselines() {
        let ids = ["fig5_sizes", "ablation_fleet"];
        let try_parse = |argv: &[&str]| {
            HarnessArgs::parse_from(
                &argv.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
                &ids,
            )
        };
        let parse = |flags: &[&str]| try_parse(&[&["fig5_sizes"], flags].concat()).unwrap().1;
        // Ids select experiments in the order named; `all` selects each.
        assert_eq!(
            try_parse(&["ablation_fleet", "fig5_sizes"]).unwrap().0,
            [1, 0]
        );
        assert_eq!(try_parse(&["--quick", "all"]).unwrap().0, [0, 1]);
        let default = parse(&[]);
        assert!(default.is_full());
        assert_eq!(default.artifact_path("BENCH_x.json"), "BENCH_x.json");
        let quick = parse(&["--quick"]);
        assert!(!quick.is_full());
        assert_eq!(quick.artifact_path("BENCH_x.json"), "results/BENCH_x.json");
        let reseeded = parse(&["--seed", "2"]);
        assert!(reseeded.is_full());
        assert_eq!(
            reseeded.artifact_path("BENCH_x.json"),
            "results/BENCH_x.json"
        );
        // The threshold itself is a full run; one below is not.
        assert!(parse(&["--reps", "40"]).is_full());
        assert!(!parse(&["--reps", "39"]).is_full());
        assert_eq!(default.capped_reps(), FULL_REPS);
        assert_eq!(quick.capped_reps(), 30);
        // Zero repetitions is a usage error, not an empty experiment; so
        // are an unknown id, an unknown flag and naming no experiment.
        assert!(try_parse(&["all", "--reps", "0"]).is_err());
        assert!(try_parse(&["all", "--reps"]).is_err());
        assert!(try_parse(&["all", "--bogus"]).is_err());
        assert!(try_parse(&["fig9_missing"]).is_err());
        assert!(try_parse(&["--quick"]).is_err());
        assert!(try_parse(&[]).is_err());
    }

    #[test]
    fn parallel_trials_cover_all_seeds() {
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::Vanilla).unwrap();
        let trials = parallel_startup_trials(&runner, 8, 100);
        assert_eq!(trials.len(), 8);
        // Deterministic: same seeds give the same set of startups.
        let again = parallel_startup_trials(&runner, 8, 100);
        for (a, b) in trials.iter().zip(&again) {
            assert_eq!(a.startup_ms, b.startup_ms);
        }
    }

    #[test]
    fn parallel_trials_match_serial_bit_for_bit() {
        // The fan-out must be a pure scheduling change: same seeds, same
        // virtual-time results, in the same order.
        let runner = TrialRunner::new(FunctionSpec::noop(), StartMode::PrebakeNoWarmup).unwrap();
        let serial = serial_startup_trials(&runner, 7, 42);
        let parallel = parallel_startup_trials(&runner, 7, 42);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.startup_ms, p.startup_ms);
            assert_eq!(s.first_response_ms, p.first_response_ms);
            assert_eq!(s.probes, p.probes);
        }
    }

    #[test]
    fn summarize_produces_ci_containing_median() {
        let data: Vec<f64> = (0..50).map(|i| 100.0 + (i % 7) as f64).collect();
        let s = summarize(&data, 1);
        assert!(s.ci.contains(s.median_ms));
    }

    #[test]
    fn ratio_helpers() {
        assert!((improvement_pct(100.0, 60.0) - 40.0).abs() < 1e-9);
        assert!((speedup_ratio_pct(219.8, 54.4) - 404.04).abs() < 0.5);
    }
}
