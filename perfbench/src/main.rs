//! `perfbench`: the two-clock benchmark of the prebake workspace.
//!
//! Two ways in. The benchmark driver runs one pass of one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and reads the JSON object on the last line of standard output. A
//! person runs everything with one command:
//!
//! ```text
//! perfbench all    [--seed S] [--quick]   # four workloads, then the traced pass
//! perfbench trace  [--seed S] [--quick]   # the traced pass alone
//! perfbench repeat N [--seed S] [--quick] # N invocations, spread against the bounds
//! ```
//!
//! Those run each workload in a child process of its own, so peak RSS
//! is per workload. Every form exits non-zero when a check fails.

mod alloc;
mod report;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use prebake_bench::json::{self, Value};

use report::END_TO_END;
use stats::{iqr_share, median, range_share, sorted};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds of timed work a comparable run is sized for — the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 18;

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  perfbench all [--seed S] [--quick]
  perfbench trace [--seed S] [--quick]
  perfbench repeat <N> [--seed S] [--quick]
workloads: restore_gears bake_dump fleet_stream fleet_churn";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Flags shared by every form.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    quick: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_owned())?,
                );
            }
            "--seconds" => {
                flags.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds needs a whole number".to_owned())?,
                );
            }
            "--trace" => {
                flags.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--quick" => flags.quick = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_owned()),
        }
    }
    Ok(flags)
}

impl Flags {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(1)
    }

    /// `--quick` means two rounds per workload: a smoke run whose
    /// numbers are marked non-comparable.
    fn seconds(&self) -> u64 {
        if self.quick {
            1
        } else {
            self.seconds.unwrap_or(RUN_SECONDS)
        }
    }
}

/// One pass of one workload, in this process.
fn run_one(flags: &Flags, name: &str) -> ExitCode {
    println!("{}", report::fingerprint());
    let trace = flags.trace.unwrap_or(false);
    let Some(result) = workloads::run(name, flags.seed(), flags.seconds(), trace) else {
        return usage(&format!("unknown workload {name}"));
    };
    println!("{}", result.json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child pass reported.
struct ChildResult {
    ok: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs one pass in a child process, echoing its table, and reads the
/// result line back.
fn run_child(name: &str, flags: &Flags, trace: bool, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &flags.seed().to_string()])
        .args(["--seconds", &flags.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{body}");
    }
    if !stderr.trim().is_empty() {
        eprint!("{stderr}");
    }
    let doc = json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let Some(Value::Obj(members)) = doc.get("metrics") else {
        return Err(format!("{name}: result line has no metrics"));
    };
    let metrics = members
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct") == Some(&Value::Bool(true));
    Ok(ChildResult {
        ok: correct && output.status.success(),
        metrics,
    })
}

/// `all` and `trace`: every workload, each in its own process.
fn run_all(flags: &Flags, end_to_end: bool) -> ExitCode {
    println!("{}", report::fingerprint());
    let mut failed = Vec::new();
    let passes: &[bool] = if end_to_end { &[false, true] } else { &[true] };
    for &trace in passes {
        for name in workloads::NAMES {
            match run_child(name, flags, trace, true) {
                Ok(child) if child.ok => {}
                Ok(_) => failed.push(format!("{name}: a check failed")),
                Err(err) => failed.push(err),
            }
        }
    }
    if failed.is_empty() {
        println!("perfbench: all checks passed");
        ExitCode::SUCCESS
    } else {
        for line in &failed {
            println!("perfbench: FAILED — {line}");
        }
        ExitCode::FAILURE
    }
}

/// `repeat N`: N end-to-end invocations; prints min / median / max and
/// the spreads of every metric beside its bound, and fails when a
/// spread exceeds its bound or a modelled value differs at all.
fn run_repeat(flags: &Flags, n: usize) -> ExitCode {
    println!("{}", report::fingerprint());
    println!(
        "repeat: {n} invocations of every workload, seed {}, {} s",
        flags.seed(),
        flags.seconds()
    );
    let mut bad = false;
    for name in workloads::NAMES {
        let mut runs: Vec<ChildResult> = Vec::with_capacity(n);
        for i in 0..n {
            match run_child(name, flags, false, false) {
                Ok(child) => {
                    bad |= !child.ok;
                    runs.push(child);
                }
                Err(err) => {
                    println!("{name} run {i}: {err}");
                    bad = true;
                }
            }
        }
        println!(
            "{name}\n  {:<18} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
            "metric", "min", "median", "max", "range/med", "iqr/med", "bound"
        );
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == def.name))
                .map(|&(_, v)| v)
                .collect();
            if values.len() < 2 {
                continue;
            }
            let s = sorted(&values);
            let (range, iqr) = (range_share(&s), iqr_share(&s));
            // Modelled values and shares come from the virtual clock:
            // the same seed must give the same digits every time.
            let exact = !def.name.starts_with("host_") && def.name != "setup_s";
            let verdict = if exact && range != 0.0 {
                bad = true;
                "DIFFERS (must repeat exactly)"
            } else if range > def.bound {
                bad = true;
                "SPREAD OVER BOUND"
            } else {
                ""
            };
            println!(
                "  {:<18} {:>14.6} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>6.1}% {verdict}",
                def.name,
                s[0],
                median(&s),
                s[s.len() - 1],
                range * 100.0,
                iqr * 100.0,
                def.bound * 100.0,
            );
        }
    }
    if bad {
        println!("repeat: FAILED");
        ExitCode::FAILURE
    } else {
        println!("repeat: every spread within its bound, every modelled value identical");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse(&args) {
        Ok(flags) => flags,
        Err(msg) => return usage(&msg),
    };
    match (
        flags.positional.first().map(String::as_str),
        &flags.workload,
    ) {
        (None, Some(name)) => run_one(&flags, name),
        (Some("all"), None) => run_all(&flags, true),
        (Some("trace"), None) => run_all(&flags, false),
        (Some("repeat"), None) => match flags.positional.get(1).and_then(|n| n.parse().ok()) {
            Some(n) if n >= 2 => run_repeat(&flags, n),
            _ => usage("repeat needs a count of at least 2"),
        },
        _ => usage("name one workload with --workload, or a subcommand"),
    }
}
