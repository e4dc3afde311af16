//! The four workloads and the passes that run them.
//!
//! Every workload has the same shape: `R >= 8` identical **rounds of
//! fixed work** (never fixed time), one thread, round `r` seeded with
//! `seed + r`. The end-to-end pass times the rounds with tracing off;
//! the traced pass re-runs a few rounds with every composite call split
//! at the crate boundaries and a host-time span around each piece.
//!
//! `--seconds` selects *how many* rounds run — a fixed function of the
//! flag, calibrated so that many seconds of timed work result on the
//! 2-vCPU reference box — never how long a round may take. The same
//! flags therefore always mean the same work, and every `sim_*` metric
//! repeats exactly.

pub mod bake_dump;
pub mod fleet_churn;
mod fleet_common;
pub mod fleet_stream;
pub mod restore_gears;

use std::time::Instant;

use crate::report::{peak_rss_mib, LayerValues, Measured, RunResult};
use crate::span::{chrome_trace_json, self_ns_by_layer, self_times_ns, Tracer};
use crate::stats::{iqr_share, median, tail};

/// Workload names, in run order.
pub const NAMES: [&str; 4] = ["restore_gears", "bake_dump", "fleet_stream", "fleet_churn"];

/// Fewest timed rounds a comparable run may have.
pub const MIN_ROUNDS: usize = 8;

/// Rounds a `--quick` smoke run times (its numbers are not comparable).
pub const QUICK_ROUNDS: usize = 2;

/// The smallest of a set of wall times. On a shared box contention only
/// ever *adds* time, in bursts that last seconds: across ten runs the
/// median round of `fleet_stream` ranged 68% while the fastest round
/// ranged 20% (see the README's noise section). The fastest of `R >= 8`
/// rounds is the one least disturbed, so host-clock metrics report it.
pub fn fastest(wall_s: &[f64]) -> f64 {
    wall_s.iter().copied().fold(f64::INFINITY, f64::min)
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and verified.
    Ok,
    /// Refused by the model on purpose (a shed arrival). Misses the
    /// latency limit and `ok_share`, but is not a benchmark failure.
    Refused,
    /// Errored or failed a check: the command exits non-zero.
    Failed,
}

/// One op of a round.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Modelled latency, virtual ms (meaningless unless `Ok`).
    pub sim_ms: f64,
    /// How it ended.
    pub outcome: Outcome,
}

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall seconds of the timed part (fixtures and checks excluded).
    pub host_s: f64,
    /// Every op attempted, in op order.
    pub ops: Vec<Op>,
    /// One line per failed check, for the log.
    pub failures: Vec<String>,
}

impl Round {
    /// Marks a round-level check failed: the round's first op takes the
    /// blame so the failure counts against `ok_share` exactly once.
    pub fn fail(&mut self, why: String) {
        if let Some(op) = self.ops.iter_mut().find(|op| op.outcome == Outcome::Ok) {
            op.outcome = Outcome::Failed;
        }
        self.failures.push(why);
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Wall seconds one round's timed part takes on the reference box;
    /// `--seconds / NOMINAL_ROUND_S` rounds run.
    const NOMINAL_ROUND_S: f64;
    /// The virtual latency limit an op must meet, ms.
    const SLO_MS: f64;
    /// Rounds the traced pass runs in each of its two modes.
    const TRACE_ROUNDS: usize;

    /// Builds inputs, bakes snapshots and takes reference replies. Only
    /// generated inputs may depend on `seed`.
    fn setup(seed: u64) -> Self;

    /// Runs one round of fixed work. With the tracer on, composite
    /// calls are split at the crate boundaries and each piece gets a
    /// span; the modelled results must not differ.
    fn round(&mut self, seed: u64, tracer: &mut Tracer) -> Round;

    /// Per-layer extras of the traced pass: micro-kernels and variant
    /// rounds for the layers this workload loads.
    fn layers(&mut self, seed: u64, traced: &[Round], tracer: &mut Tracer, out: &mut LayerValues);
}

/// Rounds a run of `seconds` times: at least two, and a fixed function
/// of the flag alone.
pub fn rounds_for<W: Workload>(seconds: u64) -> usize {
    ((seconds as f64 / W::NOMINAL_ROUND_S).floor() as usize).max(QUICK_ROUNDS)
}

/// Accumulates ops across rounds into the `sim_*` and share metrics.
#[derive(Debug, Default)]
struct Pool {
    attempted: u64,
    ok: u64,
    failed: u64,
    within_slo: u64,
    sim_ms: Vec<f64>,
    failures: Vec<String>,
}

impl Pool {
    /// A pool whose latency buffer never reallocates mid-run: a doubling
    /// `Vec` of half a million latencies would put a seed-dependent bump
    /// in the peak RSS being measured.
    fn sized(latencies: usize) -> Pool {
        Pool {
            sim_ms: Vec::with_capacity(latencies),
            ..Pool::default()
        }
    }

    fn add(&mut self, round: Round, slo_ms: f64) {
        for op in &round.ops {
            self.attempted += 1;
            match op.outcome {
                Outcome::Ok => {
                    self.ok += 1;
                    self.sim_ms.push(op.sim_ms);
                    if op.sim_ms <= slo_ms {
                        self.within_slo += 1;
                    }
                }
                Outcome::Refused => {}
                Outcome::Failed => self.failed += 1,
            }
        }
        self.failures.extend(round.failures);
    }
}

fn print_failures(failures: &[String]) {
    for line in failures.iter().take(20) {
        println!("  FAILED CHECK: {line}");
    }
    if failures.len() > 20 {
        println!("  ... and {} more", failures.len() - 20);
    }
}

/// The end-to-end pass: tracing off, setup timed, `rounds` timed rounds.
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: u64) -> RunResult {
    let rounds = rounds_for::<W>(seconds);
    let comparable = rounds >= MIN_ROUNDS;
    let mut tracer = Tracer::new(false);

    // Set-up: inputs, baking, reference replies and one untimed warm-up
    // round, so caches are full and lazy state is built before timing.
    // Once per run: at 2–5 s a set-up, repeats do not fit the driver's
    // time cap, and its median over many runs does the steadying.
    let started = Instant::now();
    let mut workload = W::setup(seed);
    let warmup = workload.round(seed, &mut tracer);
    let setup_s = started.elapsed().as_secs_f64();
    // Warm-up ops are checked but not pooled: a failure still fails the
    // run.
    let ops_per_round = warmup.ops.len();
    let warmup_failures = warmup.failures;

    let mut pool = Pool::sized(ops_per_round * rounds);
    let mut round_s = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let round = workload.round(seed.wrapping_add(r as u64), &mut tracer);
        round_s.push(round.host_s);
        pool.add(round, W::SLO_MS);
    }
    let failed = pool.failed + warmup_failures.len() as u64;
    pool.failures.extend(warmup_failures);

    let timed_s: f64 = round_s.iter().sum();
    let mut sim_sorted = std::mem::take(&mut pool.sim_ms);
    sim_sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    let (p50, t) = if sim_sorted.is_empty() {
        (0.0, None)
    } else {
        (median(&sim_sorted), Some(tail(&sim_sorted)))
    };
    let attempted = pool.attempted.max(1) as f64;
    let m = |name: &str, value: f64, n: usize, note: String| Measured {
        name: name.to_owned(),
        value,
        n,
        note,
    };
    let metrics = vec![
        m("setup_s", setup_s, 1, "incl. one warm-up round".to_owned()),
        m(
            "host_ops_per_s",
            ops_per_round as f64 / fastest(&round_s),
            round_s.len(),
            format!("{ops_per_round} ops/round over the fastest round"),
        ),
        m("host_peak_rss_mb", peak_rss_mib(), 1, "VmHWM".to_owned()),
        m("sim_p50_ms", p50, sim_sorted.len(), String::new()),
        m(
            "sim_tail_ms",
            t.map_or(0.0, |t| t.value),
            sim_sorted.len(),
            t.map_or(String::new(), |t| {
                format!("{} with {} samples beyond", t.label(), t.beyond)
            }),
        ),
        m(
            "sim_slo_ok_share",
            pool.within_slo as f64 / attempted,
            pool.attempted as usize,
            format!("limit {} virtual ms", W::SLO_MS),
        ),
        m(
            "ok_share",
            pool.ok as f64 / attempted,
            pool.attempted as usize,
            String::new(),
        ),
    ];

    println!(
        "{}: seed {seed}, {rounds} rounds x {ops_per_round} ops, timed {timed_s:.2} s \
         (fastest round {:.3} s, median {:.3} s, IQR {:.1}%){}",
        W::NAME,
        fastest(&round_s),
        median(&round_s),
        iqr_share(&round_s) * 100.0,
        if comparable {
            ""
        } else {
            " — QUICK RUN, NUMBERS NOT COMPARABLE"
        },
    );
    let walls: Vec<String> = round_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  round wall (s): {}", walls.join(" "));
    print_failures(&pool.failures);
    let result = RunResult {
        correct: failed == 0 && pool.failures.is_empty(),
        attempted: pool.attempted.max(1),
        failed,
        metrics,
    };
    print!("{}", result.table());
    result
}

/// The traced pass: `TRACE_ROUNDS` rounds with tracing off and as many
/// with it on, interleaved, then the workload's per-layer extras. The
/// spans are written to `out/trace_<workload>.json`.
pub fn run_traced<W: Workload>(seed: u64, seconds: u64) -> RunResult {
    let rounds = if rounds_for::<W>(seconds) >= MIN_ROUNDS {
        W::TRACE_ROUNDS
    } else {
        1
    };
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut workload = W::setup(seed);
    let mut pool = Pool::default();
    pool.failures
        .extend(workload.round(seed, &mut off).failures);

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_rounds = Vec::new();
    let mut ops = 0usize;
    let mut mismatches = 0usize;
    for r in 0..rounds {
        let round_seed = seed.wrapping_add(r as u64);
        let plain = workload.round(round_seed, &mut off);
        let open = tracer.begin("perfbench", "round");
        let traced = workload.round(round_seed, &mut tracer);
        tracer.end(open);
        // Splitting a composite call must not change what it models.
        mismatches += plain
            .ops
            .iter()
            .zip(&traced.ops)
            .filter(|(a, b)| a.sim_ms.to_bits() != b.sim_ms.to_bits() || a.outcome != b.outcome)
            .count();
        plain_s.push(plain.host_s);
        traced_s.push(traced.host_s);
        ops += traced.ops.len();
        pool.add(plain, W::SLO_MS);
        traced_rounds.push(traced);
    }
    if mismatches > 0 {
        pool.failures.push(format!(
            "{mismatches} ops modelled differently with the composite calls split"
        ));
    }

    let mut out = LayerValues::default();
    workload.layers(seed, &traced_rounds, &mut tracer, &mut out);
    for round in traced_rounds {
        pool.add(round, W::SLO_MS);
    }

    // The harness's own numbers: what tracing costs, how steady rounds
    // are, and what an op allocates.
    let spans = tracer.spans();
    let (allocs, alloc_bytes) = spans
        .iter()
        .filter(|s| s.layer == "perfbench" && s.name == "round")
        .fold((0, 0), |(n, bytes), s| {
            (n + s.allocs, bytes + s.alloc_bytes)
        });
    out.set(
        "perfbench.trace_overhead_share",
        fastest(&traced_s) / fastest(&plain_s) - 1.0,
        rounds,
    );
    let all_s: Vec<f64> = plain_s.iter().chain(&traced_s).copied().collect();
    out.set("perfbench.round_iqr_share", iqr_share(&all_s), all_s.len());
    out.set("perfbench.allocs_per_op", allocs as f64 / ops as f64, ops);
    out.set(
        "perfbench.alloc_kib_per_op",
        alloc_bytes as f64 / 1024.0 / ops as f64,
        ops,
    );

    // Self times partition each root span, so their sum is the wall
    // time under trace — checked here, not assumed.
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let selfs: u64 = self_times_ns(spans).iter().sum();
    if roots.abs_diff(selfs) as f64 > roots as f64 * 0.01 {
        pool.failures.push(format!(
            "span self times sum to {selfs} ns, roots to {roots} ns"
        ));
    }
    println!(
        "{}: traced pass, seed {seed}, {rounds} rounds per mode; self time by layer:",
        W::NAME
    );
    for (layer, ns) in self_ns_by_layer(spans) {
        println!(
            "  {layer:<10} {:>10.1} ms {:>5.1}%",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / roots.max(1) as f64
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{}.json", W::NAME));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(spans)))
    {
        Ok(()) => println!("  wrote {} ({} spans)", path.display(), spans.len()),
        Err(err) => pool
            .failures
            .push(format!("writing {}: {err}", path.display())),
    }

    print_failures(&pool.failures);
    let result = RunResult {
        correct: pool.failed == 0 && pool.failures.is_empty(),
        attempted: pool.attempted.max(1),
        failed: pool.failed,
        metrics: out.complete(),
    };
    print!("{}", result.table());
    result
}

/// Runs one pass of the workload called `name`.
pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<RunResult> {
    fn pass<W: Workload>(seed: u64, seconds: u64, trace: bool) -> RunResult {
        if trace {
            run_traced::<W>(seed, seconds)
        } else {
            run_end_to_end::<W>(seed, seconds)
        }
    }
    Some(match name {
        restore_gears::RestoreGears::NAME => {
            pass::<restore_gears::RestoreGears>(seed, seconds, trace)
        }
        bake_dump::BakeDump::NAME => pass::<bake_dump::BakeDump>(seed, seconds, trace),
        fleet_stream::FleetStream::NAME => pass::<fleet_stream::FleetStream>(seed, seconds, trace),
        fleet_churn::FleetChurn::NAME => pass::<fleet_churn::FleetChurn>(seed, seconds, trace),
        _ => return None,
    })
}

/// Fastest of the durations recorded under `layer`/`name` by ops
/// numbered `from_op` or later, and how many there were.
pub fn span_fastest_ms(
    tracer: &Tracer,
    layer: &str,
    name: &str,
    from_op: u64,
) -> Option<(f64, usize)> {
    let d = tracer.durations_ms(layer, name, from_op);
    (!d.is_empty()).then(|| (fastest(&d), d.len()))
}

/// Times `calls` runs of `f`, returning the fastest in ms.
pub fn fastest_call_ms(calls: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    fastest(&times)
}

/// Calls a cheap layer kernel is timed over; the fastest is reported.
pub const CALLS: usize = 9;
