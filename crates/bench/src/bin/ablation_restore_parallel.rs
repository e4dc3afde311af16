//! Ablation 9: parallel sharded restore, fault-order layout, compaction.
//!
//! Three restore-side levers over the same baked snapshots, gated
//! against the committed vectored-eager baseline of `BENCH_restore.json`
//! (89.3953 ms p50 to first response on the big synthetic function):
//!
//! 1. **Parallel sharded restore** — the coalesced extent table is
//!    partitioned into per-worker shards over disjoint ranges, each
//!    shard's cost measured on the virtual clock and charged as
//!    overlapped virtual time (wall = max shard + a per-shard spawn
//!    tax). The host installs the shards one after another: their pages
//!    are views of the image, so host threads would share no work. Two
//!    shards must already beat the serial baseline.
//! 2. **Fault-order image layout** — the offline `repack` pass rewrites
//!    `pages.img` into recorded fault order, turning the prefetch read
//!    from a seek per run into one sequential stream.
//! 3. **Hot-image compaction** — `--compact` drops never-faulted pages
//!    into the fallback layer, shrinking the bytes a cold start touches;
//!    correctness is covered by the bit-identity fallback proptests.
//!
//! Writes `BENCH_parallel.json`; with the default `--seed` the file is
//! bit-reproducible (tier-1 diffs the `--quick` artifact against
//! `baselines/quick/BENCH_parallel.json`).

use prebake_bench::{hr, improvement_pct, parallel_startup_trials, HarnessArgs};
use prebake_core::measure::{StartMode, StartupTrial, TrialRunner};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_stats::summary::quantile;

/// Committed vectored-eager p50 on synthetic-big (`BENCH_restore.json`).
const BASELINE_BIG_P50_MS: f64 = 89.3953;

/// Shard counts swept over the eager path (1 = the serial baseline).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One treatment's summary, folded from raw trials.
struct Treatment {
    startup_p50: f64,
    p50: f64,
    p95: f64,
    shards: usize,
    seek_bytes_avoided: u64,
    pages_compacted: usize,
}

fn run(runner: &TrialRunner, reps: usize, seed: u64) -> Treatment {
    let trials = parallel_startup_trials(runner, reps, seed);
    let startup: Vec<f64> = trials.iter().map(|t| t.startup_ms).collect();
    let first_response: Vec<f64> = trials.iter().map(|t| t.first_response_ms).collect();
    let head = &trials[0];
    // Restore counters come from virtual-machine behaviour, not noise,
    // so every repetition must agree exactly.
    assert!(
        trials.iter().all(|t: &StartupTrial| {
            t.restore_shards == head.restore_shards
                && t.seek_bytes_avoided == head.seek_bytes_avoided
                && t.pages_compacted == head.pages_compacted
        }),
        "restore counters must be deterministic across reps"
    );
    Treatment {
        startup_p50: quantile(&startup, 0.5),
        p50: quantile(&first_response, 0.5),
        p95: quantile(&first_response, 0.95),
        shards: head.restore_shards,
        seek_bytes_avoided: head.seek_bytes_avoided,
        pages_compacted: head.pages_compacted,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.capped_reps();
    let big = FunctionSpec::synthetic(SyntheticSize::Big);
    println!("Ablation — parallel restore, fault-order layout, compaction ({reps} reps)");
    hr();

    // -- part 1: sharded eager restore vs the serial baseline ----------
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>8}",
        "threads", "startup", "p50", "p95", "gain"
    );
    hr();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"reps\": {},\n  \"baseline_big_p50_ms\": {BASELINE_BIG_P50_MS},\n  \"parallel\": [\n",
        args.seed, reps
    ));
    let mut serial_p50 = 0.0;
    let mut best_p50 = f64::MAX;
    for (ti, threads) in THREADS.into_iter().enumerate() {
        let runner = TrialRunner::new(big.clone(), StartMode::PrebakeWarmup(1))
            .expect("runner")
            .threads(threads);
        let t = run(&runner, reps, args.seed);
        // Shards are capped by the number of coalesced extents, so high
        // thread counts may clamp below the request.
        assert!(
            t.shards >= threads.min(2) && t.shards <= threads,
            "expected 1..={threads} shards, got {}",
            t.shards
        );
        if threads == 1 {
            serial_p50 = t.p50;
        }
        best_p50 = best_p50.min(t.p50);
        println!(
            "{:<8} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>7.1}%",
            threads,
            t.startup_p50,
            t.p50,
            t.p95,
            improvement_pct(BASELINE_BIG_P50_MS, t.p50),
        );
        json.push_str(&format!(
            "    {{\"threads\": {}, \"startup_p50_ms\": {:.4}, \"p50_ms\": {:.4}, \
             \"p95_ms\": {:.4}, \"shards\": {}}}{}\n",
            threads,
            t.startup_p50,
            t.p50,
            t.p95,
            t.shards,
            if ti == THREADS.len() - 1 { "" } else { "," },
        ));
        if threads >= 2 {
            assert!(
                t.p50 < BASELINE_BIG_P50_MS,
                "{threads} shards must beat the committed vectored-eager baseline \
                 ({:.4} !< {BASELINE_BIG_P50_MS})",
                t.p50
            );
            assert!(
                t.p50 < serial_p50,
                "{threads} shards must beat this run's serial path \
                 ({:.4} !< {serial_p50:.4})",
                t.p50
            );
        }
    }
    hr();
    if args.is_baseline_run() {
        // The serial path is bit-identical to the committed baseline run.
        assert!(
            (serial_p50 - BASELINE_BIG_P50_MS).abs() < 5e-5,
            "threads=1 must reproduce the committed baseline exactly \
             ({serial_p50:.4} vs {BASELINE_BIG_P50_MS})"
        );
    }

    // -- part 2: fault-order layout under the prefetch read ------------
    println!("\nPrefetch restore, dump-order vs fault-order image layout");
    hr();
    println!(
        "{:<12} {:>10} {:>10} {:>14}",
        "layout", "p50", "p95", "streamed"
    );
    hr();
    let dump_runner = TrialRunner::new(big.clone(), StartMode::PrebakePrefetch).expect("runner");
    let ordered_runner = TrialRunner::new(big.clone(), StartMode::PrebakePrefetch)
        .expect("runner")
        .fault_order()
        .expect("repack");
    let dump_order = run(&dump_runner, reps, args.seed);
    let ordered = run(&ordered_runner, reps, args.seed);
    for (label, t) in [("dump-order", &dump_order), ("fault-order", &ordered)] {
        println!(
            "{:<12} {:>8.2}ms {:>8.2}ms {:>12.2}MB",
            label,
            t.p50,
            t.p95,
            t.seek_bytes_avoided as f64 / 1e6
        );
    }
    hr();
    assert!(
        ordered.seek_bytes_avoided > dump_order.seek_bytes_avoided,
        "fault-order layout must stream more of the working-set read \
         ({} !> {})",
        ordered.seek_bytes_avoided,
        dump_order.seek_bytes_avoided
    );
    assert!(
        ordered.p95 < dump_order.p95,
        "fault-order layout must improve prefetch first-response p95 \
         ({:.4} !< {:.4})",
        ordered.p95,
        dump_order.p95
    );
    json.push_str(&format!(
        "  ],\n  \"layout\": {{\
         \"dump_order\": {{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"seek_bytes_avoided\": {}}}, \
         \"fault_order\": {{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"seek_bytes_avoided\": {}}}, \
         \"p95_improvement_pct\": {:.2}}},\n",
        dump_order.p50,
        dump_order.p95,
        dump_order.seek_bytes_avoided,
        ordered.p50,
        ordered.p95,
        ordered.seek_bytes_avoided,
        improvement_pct(dump_order.p95, ordered.p95),
    ));

    // -- part 3: hot-image compaction ----------------------------------
    println!("\nHot-image compaction (eager restore, fallback layer behind uffd)");
    hr();
    let full_runner = TrialRunner::new(big.clone(), StartMode::PrebakeWarmup(1)).expect("runner");
    let compact_runner = TrialRunner::new(big.clone(), StartMode::PrebakeWarmup(1))
        .expect("runner")
        .compact()
        .expect("repack");
    let stats = compact_runner.repack_stats().expect("compaction ran");
    let full = run(&full_runner, reps, args.seed);
    let compacted = run(&compact_runner, reps, args.seed);
    assert!(
        stats.pages_compacted > 0 && stats.hot_bytes_after < stats.hot_bytes_before,
        "compaction must shrink the hot image ({} -> {} bytes, {} pages moved)",
        stats.hot_bytes_before,
        stats.hot_bytes_after,
        stats.pages_compacted
    );
    assert_eq!(
        compacted.pages_compacted, stats.pages_compacted,
        "every trial restores against the compacted layout"
    );
    assert!(
        compacted.startup_p50 < full.startup_p50,
        "the smaller hot image must start faster ({:.4} !< {:.4})",
        compacted.startup_p50,
        full.startup_p50
    );
    let shrink = improvement_pct(stats.hot_bytes_before as f64, stats.hot_bytes_after as f64);
    println!(
        "hot image {:.2}MB -> {:.2}MB (-{:.1}%), {} pages behind the fallback layer",
        stats.hot_bytes_before as f64 / 1e6,
        stats.hot_bytes_after as f64 / 1e6,
        shrink,
        stats.pages_compacted
    );
    println!(
        "startup p50 {:.2}ms -> {:.2}ms, first response {:.2}ms -> {:.2}ms",
        full.startup_p50, compacted.startup_p50, full.p50, compacted.p50
    );
    hr();
    json.push_str(&format!(
        "  \"compact\": {{\"hot_bytes_before\": {}, \"hot_bytes_after\": {}, \
         \"pages_compacted\": {}, \"full_startup_p50_ms\": {:.4}, \
         \"compact_startup_p50_ms\": {:.4}, \"full_p50_ms\": {:.4}, \
         \"compact_p50_ms\": {:.4}}}\n}}\n",
        stats.hot_bytes_before,
        stats.hot_bytes_after,
        stats.pages_compacted,
        full.startup_p50,
        compacted.startup_p50,
        full.p50,
        compacted.p50,
    ));

    let path = args.write_artifact("BENCH_parallel.json", &json);
    println!(
        "take-away: sharding the extent install across threads overlaps the restore's \
         copy time (p50 {serial_p50:.1}ms serial -> {best_p50:.1}ms best, vs the committed \
         {BASELINE_BIG_P50_MS}ms baseline); repacking the image into fault order turns the \
         prefetch read into one sequential stream ({:.1}% better p95); and compaction \
         leaves {:.1}% of the hot image behind the fault handler without losing a byte. \
         Wrote {path}.",
        improvement_pct(dump_order.p95, ordered.p95),
        shrink,
    );
}
