//! Ablation 6: vectored extent restore and fault-around batching.
//!
//! The paper restores snapshots page-at-a-time, so eager restore pays a
//! fixed syscall-shaped cost per stored page. This harness reruns the
//! Fig. 5 synthetic functions with the extent-based restore engine in
//! both gears — page-granular (one `restore_page_op` per page, the
//! paper's shape) and vectored (one `extent_setup` per coalesced
//! pagemap run plus streaming page copies) — and sweeps the uffd
//! fault-around window over the lazy path of the big function. Eager
//! restore should get cheaper in proportion to run length; fault-around
//! should collapse the lazy path's major-fault count without changing
//! which pages arrive.
//!
//! Besides the human-readable table the harness writes
//! `BENCH_restore.json` (p50/p95 per mode x size plus the window sweep)
//! so the numbers can be diffed across commits; with the default
//! `--seed` the file is bit-reproducible.

use prebake_bench::{hr, improvement_pct, parallel_startup_trials, HarnessArgs};
use prebake_core::measure::{StartMode, StartupTrial, TrialRunner};
use prebake_functions::{FunctionSpec, SyntheticSize};
use prebake_stats::summary::quantile;

/// Fault-around windows swept over the lazy path (1 = no batching).
const WINDOWS: [usize; 4] = [1, 4, 16, 64];

/// One treatment's latency summary, folded from raw trials.
struct Treatment {
    p50: f64,
    p95: f64,
    probes: prebake_sim::probe::ProbeCounters,
}

fn run(runner: &TrialRunner, reps: usize, seed: u64) -> Treatment {
    let trials = parallel_startup_trials(runner, reps, seed);
    let first_response: Vec<f64> = trials.iter().map(|t| t.first_response_ms).collect();
    let probes = trials[0].probes;
    // Probe counts come from virtual-machine behaviour, not noise, so
    // every repetition must agree exactly.
    assert!(
        trials.iter().all(|t: &StartupTrial| t.probes == probes),
        "probe counters must be deterministic across reps"
    );
    Treatment {
        p50: quantile(&first_response, 0.5),
        p95: quantile(&first_response, 0.95),
        probes,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.capped_reps();
    println!("Ablation — vectored extent restore, Fig. 5 functions ({reps} reps)");
    hr();

    // -- part 1: eager restore, per-page vs vectored -------------------
    println!(
        "{:<10} {:<12} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "function", "restore", "snapshot", "p50", "p95", "extents", "gain"
    );
    hr();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"reps\": {},\n  \"eager\": [\n",
        args.seed, reps
    ));
    let mut big_gain = 0.0;
    for (si, size) in [
        SyntheticSize::Small,
        SyntheticSize::Medium,
        SyntheticSize::Big,
    ]
    .into_iter()
    .enumerate()
    {
        let spec = FunctionSpec::synthetic(size);
        let mode = StartMode::PrebakeWarmup(1);
        let per_page_runner = TrialRunner::new(spec.clone(), mode)
            .expect("runner")
            .page_granular();
        let vectored_runner = TrialRunner::new(spec.clone(), mode).expect("runner");
        let per_page = run(&per_page_runner, reps, args.seed);
        let vectored = run(&vectored_runner, reps, args.seed);
        assert_eq!(
            per_page.probes.extents_restored, 0,
            "page-granular restore must not issue extents"
        );
        assert!(
            vectored.probes.extents_restored > 0,
            "vectored restore must coalesce at least one run"
        );
        let gain = improvement_pct(per_page.p50, vectored.p50);
        if size == SyntheticSize::Big {
            big_gain = gain;
        }
        let snapshot_mb = vectored_runner.snapshot_bytes() as f64 / 1e6;
        println!(
            "{:<10} {:<12} {:>6.1}MB {:>8.2}ms {:>8.2}ms {:>8} {:>8.1}%",
            spec.name(),
            "per-page",
            snapshot_mb,
            per_page.p50,
            per_page.p95,
            per_page.probes.extents_restored,
            0.0,
        );
        println!(
            "{:<10} {:<12} {:>6.1}MB {:>8.2}ms {:>8.2}ms {:>8} {:>8.1}%",
            "",
            "vectored",
            snapshot_mb,
            vectored.p50,
            vectored.p95,
            vectored.probes.extents_restored,
            gain,
        );
        json.push_str(&format!(
            "    {{\"function\": \"{}\", \"snapshot_mb\": {:.3}, \
             \"per_page\": {{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}}}, \
             \"vectored\": {{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"extents\": {}}}, \
             \"improvement_pct\": {:.2}}}{}\n",
            spec.name(),
            snapshot_mb,
            per_page.p50,
            per_page.p95,
            vectored.p50,
            vectored.p95,
            vectored.probes.extents_restored,
            gain,
            if si == 2 { "" } else { "," },
        ));
    }
    hr();
    assert!(
        big_gain >= 20.0,
        "vectored eager restore must cut big-function p50 by >= 20% (got {big_gain:.1}%)"
    );

    // -- part 2: fault-around window sweep, lazy big function ----------
    let big = FunctionSpec::synthetic(SyntheticSize::Big);
    println!(
        "\nFault-around window sweep — lazy restore, {} function",
        big.name()
    );
    hr();
    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "window", "p50", "p95", "majflt", "minflt", "avoided"
    );
    hr();
    json.push_str("  ],\n  \"fault_around\": [\n");
    let mut majors_by_window = Vec::new();
    for (wi, window) in WINDOWS.into_iter().enumerate() {
        let runner = TrialRunner::new(big.clone(), StartMode::PrebakeLazy)
            .expect("runner")
            .fault_around(window);
        let t = run(&runner, reps, args.seed);
        majors_by_window.push(t.probes.major_faults);
        println!(
            "{:<8} {:>8.2}ms {:>8.2}ms {:>9} {:>9} {:>9}",
            window,
            t.p50,
            t.p95,
            t.probes.major_faults,
            t.probes.minor_faults,
            t.probes.faults_avoided
        );
        json.push_str(&format!(
            "    {{\"window\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
             \"major_faults\": {}, \"minor_faults\": {}, \"faults_avoided\": {}}}{}\n",
            window,
            t.p50,
            t.p95,
            t.probes.major_faults,
            t.probes.minor_faults,
            t.probes.faults_avoided,
            if wi == WINDOWS.len() - 1 { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    hr();
    assert!(
        majors_by_window[1] < majors_by_window[0],
        "window >= 4 must take fewer major faults than window 1 \
         ({} vs {})",
        majors_by_window[1],
        majors_by_window[0]
    );
    assert!(
        majors_by_window.windows(2).all(|w| w[1] <= w[0]),
        "major faults must be monotone non-increasing in the window"
    );

    let path = args.write_artifact("BENCH_restore.json", &json);
    println!(
        "take-away: coalescing stored pages into extents turns eager restore's per-page \
         syscall tax into one setup charge per run — {big_gain:.1}% faster to first \
         response on the big (1574-class) function — and fault-around batching serves a \
         window of withheld neighbours per uffd trap, collapsing lazy restore's major-fault \
         count ({} -> {} from window 1 to 64). Wrote {path}.",
        majors_by_window[0],
        majors_by_window[WINDOWS.len() - 1]
    );
}
