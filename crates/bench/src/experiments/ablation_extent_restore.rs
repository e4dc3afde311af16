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

use super::*;
use prebake_core::measure::StartupTrial;

/// Fault-around windows swept over the lazy path (1 = no batching).
const WINDOWS: [usize; 4] = [1, 4, 16, 64];

/// One treatment's latency summary, folded from raw trials (shared with
/// `ablation_restore_parallel`).
pub(crate) struct Treatment {
    pub(crate) startup_p50: f64,
    pub(crate) p50: f64,
    pub(crate) p95: f64,
    /// The first trial: its probe and restore counters hold for every
    /// repetition.
    pub(crate) head: StartupTrial,
}

impl Treatment {
    pub(crate) fn fold(trials: &[StartupTrial]) -> Treatment {
        let head = trials[0];
        let counters = |t: &StartupTrial| {
            (
                t.probes,
                t.restore_shards,
                t.seek_bytes_avoided,
                t.pages_compacted,
            )
        };
        // Probe and restore counters come from virtual-machine behaviour,
        // not noise, so every repetition must agree exactly.
        assert!(
            trials.iter().all(|t| counters(t) == counters(&head)),
            "probe and restore counters must be deterministic across reps"
        );
        let quantile_of = |ms: fn(&StartupTrial) -> f64, q| {
            quantile(&trials.iter().map(ms).collect::<Vec<_>>(), q)
        };
        Treatment {
            startup_p50: quantile_of(|t| t.startup_ms, 0.5),
            p50: quantile_of(|t| t.first_response_ms, 0.5),
            p95: quantile_of(|t| t.first_response_ms, 0.95),
            head,
        }
    }
}

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    let reps = args.capped_reps();
    out.line(format_args!(
        "Ablation — vectored extent restore, Fig. 5 functions ({reps} reps)"
    ));
    out.hr();

    // -- part 1: eager restore, per-page vs vectored -------------------
    out.line(format_args!(
        "{:<10} {:<12} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "function", "restore", "snapshot", "p50", "p95", "extents", "gain"
    ));
    out.hr();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"seed\": {},\n  \"reps\": {},\n  \"eager\": [\n",
        args.seed, reps
    ));
    let mut big_gain = 0.0;
    for (si, size) in SyntheticSize::all().into_iter().enumerate() {
        let spec = FunctionSpec::synthetic(size);
        let mode = StartMode::PrebakeWarmup(1);
        let per_page_runner = TrialRunner::new(spec.clone(), mode)
            .expect("runner")
            .page_granular();
        let per_page = Treatment::fold(&parallel_startup_trials(&per_page_runner, reps, args.seed));
        let vectored = Treatment::fold(&memo.trials(&spec, mode, reps, args.seed));
        let (per_page_extents, extents) = (
            per_page.head.probes.extents_restored,
            vectored.head.probes.extents_restored,
        );
        assert_eq!(
            per_page_extents, 0,
            "page-granular restore must not issue extents"
        );
        assert!(
            extents > 0,
            "vectored restore must coalesce at least one run"
        );
        let gain = improvement_pct(per_page.p50, vectored.p50);
        if size == SyntheticSize::Big {
            big_gain = gain;
        }
        let snapshot_mb = vectored.head.snapshot_bytes as f64 / 1e6;
        out.line(format_args!(
            "{:<10} {:<12} {:>6.1}MB {:>8.2}ms {:>8.2}ms {:>8} {:>8.1}%",
            spec.name(),
            "per-page",
            snapshot_mb,
            per_page.p50,
            per_page.p95,
            per_page_extents,
            0.0,
        ));
        out.line(format_args!(
            "{:<10} {:<12} {:>6.1}MB {:>8.2}ms {:>8.2}ms {:>8} {:>8.1}%",
            "", "vectored", snapshot_mb, vectored.p50, vectored.p95, extents, gain,
        ));
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
            extents,
            gain,
            if si == 2 { "" } else { "," },
        ));
    }
    out.hr();
    assert!(
        big_gain >= 20.0,
        "vectored eager restore must cut big-function p50 by >= 20% (got {big_gain:.1}%)"
    );

    // -- part 2: fault-around window sweep, lazy big function ----------
    let big = FunctionSpec::synthetic(SyntheticSize::Big);
    out.line(format_args!(
        "\nFault-around window sweep — lazy restore, {} function",
        big.name()
    ));
    out.header(format_args!(
        "{:<8} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "window", "p50", "p95", "majflt", "minflt", "avoided"
    ));
    json.push_str("  ],\n  \"fault_around\": [\n");
    let mut majors_by_window = Vec::new();
    for (wi, window) in WINDOWS.into_iter().enumerate() {
        let runner = TrialRunner::new(big.clone(), StartMode::PrebakeLazy)
            .expect("runner")
            .fault_around(window);
        let t = Treatment::fold(&parallel_startup_trials(&runner, reps, args.seed));
        let probes = t.head.probes;
        majors_by_window.push(probes.major_faults);
        out.line(format_args!(
            "{:<8} {:>8.2}ms {:>8.2}ms {:>9} {:>9} {:>9}",
            window, t.p50, t.p95, probes.major_faults, probes.minor_faults, probes.faults_avoided
        ));
        json.push_str(&format!(
            "    {{\"window\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
             \"major_faults\": {}, \"minor_faults\": {}, \"faults_avoided\": {}}}{}\n",
            window,
            t.p50,
            t.p95,
            probes.major_faults,
            probes.minor_faults,
            probes.faults_avoided,
            if wi == WINDOWS.len() - 1 { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    out.hr();
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

    let path = args.artifact_path("BENCH_restore.json");
    out.line(format_args!(
        "take-away: coalescing stored pages into extents turns eager restore's per-page \
         syscall tax into one setup charge per run — {big_gain:.1}% faster to first \
         response on the big (1574-class) function — and fault-around batching serves a \
         window of withheld neighbours per uffd trap, collapsing lazy restore's major-fault \
         count ({} -> {} from window 1 to 64). Wrote {path}.",
        majors_by_window[0],
        majors_by_window[WINDOWS.len() - 1]
    ));
    Some(json)
}
