//! Ablation 3: lazy restore and working-set prefetch (`prebake-lazy`).
//!
//! The paper restores snapshots eagerly, so restore time grows with
//! snapshot size (Fig. 5). This harness reruns the Fig. 5 synthetic
//! functions under the three restore strategies of the lazy-restore
//! subsystem — eager (the paper's), pure lazy (demand-fault every page)
//! and REAP-style prefetch (bulk-load the recorded `ws.img`, demand-fault
//! the rest) — and reports start-to-first-response p50/p99 plus the
//! page-fault anatomy of each strategy. Prefetch should beat eager by a
//! margin that grows with snapshot size; pure lazy pays a fault trap per
//! touched page and shows why recording matters.

use super::*;
use prebake_core::env::{provision_machine, Deployment};
use prebake_core::prebaker::{bake, record_working_set, SnapshotPolicy};
use prebake_core::starter::{PrebakeStarter, Starter};
use prebake_criu::RestoreMode;
use prebake_sim::probe::ProbeCounters;

/// Fault anatomy of the restore window alone (readiness, before the
/// first request), folded straight from the raw probe trace.
fn restore_window_faults(spec: &FunctionSpec, mode: RestoreMode) -> ProbeCounters {
    let mut kernel = Kernel::new(0xFA117);
    let watchdog = provision_machine(&mut kernel).expect("provision");
    let dep = Deployment::install(&mut kernel, spec.clone(), 8080).expect("install");
    bake(
        &mut kernel,
        watchdog,
        &dep,
        SnapshotPolicy::AfterWarmup(1),
        &dep.images_dir(),
    )
    .expect("bake");
    if mode == RestoreMode::Prefetch {
        record_working_set(&mut kernel, watchdog, &dep, &dep.images_dir()).expect("record");
    }
    let started = PrebakeStarter::with_mode(mode)
        .start(&mut kernel, watchdog, &dep)
        .expect("start");
    ProbeCounters::from_events(&started.trace)
}

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    let reps = args.capped_reps();
    out.line(format_args!(
        "Ablation — lazy restore & working-set prefetch, Fig. 5 functions ({reps} reps)"
    ));
    out.header(format_args!(
        "{:<10} {:<12} {:>9} {:>10} {:>10} {:>20} {:>8} {:>8}",
        "function", "mode", "snapshot", "p50", "p99", "median 95% CI", "majflt", "minflt"
    ));

    let mut big_eager_p50 = 0.0;
    let mut big_prefetch_p50 = 0.0;
    for size in SyntheticSize::all() {
        let spec = FunctionSpec::synthetic(size);
        for mode in StartMode::lazy_ablation() {
            let trials = memo.trials(&spec, mode, reps, args.seed);
            let first_response: Vec<f64> = trials.iter().map(|t| t.first_response_ms).collect();
            let p50 = quantile(&first_response, 0.5);
            let p99 = quantile(&first_response, 0.99);
            let s = summarize(&first_response, 7);

            // Fault counts come from virtual-machine behaviour, not
            // noise, so every repetition must agree exactly.
            let probes = trials[0].probes;
            assert!(
                trials
                    .iter()
                    .all(|t| (t.probes.major_faults, t.probes.minor_faults)
                        == (probes.major_faults, probes.minor_faults)),
                "fault counts must be deterministic across reps"
            );

            if size == SyntheticSize::Big {
                match mode {
                    StartMode::PrebakeWarmup(_) => big_eager_p50 = p50,
                    StartMode::PrebakePrefetch => big_prefetch_p50 = p50,
                    _ => {}
                }
            }
            out.line(format_args!(
                "{:<10} {:<12} {:>6.1}MB {:>8.2}ms {:>8.2}ms {:>20} {:>8} {:>8}",
                spec.name(),
                mode.label(),
                trials[0].snapshot_bytes as f64 / 1e6,
                p50,
                p99,
                s.ci.to_string(),
                probes.major_faults,
                probes.minor_faults,
            ));
        }
        // Where pure lazy pays: faults taken before readiness (handler
        // re-attach touches runtime state and the archive mapping).
        let lazy_win = restore_window_faults(&spec, RestoreMode::Lazy);
        let prefetch_win = restore_window_faults(&spec, RestoreMode::Prefetch);
        out.line(format_args!(
            "{:<10} restore window alone: lazy {} major faults, prefetch {}",
            "", lazy_win.major_faults, prefetch_win.major_faults
        ));
        out.hr();
    }
    out.line(format_args!(
        "take-away: prefetch loads only the recorded working set, but the warm request's \
         class touches interleave two VMAs, so on a dump-order image the read pays a seek \
         per discontinuity — {:.1}% slower than eager to first response on the big \
         (1574-class) function; the fault-order repack (ablation_restore_parallel) \
         removes the seeks. Pure lazy resumes fastest but pays a fault trap per touched \
         page, pushing the cost into the first request.",
        -improvement_pct(big_eager_p50, big_prefetch_p50)
    ));
    None
}
