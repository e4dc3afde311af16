//! Figure 7: empirical CDFs of the service time for 200 requests applied
//! to each function after initialisation by Prebaking vs Vanilla.
//!
//! The paper's claim: the two ECDFs "pretty much coincide" — prebaking
//! causes no post-restore service penalty. We print matching deciles and
//! the Kolmogorov–Smirnov distance per function (small = coincide).

use super::*;
use prebake_stats::ecdf::Ecdf;

pub(crate) fn run(args: &HarnessArgs, _memo: &Memo, out: &mut Report) -> Option<String> {
    let requests = args.reps; // the paper applies 200 requests
    out.line(format_args!(
        "Figure 7 — service-time ECDFs after start, {requests} requests per technique"
    ));

    for spec in paper_functions() {
        let vanilla_runner =
            TrialRunner::new(spec.clone(), StartMode::Vanilla).expect("build runner");
        let prebake_runner =
            TrialRunner::new(spec.clone(), StartMode::PrebakeNoWarmup).expect("build runner");
        let interval = SimDuration::from_millis(100);
        let vanilla = vanilla_runner
            .service_trial(args.seed, requests, interval)
            .expect("vanilla service trial");
        let prebake = prebake_runner
            .service_trial(args.seed + 1, requests, interval)
            .expect("prebake service trial");

        let ev = Ecdf::new(&vanilla);
        let ep = Ecdf::new(&prebake);

        out.hr();
        out.line(format_args!(
            "{} — service time quantiles (ms)",
            spec.name()
        ));
        out.line(format_args!(
            "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "", "p10", "p50", "p90", "p99", "max"
        ));
        for (label, e) in [("vanilla", &ev), ("prebake", &ep)] {
            out.line(format_args!(
                "{label:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                e.inverse(0.10),
                e.inverse(0.50),
                e.inverse(0.90),
                e.inverse(0.99),
                e.inverse(1.0),
            ));
        }
        let ks = ev.ks_distance(&ep);
        out.line(format_args!(
            "KS distance = {ks:.4} ({})",
            if ks < 0.15 {
                "ECDFs coincide — no post-restore penalty"
            } else {
                "ECDFs DIVERGE"
            }
        ));
    }
    out.hr();
    out.line(format_args!(
        "paper reference: both ECDFs pretty much coincide for all three functions"
    ));
    None
}
