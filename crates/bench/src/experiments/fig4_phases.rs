//! Figure 4: start-up phase decomposition (CLONE / EXEC / RTS / APPINIT)
//! per function and technique, stacked as part of the overall start-up.
//!
//! Paper reference: CLONE and EXEC contribute a tiny fraction; vanilla
//! RTS ≈ 70 ms for every function; prebaking brings RTS to 0 so start-up
//! is almost totally dictated by APPINIT; vanilla Image Resizer APPINIT
//! ≈ 7.18× NOOP's, dropping to ≈ 1.43× under prebaking.

use super::*;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    out.line(format_args!(
        "Figure 4 — start-up components, median of {} reps (ms)",
        args.reps
    ));
    out.header(format_args!(
        "{:<16} {:<10} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "function", "technique", "CLONE", "EXEC", "RTS", "APPINIT", "total"
    ));

    let mut appinit_medians: Vec<(String, String, f64)> = Vec::new();

    for spec in paper_functions() {
        for mode in [StartMode::Vanilla, StartMode::PrebakeNoWarmup] {
            let trials = memo.trials(&spec, mode, args.reps, args.seed);
            let col = |f: fn(&prebake_core::Phases) -> f64| -> f64 {
                let v: Vec<f64> = trials.iter().map(|t| f(&t.phases)).collect();
                median(&v)
            };
            let clone_ms = col(|p| p.clone.as_millis_f64());
            let exec_ms = col(|p| p.exec.as_millis_f64());
            let rts_ms = col(|p| p.rts.as_millis_f64());
            let appinit_ms = col(|p| p.appinit.as_millis_f64());
            out.line(format_args!(
                "{:<16} {:<10} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2}",
                spec.name(),
                mode.label(),
                clone_ms,
                exec_ms,
                rts_ms,
                appinit_ms,
                clone_ms + exec_ms + rts_ms + appinit_ms
            ));
            appinit_medians.push((spec.name().to_owned(), mode.label(), appinit_ms));
        }
    }
    out.hr();

    let lookup = |name: &str, mode: &str| {
        appinit_medians
            .iter()
            .find(|(n, m, _)| n == name && m == mode)
            .map(|(_, _, v)| *v)
            .unwrap_or(f64::NAN)
    };
    let ratio_vanilla = lookup("image-resizer", "vanilla") / lookup("noop", "vanilla");
    let ratio_prebake = lookup("image-resizer", "pb-nowarmup") / lookup("noop", "pb-nowarmup");
    out.line(format_args!("APPINIT ratio image-resizer/noop: vanilla {ratio_vanilla:.2}x (paper ≈7.18x), prebake {ratio_prebake:.2}x (paper ≈1.43x)"));
    out.line(format_args!(
        "paper reference: vanilla RTS ≈70ms for all functions; prebake RTS = 0"
    ));
    None
}
