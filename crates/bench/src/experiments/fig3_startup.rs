//! Figure 3: start-up time of NOOP, Markdown Render and Image Resizer
//! under the Vanilla and Prebaking techniques.
//!
//! Paper protocol: 200 repetitions per treatment; bootstrap 95 % CIs of
//! the median; Shapiro–Wilk normality check; Wilcoxon–Mann–Whitney test
//! of median equality with the Hodges–Lehmann CI of the median distance.
//!
//! Paper reference values (medians, ms):
//!   NOOP           vanilla ≈ 103, prebake ≈ 62  (−40 %)
//!   Markdown       vanilla ≈ 100, prebake ≈ 53  (−47 %)
//!   Image Resizer  vanilla ≈ 310, prebake ≈ 87  (−71 %)

use super::*;
use prebake_stats::mannwhitney::{hodges_lehmann, mann_whitney};
use prebake_stats::shapiro::shapiro_wilk;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    out.line(format_args!(
        "Figure 3 — start-up time, Vanilla vs Prebaking ({} reps)",
        args.reps
    ));
    out.header(format_args!(
        "{:<16} {:>10} {:>18} {:>10} {:>18} {:>8}",
        "function", "vanilla", "95% CI", "prebake", "95% CI", "improv."
    ));

    let paper = [
        ("noop", 40.0),
        ("markdown-render", 47.0),
        ("image-resizer", 71.0),
    ];

    for spec in paper_functions() {
        let vanilla_trials = memo.trials(&spec, StartMode::Vanilla, args.reps, args.seed);
        let prebake_trials = memo.trials(
            &spec,
            StartMode::PrebakeNoWarmup,
            args.reps,
            args.seed + 10_000,
        );
        let vanilla: Vec<f64> = vanilla_trials.iter().map(|t| t.startup_ms).collect();
        let prebake: Vec<f64> = prebake_trials.iter().map(|t| t.startup_ms).collect();

        let sv = summarize(&vanilla, 11);
        let sp = summarize(&prebake, 12);
        out.line(format_args!(
            "{:<16} {:>8.2}ms {:>18} {:>8.2}ms {:>18} {:>7.1}%",
            spec.name(),
            sv.median_ms,
            sv.ci.to_string(),
            sp.median_ms,
            sp.ci.to_string(),
            improvement_pct(sv.median_ms, sp.median_ms),
        ));

        // The paper's statistical pipeline.
        let sw_v = shapiro_wilk(&vanilla);
        let sw_p = shapiro_wilk(&prebake);
        let mw = mann_whitney(&vanilla, &prebake);
        let (hl, hl_ci) = hodges_lehmann(&vanilla, &prebake, 0.95);
        out.line(format_args!(
            "  shapiro-wilk: vanilla W={:.4} p={:.3}, prebake W={:.4} p={:.3}",
            sw_v.w, sw_v.p_value, sw_p.w, sw_p.p_value
        ));
        out.line(format_args!(
            "  wilcoxon-mann-whitney: p={:.2e} ({}); median distance {:.2}ms, 95% CI {}",
            mw.p_value,
            if mw.rejects_equality(0.05) {
                "medians differ"
            } else {
                "no difference detected"
            },
            hl,
            hl_ci
        ));
        out.line(format_args!(
            "  CIs intersect: {}; snapshot {:.1} MB",
            sv.ci.intersects(&sp.ci),
            prebake_trials[0].snapshot_bytes as f64 / 1e6
        ));
    }
    out.hr();
    out.line(format_args!("paper reference improvements:"));
    for (name, pct) in paper {
        out.line(format_args!("  {name:<16} ≈ {pct:.0}%"));
    }
    None
}
