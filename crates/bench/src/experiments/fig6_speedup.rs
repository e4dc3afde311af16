//! Figure 6: start-up speed-up of both prebaking variants over vanilla,
//! across synthetic function sizes.
//!
//! The reported quantity is the paper's ratio "vanilla start-up time /
//! prebaked start-up time", as a percentage.
//!
//! Paper reference:
//!   small: PB-NoWarmup 127.45 %, PB-Warmup 403.96 %
//!   big:   PB-NoWarmup 121.07 %, PB-Warmup 1932.49 %

use super::*;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    out.line(format_args!(
        "Figure 6 — prebaking speed-up over vanilla ({} reps)",
        args.reps
    ));
    out.header(format_args!(
        "{:<8} {:>12} {:>14} {:>12} {:>16} {:>16}",
        "size", "vanilla", "pb-nowarmup", "pb-warmup", "nowarmup ratio", "warmup ratio"
    ));

    let paper = [
        ("small", 127.45, 403.96),
        ("medium", 126.3, 716.3), // interpolated from Table 1 medians
        ("big", 121.07, 1932.49),
    ];

    for size in SyntheticSize::all() {
        let spec = FunctionSpec::synthetic(size);
        let mut medians = Vec::new();
        for mode in StartMode::all_three() {
            let samples: Vec<f64> = memo
                .trials(&spec, mode, args.reps, args.seed)
                .iter()
                .map(|t| t.first_response_ms)
                .collect();
            medians.push(median(&samples));
        }
        let (v, nw, w) = (medians[0], medians[1], medians[2]);
        out.line(format_args!(
            "{:<8} {:>10.2}ms {:>12.2}ms {:>10.2}ms {:>15.2}% {:>15.2}%",
            size.label(),
            v,
            nw,
            w,
            speedup_ratio_pct(v, nw),
            speedup_ratio_pct(v, w)
        ));
    }
    out.hr();
    out.line(format_args!(
        "paper reference ratios (vanilla/prebaked, %):"
    ));
    for (label, nw, w) in paper {
        out.line(format_args!(
            "  {label:<8} nowarmup {nw:>8.2}%   warmup {w:>8.2}%"
        ));
    }
    out.line(format_args!(
        "(medium warmup ratio derived from Table 1: 456.0/63.7)"
    ));
    None
}
