//! Table 1: start-up time 95 % confidence intervals (ms) for functions
//! with small, medium and big code bases, under the three techniques.
//!
//! Paper reference (ms):
//!             Vanilla            PB-NoWarmup        PB-Warmup
//!   Small     (219.25;220.32)    (172.12;172.80)    (54.06;54.75)
//!   Medium    (455.45;456.64)    (360.51;361.24)    (63.46;63.99)
//!   Big       (1619.91;1622.08)  (1339.90;1340.98)  (83.62;84.35)

use super::*;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    out.line(format_args!(
        "Table 1 — start-up time 95% CIs, three techniques x three sizes ({} reps)",
        args.reps
    ));
    out.header(format_args!(
        "{:<8} {:>22} {:>22} {:>22}",
        "size", "Vanilla", "PB-NoWarmup", "PB-Warmup"
    ));

    for size in SyntheticSize::all() {
        let spec = FunctionSpec::synthetic(size);
        let mut cells = Vec::new();
        for mode in StartMode::all_three() {
            let samples: Vec<f64> = memo
                .trials(&spec, mode, args.reps, args.seed)
                .iter()
                .map(|t| t.first_response_ms)
                .collect();
            cells.push(summarize(&samples, 3).ci.to_string());
        }
        out.line(format_args!(
            "{:<8} {:>22} {:>22} {:>22}",
            size.label(),
            cells[0],
            cells[1],
            cells[2]
        ));
    }
    out.hr();
    out.line(format_args!("paper reference:"));
    out.line(format_args!(
        "  small   (219.25;220.32)   (172.12;172.80)   (54.06;54.75)"
    ));
    out.line(format_args!(
        "  medium  (455.45;456.64)   (360.51;361.24)   (63.46;63.99)"
    ));
    out.line(format_args!(
        "  big     (1619.91;1622.08) (1339.90;1340.98) (83.62;84.35)"
    ));
    None
}
