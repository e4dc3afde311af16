//! Extension (paper §7 future work): prebaking across runtimes.
//!
//! "We plan to extend our evaluation to other runtime environments such
//! as Node.JS and Python ... as different runtimes implement distinct
//! start-up procedures, the potential improvements remain unknown."
//!
//! This harness runs the medium synthetic function on three runtime
//! profiles (JVM-calibrated, V8-like, CPython-like) under all three
//! start techniques. Expected shape: prebaking always removes the fixed
//! bootstrap, but the *warm-snapshot bonus* tracks how much lazy
//! compilation the runtime does — huge for the JVM's JIT, moderate for
//! V8's baseline tier, smallest for CPython (bytecode compile only, no
//! JIT).

use super::*;
use prebake_runtime::profile::RuntimeProfile;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    let reps = args.reps.min(100);
    out.line(format_args!(
        "Extension — prebaking across runtime profiles, medium synthetic function ({reps} reps)"
    ));
    out.header(format_args!(
        "{:<8} {:>12} {:>14} {:>12} {:>16} {:>16}",
        "runtime", "vanilla", "pb-nowarmup", "pb-warmup", "nowarmup ratio", "warmup ratio"
    ));

    for profile in RuntimeProfile::all() {
        let spec = FunctionSpec::synthetic(SyntheticSize::Medium).with_runtime(profile);
        let mut medians = Vec::new();
        for mode in StartMode::all_three() {
            let samples: Vec<f64> = memo
                .trials(&spec, mode, reps, args.seed)
                .iter()
                .map(|t| t.first_response_ms)
                .collect();
            medians.push(median(&samples));
        }
        let (v, nw, w) = (medians[0], medians[1], medians[2]);
        out.line(format_args!(
            "{:<8} {:>10.2}ms {:>12.2}ms {:>10.2}ms {:>15.2}% {:>15.2}%",
            profile.label(),
            v,
            nw,
            w,
            speedup_ratio_pct(v, nw),
            speedup_ratio_pct(v, w)
        ));
    }
    out.hr();
    out.line(format_args!(
        "take-away: every runtime gains from prebaking (the bootstrap always \
         disappears), but the warm-snapshot bonus ranks java > node > python — \
         it captures exactly the lazy-compilation work each runtime would redo."
    ));
    None
}
