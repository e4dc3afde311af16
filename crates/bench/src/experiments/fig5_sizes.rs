//! Figure 5: impact of function (code) size on vanilla start-up time.
//!
//! Synthetic functions — small (374 classes, ≈2.8 MB), medium (574,
//! ≈9.2 MB), big (1574, ≈41 MB) — started vanilla; the measurement is
//! time to the first response, since these functions load their classes
//! on first invocation. 95 % bootstrap CIs.
//!
//! Paper reference (Table 1 vanilla column): small ≈ 219.8 ms,
//! medium ≈ 456.0 ms, big ≈ 1621.0 ms — linear in archive size at
//! ≈ 36.7 ms/MiB.

use super::*;

pub(crate) fn run(args: &HarnessArgs, memo: &Memo, out: &mut Report) -> Option<String> {
    out.line(format_args!(
        "Figure 5 — vanilla start-up vs function size ({} reps)",
        args.reps
    ));
    out.header(format_args!(
        "{:<8} {:>8} {:>10} {:>12} {:>20}",
        "size", "classes", "archive", "median", "95% CI"
    ));

    let mut points: Vec<(f64, f64)> = Vec::new();
    for size in SyntheticSize::all() {
        let spec = FunctionSpec::synthetic(size);
        let archive_mb = spec.archive().payload_bytes() as f64 / (1024.0 * 1024.0);
        let samples: Vec<f64> = memo
            .trials(&spec, StartMode::Vanilla, args.reps, args.seed)
            .iter()
            .map(|t| t.first_response_ms)
            .collect();
        let s = summarize(&samples, 5);
        out.line(format_args!(
            "{:<8} {:>8} {:>8.1}MB {:>10.2}ms {:>20}",
            size.label(),
            size.class_count(),
            archive_mb,
            s.median_ms,
            s.ci.to_string()
        ));
        points.push((archive_mb, s.median_ms));
    }
    out.hr();

    // Least-squares slope through the three points (the paper's implicit
    // size sensitivity).
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    out.line(format_args!(
        "linear fit: {intercept:.1}ms + {slope:.1}ms/MiB (paper regression ≈ 117ms + 36.7ms/MiB)"
    ));
    None
}
