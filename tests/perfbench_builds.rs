//! `perfbench/` (the benchmark `BENCHMARK.json` declares) is a workspace
//! of its own that path-depends on the crates here, so no root test
//! compiles it: a rename of anything it imports would pass tier-1 and
//! break the benchmark. This check makes that break a test failure.
//! `--locked` makes a dependency edit that would rewrite
//! `perfbench/Cargo.lock` a failure too, instead of a silent lockfile
//! change.

use std::process::Command;

#[test]
fn perfbench_still_builds_against_the_workspace() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/perfbench/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args([
            "check",
            "--offline",
            "--locked",
            "--quiet",
            "--manifest-path",
            manifest,
        ])
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "cargo check of perfbench failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
