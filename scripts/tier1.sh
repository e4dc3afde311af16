#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): everything a PR must keep green.
# CI runs this script and nothing else.
set -u

fail=0

# Runs one step; its wall seconds are recorded, not gated (shared
# runners are too noisy for a time bound).
run() {
  local started=$SECONDS
  echo "==> $*"
  "$@" 2>&1 | tail -n 40
  local status=${PIPESTATUS[0]}
  echo "    took $((SECONDS - started)) s"
  if [ "$status" -ne 0 ]; then
    echo "FAILED ($status): $*"
    fail=1
  fi
}

cd "$(dirname "$0")/.."

run cargo build --release
# The root manifest's default-members make this the whole workspace:
# every crate's unit, integration, property and golden suites, the parse
# check of every committed JSON baseline (crates/bench) and the perfbench
# build check (tests/perfbench_builds.rs).
run cargo test -q
# Golden check: every experiment runs once at --quick in one process,
# must pass its own asserts (the claims EXPERIMENTS.md reports) and must
# reproduce its committed golden baselines/quick/<golden> byte for byte:
# the JSON artifact where it writes one, its stdout otherwise. A moved
# output is left under target/quick/ for `diff -u`. To accept an
# intended change, copy the new output over the golden and commit it.
# Each experiment's wall seconds are printed, ungated.
run cargo run --release -q -p prebake-bench -- check
# perfbench (BENCHMARK.json) is a workspace of its own: its unit tests,
# then one quick pass of every workload and the traced pass for their
# verification checks. Exit code only — shared runners are too noisy
# for a timing gate.
# `--locked`: a dependency edit that would rewrite perfbench/Cargo.lock
# fails here instead of changing a benchmark file.
run cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
run cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- all --quick
run cargo fmt --all --check
# No `#[allow(dead_code)]` or `#[allow(unused...)]` anywhere, so the
# clippy step's dead-code lint keeps seeing every item.
run bash -c "! grep -rnE 'allow\((dead_code|unused)' crates src tests examples"
# No byte-serial FNV-1a on the snapshot path (XXH64 hashes images, pages
# and archives): FNV's 64-bit prime may appear only in the three files
# whose FNV values reach the goldens or guest bytes.
run bash -c "! grep -rniE '0x(0000_?)?0?100_?0000_?01b3' crates |
  grep -vE '^crates/(runtime/src/classfile|obs/src/sampler|gateway/src/gateway)\.rs:'"
# No `pub` item that only tests name (see the script for its allowlist).
run scripts/test_only_audit.sh
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "tier-1 took $SECONDS s"
if [ "$fail" -ne 0 ]; then
  echo "tier-1: FAILED"
  exit 1
fi
echo "tier-1: OK"
