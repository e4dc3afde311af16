#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): everything a PR must keep green.
# CI runs this script and nothing else.
set -u

fail=0

run() {
  echo "==> $*"
  "$@" 2>&1 | tail -n 40
  local status=${PIPESTATUS[0]}
  if [ "$status" -ne 0 ]; then
    echo "FAILED ($status): $*"
    fail=1
  fi
}

# Determinism gate for one JSON ablation: a quick run must pass the
# harness's own asserts (the claims EXPERIMENTS.md reports), and a second
# quick run must write a byte-identical results/<json>, so nothing but
# the seed — no thread schedule, map order or wall clock — reaches
# virtual time.
gate() {
  local bin=$1 json=results/$2
  run cargo run --release -q -p prebake-bench --bin "$bin" -- --quick
  run cp "$json" "$json.run1"
  run cargo run --release -q -p prebake-bench --bin "$bin" -- --quick
  run cmp "$json.run1" "$json"
  run rm -f "$json.run1"
}

cd "$(dirname "$0")/.."

run cargo build --release
# The root manifest's default-members make this the whole workspace:
# every crate's unit, integration, property and golden suites, the
# self-diff of the committed BENCH_*.json baselines (crates/bench) and
# the perfbench build check (tests/perfbench_builds.rs).
run cargo test -q
gate ablation_extent_restore BENCH_restore.json
gate ablation_fleet BENCH_fleet.json
gate ablation_registry BENCH_registry.json
gate ablation_restore_parallel BENCH_parallel.json
gate ablation_obs BENCH_obs.json
gate ablation_scale BENCH_scale.json
gate ablation_gateway BENCH_gateway.json
# perfbench (BENCHMARK.json) is a workspace of its own: its unit tests,
# then one quick pass of every workload and the traced pass for their
# verification checks. Exit code only — shared runners are too noisy
# for a timing gate.
run cargo test -q --offline --manifest-path perfbench/Cargo.toml
run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- all --quick
run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings

if [ "$fail" -ne 0 ]; then
  echo "tier-1: FAILED"
  exit 1
fi
echo "tier-1: OK"
