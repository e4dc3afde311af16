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

# Golden check for one experiment: a quick run must pass the harness's
# own asserts (the claims EXPERIMENTS.md reports) and reproduce its
# committed golden baselines/quick/<golden> byte for byte. A `.json`
# golden is compared with the run's results/ artifact, any other with
# its stdout (kept under target/, away from the tracked full-run
# results/*.txt). To accept an intended change, copy the new output over
# the golden and commit it.
golden() {
  local bin=$1 expected=baselines/quick/$2 out=target/quick/$1.txt
  echo "==> $bin --quick vs $expected"
  mkdir -p target/quick
  if ! cargo run --release -q -p prebake-bench --bin "$bin" -- --quick >"$out"; then
    tail -n 40 "$out"
    echo "FAILED: $bin --quick"
    fail=1
    return
  fi
  case $2 in *.json) out=results/$2 ;; esac
  diff -u "$expected" "$out" || { echo "FAILED: $bin moved from $expected"; fail=1; }
}

cd "$(dirname "$0")/.."

run cargo build --release
# The root manifest's default-members make this the whole workspace:
# every crate's unit, integration, property and golden suites, the parse
# check of every committed JSON baseline (crates/bench) and the perfbench
# build check (tests/perfbench_builds.rs).
run cargo test -q
for bin in fig3_startup fig4_phases fig5_sizes fig6_speedup fig7_ecdf table1_intervals \
  extension_runtimes extension_concurrency extension_predump ablation_pool_baseline \
  ablation_snapshot_point ablation_memcache ablation_lazy_restore ablation_pagestore trace_startup; do
  golden "$bin" "$bin.txt"
done
golden ablation_extent_restore BENCH_restore.json
golden ablation_fleet BENCH_fleet.json
golden ablation_registry BENCH_registry.json
golden ablation_restore_parallel BENCH_parallel.json
golden ablation_obs BENCH_obs.json
golden ablation_scale BENCH_scale.json
golden ablation_gateway BENCH_gateway.json
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
