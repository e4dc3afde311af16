#!/usr/bin/env bash
# Test-only audit: lists every `pub` fn, struct, enum, const or trait
# under crates/*/src whose name appears nowhere outside `#[cfg(test)]`
# modules and `tests/` directories, searching crates/*/src, src,
# examples and perfbench/src (doc comments count: doctests are not
# tests here). Such an item is reachable only from tests; delete it
# with the tests that check only it, or add it to ALLOW below with a
# one-line reason. Fails on any flagged name that ALLOW does not list.
#
# A word grep, not a build: a name that also names something else is
# never flagged. The mechanical check is to demote `pub` to
# `pub(crate)` and read what rustc reports dead in a non-test build.
#
# usage: scripts/test_only_audit.sh
set -u

# name|reason
ALLOW=(
  "observably_equal|reference oracle: restore tests compare restored memory against it"
  "serial_startup_trials|reference oracle: the parallel trial fan-out is tested against it"
  "external_refs|reference oracle: CoW tests check that no frame reference outlives its replicas"
  "inject_replica_crash|the only fault-injection hook (ROADMAP item 12 builds on it)"
)

cd "$(dirname "$0")/.."

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT

# Every non-test line as `path:line:text`. A `#[cfg(test)]` item is
# skipped through its closing brace (or its `;` if it has no body).
find crates/*/src src examples perfbench/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '
    skip {
      n = split($0, c, "")
      for (i = 1; i <= n; i++) {
        if (c[i] == "{") { depth++; opened = 1 }
        else if (c[i] == "}") depth--
      }
      if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
      next
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    { print f ":" FNR ":" $0 }
  ' "$f"
done >"$corpus"

flagged=0
while IFS=: read -r file line text; do
  name=$(printf '%s\n' "$text" |
    sed -E 's/^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|const|trait) ([A-Za-z_][A-Za-z0-9_]*).*/\2/')
  uses=$(grep -w -- "$name" "$corpus" | grep -cv "^$file:$line:")
  [ "$uses" -gt 0 ] && continue
  reason=""
  for entry in "${ALLOW[@]}"; do
    [ "${entry%%|*}" = "$name" ] && reason=${entry#*|}
  done
  if [ -n "$reason" ]; then
    echo "allowed  $file:$line $name ($reason)"
  else
    echo "FLAGGED  $file:$line $name: named only by tests"
    flagged=1
  fi
done < <(grep -E '^crates/[^/]+/src/[^:]*:[0-9]+:[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|const|trait) ' "$corpus")

if [ "$flagged" -ne 0 ]; then
  echo "test-only audit: FAILED (delete each flagged item or allow it with a reason)"
  exit 1
fi
echo "test-only audit: OK"
