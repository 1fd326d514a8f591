#!/bin/bash
# Output-identity gate for refactors that claim to change no modeled cost:
# builds <base-ref> and the current checkout in separate trees, runs the
# seven bench tables that print fully deterministic output under
# TCIO_BENCH_FAST=1 (no wall-clock columns) on each, and diffs them. Any
# difference — a table cell, an acceptance line or an exit code — exits
# non-zero.
#
#   scripts/ci_same_outputs.sh <base-ref>
#
# The base side is exported with `git archive` (committed files only), so no
# worktree is registered and nothing is left behind if the run is cut. The
# head side is the checkout as it stands: HEAD plus any uncommitted edits.
# Both sides build in a fresh temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
BASE=$1
if ! git rev-parse -q --verify "$BASE^{commit}" >/dev/null; then
  echo "error: '$BASE' is not a commit" >&2
  exit 2
fi
BENCHES=(
  bench_ablation_integrity
  bench_ablation_node_agg
  bench_ablation_onesided
  bench_ablation_lazy_read
  bench_ablation_delegates
  bench_fault_degradation
  bench_table3_comparison
)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/base-src"
git archive "$BASE" | tar -x -C "$WORK/base-src"

# side <name> <source dir>: build the benches, run each, keep its output.
run_side() {
  local name=$1 src=$2
  echo "== $name: building $(printf '%s ' "${BENCHES[@]}")"
  cmake -B "$WORK/$name-build" -S "$src" >/dev/null
  cmake --build "$WORK/$name-build" -j "$(nproc)" --target "${BENCHES[@]}" \
    >/dev/null
  mkdir "$WORK/$name-out"
  for b in "${BENCHES[@]}"; do
    echo "== $name: $b"
    local rc=0
    # Benches drop their artifacts into the working directory.
    (cd "$WORK/$name-out" &&
      TCIO_BENCH_FAST=1 "$WORK/$name-build/bench/$b" >"$b.txt" 2>&1) ||
      rc=$?
    echo "exit status: $rc" >>"$WORK/$name-out/$b.txt"
  done
}

run_side base "$WORK/base-src"
run_side head "$PWD"

status=0
for b in "${BENCHES[@]}"; do
  if diff -u "$WORK/base-out/$b.txt" "$WORK/head-out/$b.txt"; then
    echo "same: $b"
  else
    echo "DIFFERS: $b"
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "all ${#BENCHES[@]} bench tables byte-identical to $BASE"
fi
exit "$status"
