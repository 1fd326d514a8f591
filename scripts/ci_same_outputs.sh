#!/bin/bash
# Output-identity gate for refactors that claim to change no modeled cost:
# builds <base-ref> and the current checkout in separate trees, runs the
# seven bench tables that print fully deterministic output under
# TCIO_BENCH_FAST=1 (no wall-clock columns) on each, and diffs them. It then
# runs every perfbench workload once (seed 1, one cycle, untraced) on each
# side and diffs `correct`, `failed` and the five modeled metrics; the
# host-measured `setup_s` and `peak_rss_mb` are skipped. Any difference — a
# table cell, an acceptance line, a metric or an exit code — exits non-zero.
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
WORKLOADS=(interleaved_rw art_checkpoint resilient_rw delegate_rw)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/base-src"
git archive "$BASE" | tar -x -C "$WORK/base-src"

# modeled <perfbench output>: the fields of its JSON result line that must
# repeat bit for bit.
modeled() {
  tail -n 1 "$1" | python3 -c '
import json, sys
try:
    r = json.loads(sys.stdin.read())
except ValueError:
    sys.exit("no JSON result")
print("correct:", r["correct"])
print("failed:", r["failed"])
for k in ("write_mbps", "read_mbps", "baseline_write_mbps",
          "baseline_read_mbps", "mem_per_rank_kib"):
    print(k + ":", repr(r["metrics"][k]["value"]))
' 2>&1 || true
}

# side <name> <source dir>: build the benches, run each, keep its output;
# then run every perfbench workload and keep its modeled fields.
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
  for w in "${WORKLOADS[@]}"; do
    echo "== $name: perfbench $w"
    local rc=0 raw="$WORK/$name-out/perfbench-$w.raw"
    (cd "$src" && CARGO_TARGET_DIR="$WORK/$name-perfbench" \
      python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 \
      --trace 0 >"$raw" 2>"$raw.log") || rc=$?
    modeled "$raw" >"$WORK/$name-out/perfbench-$w.txt"
    echo "exit status: $rc" >>"$WORK/$name-out/perfbench-$w.txt"
  done
}

run_side base "$WORK/base-src"
run_side head "$PWD"

status=0
for out in "${BENCHES[@]}" "${WORKLOADS[@]/#/perfbench-}"; do
  if diff -u "$WORK/base-out/$out.txt" "$WORK/head-out/$out.txt"; then
    echo "same: $out"
  else
    echo "DIFFERS: $out"
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "all ${#BENCHES[@]} bench tables and ${#WORKLOADS[@]} perfbench" \
    "workloads identical to $BASE"
fi
exit "$status"
