#!/bin/bash
# Fault-schedule soak: runs the cross-layer fault matrix AND the fail-stop
# crash matrix across many fault seeds. Every schedule must converge (same
# outcome on every rank, byte-identical completions, survivors complete
# around crashed peers) — a hang on any seed is a collective-agreement or
# liveness-protocol bug, so each ctest invocation runs under a wall-clock
# timeout and a timeout is reported as HANG, not lumped in with assertion
# failures.
#
# Every seed runs with the runtime correctness checker attached
# (TCIO_CHECK=1): crash seeds must not only converge, they must do so without
# tripping collective-matching, RMA-epoch, or segment-ownership verification.
#
# A second leg per seed soaks the I/O delegate subsystem (src/delegate/,
# DESIGN.md §10) with TCIO_DELEGATES>0 in the environment: delegate crash
# adoption, in-delegate fault retry, and the open/write/close churn must all
# converge under the checker as well. Odd seeds run it with integrity on
# (TCIO_INTEGRITY=1), so adopted shards are ledgered and verified too.
#
# A third leg per seed soaks the silent-corruption matrix (DESIGN.md §11) —
# seeded bit-flips at the staging-frame / window / stored-block / journal-body
# sites — in an ASan+UBSan build: the detect-and-repair paths shuffle frames,
# replay journals, and unwind through typed IntegrityErrors, exactly where a
# lifetime bug would hide from the healthy-path suite.
#
# A fourth leg per seed runs the composed chaos harness (DESIGN.md §8.2):
# TCIO_CHAOS_SEEDS drawn ChaosPlans — crash cascades (incl. mid-recovery),
# transient EIO, stragglers, corruption, node aggregation, composed — each
# checked against the shadow-run invariant oracle. The seed window advances
# with the soak seed so the whole sweep covers SEEDS×TCIO_CHAOS_SEEDS distinct
# plans. A red plan is greedily minimized and the one-line reproducer is in
# the log. One extra ASan+UBSan chaos pass runs after the loop, because the
# composition is exactly where cross-feature lifetime bugs hide (it caught
# the node-agg × crash-shrink teardown use-after-free).
#
#   TCIO_FAULT_SEEDS    number of seeds to sweep (default 20)
#   TCIO_SOAK_TIMEOUT   per-seed wall-clock limit in seconds (default 300)
#   TCIO_SOAK_DELEGATES delegate count for the delegate leg (default 2)
#   TCIO_SOAK_CHAOS     chaos plans per soak seed (default 10)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=${TCIO_FAULT_SEEDS:-20}
LIMIT=${TCIO_SOAK_TIMEOUT:-300}
BUILD=${TCIO_SOAK_BUILD:-build}
SAN_BUILD=${TCIO_SOAK_SAN_BUILD:-build-asan}
DELEGATES=${TCIO_SOAK_DELEGATES:-2}
CHAOS=${TCIO_SOAK_CHAOS:-10}

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target test_tcio test_delegate test_chaos
cmake -B "$SAN_BUILD" -S . -DTCIO_SANITIZE=ON >/dev/null
cmake --build "$SAN_BUILD" -j "$(nproc)" --target test_tcio test_chaos

fails=0
hangs=0
run_leg() {  # run_leg <name> <seed> <log> <build dir> <ctest -R pattern> [env...]
  local name=$1 seed=$2 log=$3 tree=$4 pattern=$5 rc=0
  shift 5
  env "$@" timeout "$LIMIT" \
    ctest --test-dir "$tree" --output-on-failure -R "$pattern" \
    >"$log" 2>&1 || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "seed $seed ($name): PASS"
  elif [ "$rc" -eq 124 ]; then
    hangs=$((hangs + 1))
    echo "seed $seed ($name): HANG (exceeded ${LIMIT}s — suspected lost collective agreement)"
  else
    fails=$((fails + 1))
    echo "seed $seed ($name): FAIL (see $log)"
  fi
}

for ((seed = 1; seed <= SEEDS; seed++)); do
  run_leg core "$seed" "/tmp/fault_soak_$seed.log" "$BUILD" \
    'TcioFaultMatrix|TcioCrashMatrix|TcioCrashRecovery' \
    TCIO_FAULT_SEED="$seed" TCIO_CHECK=1
  run_leg delegate "$seed" "/tmp/fault_soak_delegate_$seed.log" "$BUILD" \
    'DelegateCrashTest|DelegateFaultTest|DelegateChurnTest' \
    TCIO_FAULT_SEED="$seed" TCIO_CHECK=1 TCIO_DELEGATES="$DELEGATES" \
    TCIO_INTEGRITY="$((seed % 2))"
  run_leg corruption "$seed" "/tmp/fault_soak_corruption_$seed.log" \
    "$SAN_BUILD" \
    'TcioIntegrity|TcioStoredBlock|TcioJournalBody|DelegateIntegrity' \
    TCIO_FAULT_SEED="$seed" TCIO_CHECK=1 TCIO_INTEGRITY=1 \
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1
  run_leg chaos "$seed" "/tmp/fault_soak_chaos_$seed.log" "$BUILD" \
    'ChaosSoakTest' \
    TCIO_CHAOS_SEEDS="$CHAOS" TCIO_CHAOS_SEED_BASE="$(( (seed - 1) * CHAOS + 1 ))" \
    TCIO_CHAOS_INTEGRITY="$((seed % 2))"
done

# One sanitizer pass over the full chaos suite (plan round-trip, oracle,
# minimizer, soak) — composed fault schedules are where teardown-ordering
# and lifetime bugs live.
run_leg chaos-asan san "/tmp/fault_soak_chaos_asan.log" "$SAN_BUILD" \
  'Chaos' \
  TCIO_CHAOS_SEEDS="$CHAOS" TCIO_CHAOS_INTEGRITY=1 \
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1

echo "fault soak: $SEEDS seeds, $fails failures, $hangs hangs"
[ "$fails" -eq 0 ] && [ "$hangs" -eq 0 ]
