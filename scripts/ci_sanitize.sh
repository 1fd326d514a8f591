#!/bin/bash
# Sanitizer CI tier: the full suite under AddressSanitizer + UBSan, the
# fault/crash matrices under the same, then the full suite under
# ThreadSanitizer. Each family uses its own build tree so the regular
# build/ stays fast and the trees never mix instrumentation.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-asan
cmake -B "$BUILD" -S . -DTCIO_SANITIZE=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" "$@"

# The fault and crash matrices exercise the error-recovery paths (retry
# loops, chunk remapping, collective agreement, RMA-drop retransmits, liveness
# detection, communicator shrink, journal replay) that the healthy tier-1
# run never enters; run them explicitly so a leak or UB in a catch block or
# an unwound (crashed) rank cannot hide behind the happy path. The crash
# seed is pinned so the sanitized run covers a known-interesting schedule.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
TCIO_FAULT_SEED=7 \
  ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
  -R 'TcioFault|FaultPlan|TcioCrash|CrashPlan|Journal|Liveness'

# -- ThreadSanitizer ----------------------------------------------------------
# The engine runs every rank as a fiber on one OS thread and tells TSan about
# each switch (__tsan_switch_to_fiber), so TSan checks the one-active-rank
# handoff as synchronization between fibers. The whole suite runs: it takes
# seconds. Currently clean with no suppressions — if the engine ever needs
# one, drop it in scripts/tsan.supp and it is picked up here.
TSAN_BUILD=build-tsan
cmake -B "$TSAN_BUILD" -S . -DTCIO_SANITIZE=thread >/dev/null
cmake --build "$TSAN_BUILD" -j "$(nproc)"
TSAN_OPTIONS="halt_on_error=1"
if [ -f scripts/tsan.supp ]; then
  TSAN_OPTIONS="$TSAN_OPTIONS suppressions=$(pwd)/scripts/tsan.supp"
fi
echo "== full suite under TSan =="
TSAN_OPTIONS="$TSAN_OPTIONS" \
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$(nproc)"
