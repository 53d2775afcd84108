#!/usr/bin/env bash
# Sanitizer gate for the concurrency layer plus the bench regression gate.
# Sanitizer runs build the executor, fault-injection, streaming, ingest/WAL,
# trace, routing (route enumerator, stochastic router, departure planner)
# and histogram cost-kernel tests under ThreadSanitizer,
# AddressSanitizer and UndefinedBehaviorSanitizer and fail on any report
# (multi-producer StreamBuffer ingestion and the trace ring are exactly
# where TSan earns its keep; the convolution kernel's raw bin indexing and
# clamp are where ASan and UBSan do). Run from anywhere; builds land in build-tsan/,
# build-asan/ and build-ubsan/ next to the normal build/.
#
#   scripts/check.sh              # all three sanitizers
#   scripts/check.sh thread       # TSan only
#   scripts/check.sh address      # ASan only
#   scripts/check.sh undefined    # UBSan only
#   scripts/check.sh bench-smoke  # BENCH_*.json schema + >20% throughput
#                                 # regression gate vs bench/baselines/
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${1:-}" == "bench-smoke" ]]; then
  exec "$ROOT/scripts/bench_smoke.sh" "${@:2}"
fi

SANITIZERS=("${@:-thread}" )
if [[ $# -eq 0 ]]; then
  SANITIZERS=(thread address undefined)
fi

GATED_TESTS=(executor_test inject_recovery_test pipeline_report_test
             stream_test series_view_test obs_test serve_test
             serve_trace_test health_test ingest_wal_test tick_parser_test
             net_wire_test net_test shard_test shard_equivalence_test
             load_test flight_recorder_test debug_endpoint_test
             spatial_test k_shortest_paths_test histogram_test
             property_test path_cost_cache_test uncertainty_test
             cost_kernel_test routing_decision_test extensions_test)

for SAN in "${SANITIZERS[@]}"; do
  case "$SAN" in
    thread) BUILD="$ROOT/build-tsan" ;;
    address) BUILD="$ROOT/build-asan" ;;
    undefined) BUILD="$ROOT/build-ubsan" ;;
    *) echo "unknown sanitizer: $SAN" >&2; exit 2 ;;
  esac
  echo "==== TSDM_SANITIZE=$SAN -> $BUILD ===="
  cmake -B "$BUILD" -S "$ROOT" -DTSDM_SANITIZE="$SAN" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$(nproc)" --target "${GATED_TESTS[@]}"
  for TEST in "${GATED_TESTS[@]}"; do
    echo "---- $SAN: $TEST ----"
    "$BUILD/tests/$TEST"
  done
  if [[ "$SAN" == thread ]]; then
    # The serving core's workers, queue and autoscale review race by design,
    # and threads share one route enumerator's tree cache; one clean run
    # can hide a race, so TSan gets three more of each.
    for TEST in serve_test serve_trace_test load_test k_shortest_paths_test; do
      echo "---- $SAN: $TEST x3 ----"
      "$BUILD/tests/$TEST" --gtest_repeat=3
    done
  fi
done
echo "==== sanitizer checks passed ===="
