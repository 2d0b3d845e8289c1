#!/usr/bin/env bash
# Release-build bench-smoke tier.
#
# The default tree builds RelWithDebInfo; host-throughput numbers (bench
# t2_simhost) and the perf-sensitive hot paths are only meaningful at full
# optimization, so CI also runs the bench-smoke ctest tier from a Release
# tree: every bench with reduced iterations, then casc_bench_check over each
# BENCH_*.json artifact.
#
#   tools/bench_smoke_release.sh            # uses ./build-rel
#   BUILD=/tmp/rel tools/bench_smoke_release.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build-rel}
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j"$(nproc)"
ctest --test-dir "$BUILD" -L bench-smoke -j"$(nproc)" --output-on-failure

# Interpreter throughput gate (DESIGN.md §4j): a full (non-smoke) t2_simhost
# run's "interp" row must clear an absolute Minsts/s floor, so a regression in
# the interpreter's dispatch loop fails this tier even when every schema
# check passes. The default floor sits between the interpreter before
# predecoded handler ids and the single-pass scheduler scan (~41 Minsts/s
# best on the reference CI host, EXPERIMENTS.md T2) and the engine with them
# (~51, its observed worst round), leaving margin for ±10% drift.
# Override for slower CI hosts with CASC_BENCH_INTERP_FLOOR (Minsts/s); set
# it to 0 to disable the gate.
FLOOR=${CASC_BENCH_INTERP_FLOOR:-48}
"$BUILD"/bench/bench_t2_simhost --json="$BUILD"/bench/BENCH_t2_simhost_full.json
"$BUILD"/tools/casc_bench_check --interp-floor "$FLOOR" \
  "$BUILD"/bench/BENCH_t2_simhost_full.json
