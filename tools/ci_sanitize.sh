#!/bin/sh
# Sanitizer CI tier: builds with the requested sanitizers and runs the tier-1
# ctest suite — which includes the differential-fuzz smoke batch (fuzz_smoke:
# a fixed-seed generator run across the whole config lattice with determinism
# and race checking), the saved regression corpus (fuzz_corpus), the
# chaos_smoke tier (every fault-injection scenario plus the seed-determinism
# check), and the fuzz_chaos tier (chaos-differential batches on both
# engines and per-fault-class masks, campaign-replay
# determinism, and the wedged-fixture watchdog negative; DESIGN.md §4k).
# Memory errors in the simulator, the reference model, or the
# fault-recovery paths surface here rather than as silent state divergence.
# The interpreter has one dispatch path (DESIGN.md §4j), so every tier
# exercises the engine that ships. The simulator runs on one host thread, so
# there is no thread-sanitizer tier.
#
# Usage: ci_sanitize.sh [sanitizers] [build-dir]
#   sanitizers   comma list for -fsanitize (default: address,undefined)
#   build-dir    default: build-sanitize
set -eu

san=${1:-address,undefined}
build=${2:-build-sanitize}
src_root=$(cd "$(dirname "$0")/.." && pwd)

cmake -B "$build" -S "$src_root" \
  -DCASC_SANITIZE="$san" \
  -DCASC_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j"$(nproc)"

# halt_on_error makes sanitizer findings fail the test run instead of
# printing and continuing; detect_leaks catches forgotten event-queue
# allocations.
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  sh -c "cd '$build' && ctest --output-on-failure -j\"\$(nproc)\""
echo "ci_sanitize: all tests clean under $san"
