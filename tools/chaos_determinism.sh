#!/bin/sh
# Chaos determinism check: run fault-injection scenarios twice with the same
# seed and require byte-identical stats dumps. The chaos engine draws from
# its own seeded RNG stream (never the workload's), so identical seeds must
# replay identical campaigns — injection ticks, detection latencies,
# recovery latencies, everything. Any divergence is a nondeterminism bug in
# the engine or in a scenario's host-side event plumbing.
#
# Two scenario groups, two contracts (DESIGN.md §4i/§4k):
#   single-core — two-run identity per engine PLUS cross-engine identity
#     between legacy (--host-threads=0) and sharded (--host-threads=1):
#     scenario machines are one-core, so the sharded solo fast path must
#     reproduce the legacy engine exactly.
#   cross-core — two-run identity per engine. ht0 is a different timing
#     model (direct cross-core paths instead of conservative mailbox hops),
#     so it legitimately diverges from ht1 and is only compared against
#     itself.
#
# Usage: chaos_determinism.sh <casc_chaos-binary> <scratch-dir>
set -eu

bin=${1:?usage: chaos_determinism.sh <casc_chaos-binary> <scratch-dir>}
scratch=${2:?usage: chaos_determinism.sh <casc_chaos-binary> <scratch-dir>}
mkdir -p "$scratch"

if [ ! -x "$bin" ]; then
  echo "chaos_determinism: missing binary $bin" >&2
  exit 2
fi

fail=0

# two_run <group> <seed> <engine-tag> <flags...>: same-seed double run with a
# byte compare; leaves run1's dump at $scratch/chaos.<group>.seed<N>.<tag>.json.
two_run() {
  group=$1; seed=$2; eng=$3; shift 3
  a="$scratch/chaos.$group.seed$seed.$eng.json"
  b="$scratch/chaos.$group.seed$seed.$eng.run2.json"
  "$bin" --scenario="$group" --seed="$seed" "$@" --stats-json="$a" > /dev/null
  "$bin" --scenario="$group" --seed="$seed" "$@" --stats-json="$b" > /dev/null
  if ! cmp -s "$a" "$b"; then
    echo "chaos_determinism: $group seed $seed engine $eng stats dumps differ:" >&2
    diff "$a" "$b" >&2 || true
    fail=1
    return 1
  fi
  echo "chaos_determinism: $group seed $seed engine $eng ok ($(wc -c < "$a") bytes, byte-identical)"
}

for seed in 1 7; do
  # --- single-core group: two-run identity AND cross-engine identity -------
  ref=""
  for eng in "ht0" "ht1"; do
    two_run single-core "$seed" "$eng" "--host-threads=${eng#ht}" || continue
    a="$scratch/chaos.single-core.seed$seed.$eng.json"
    if [ -z "$ref" ]; then
      ref="$a"
    elif ! cmp -s "$ref" "$a"; then
      echo "chaos_determinism: single-core seed $seed engine $eng diverges from $ref:" >&2
      diff "$ref" "$a" >&2 || true
      fail=1
    fi
  done

  # --- cross-core group: two-run identity per engine -----------------------
  for eng in "ht0" "ht1"; do
    two_run cross-core "$seed" "$eng" "--host-threads=${eng#ht}" || continue
  done
done
exit "$fail"
