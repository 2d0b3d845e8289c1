#!/bin/sh
# Determinism check: run each example twice with --stats-json and require
# byte-identical stats dumps. The simulator is a single-threaded discrete-event
# machine with a seeded RNG, so any divergence between identical runs is a
# nondeterminism bug (unseeded randomness, iteration over pointer-keyed maps,
# uninitialized reads) — the kind that silently breaks differential fuzzing.
#
# With a casc_run binary and a program as extra arguments, the check also
# covers the sharded engine (DESIGN.md §4i): the program runs on two cores
# twice at --host-threads=1 and once at --host-threads=0, and every stats
# dump — and stdout — must be byte-identical. The program's threads send no
# cross-core start, stop or monitor wake, so the sharded engine has no
# mailbox hop to re-time and must match the legacy engine exactly.
#
# Usage: determinism_check.sh <examples-dir> <scratch-dir> [<casc_run> <prog.casm>]
set -eu

bindir=${1:?usage: determinism_check.sh <examples-dir> <scratch-dir>}
scratch=${2:?usage: determinism_check.sh <examples-dir> <scratch-dir>}
casc_run=${3:-}
prog=${4:-}
mkdir -p "$scratch"

fail=0
for name in quickstart echo_server; do
  bin="$bindir/$name"
  if [ ! -x "$bin" ]; then
    echo "determinism_check: missing binary $bin" >&2
    exit 2
  fi
  a="$scratch/$name.run1.json"
  b="$scratch/$name.run2.json"
  "$bin" --stats-json="$a" > /dev/null
  "$bin" --stats-json="$b" > /dev/null
  if ! cmp -s "$a" "$b"; then
    echo "determinism_check: $name stats dumps differ:" >&2
    diff "$a" "$b" >&2 || true
    fail=1
  else
    echo "determinism_check: $name ok ($(wc -c < "$a") bytes, byte-identical)"
  fi
done

if [ -n "$casc_run" ]; then
  if [ ! -x "$casc_run" ] || [ ! -f "$prog" ]; then
    echo "determinism_check: missing casc_run ($casc_run) or program ($prog)" >&2
    exit 2
  fi
  base_json="$scratch/hostthreads.ht1.json"
  base_out="$scratch/hostthreads.ht1.out"
  "$casc_run" "$prog" --cores=2 --threads-per-core=1 --host-threads=1 \
    --stats-json="$base_json" > "$base_out"
  for run in ht1.run2 ht0; do
    j="$scratch/hostthreads.$run.json"
    o="$scratch/hostthreads.$run.out"
    ht=${run%%.*}
    "$casc_run" "$prog" --cores=2 --threads-per-core=1 --host-threads="${ht#ht}" \
      --stats-json="$j" > "$o"
    if ! cmp -s "$base_json" "$j" || ! cmp -s "$base_out" "$o"; then
      echo "determinism_check: $run diverges from the first --host-threads=1 run:" >&2
      diff "$base_json" "$j" >&2 || true
      diff "$base_out" "$o" >&2 || true
      fail=1
    else
      echo "determinism_check: $run ok (stats + stdout byte-identical)"
    fi
  done
fi
exit "$fail"
