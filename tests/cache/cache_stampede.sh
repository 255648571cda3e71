#!/usr/bin/env bash
#===- tests/cache/cache_stampede.sh - Cold-key stampede ---------------------===#
#
# Part of the Cable reproduction of "Debugging Temporal Specifications with
# Concept Analysis" (PLDI 2003). MIT license.
#
#===------------------------------------------------------------------------===#
#
# Races N=8 spec-lint processes at the same cold cache key. The per-key
# flock must collapse the stampede to a single build: exactly one process
# publishes (cache.stores sums to 1 across the fleet), every other process
# waits on the key lock and then hits (cache.hits sums to N-1), and all N
# outputs are bit-identical to the uncached golden.
#
# Usage: cache_stampede.sh <spec-lint> <workdir>
#
#===------------------------------------------------------------------------===#

set -u

LINT=${1:?usage: cache_stampede.sh <spec-lint> <workdir>}
WORK=${2:?usage: cache_stampede.sh <spec-lint> <workdir>}
DATA=$(cd "$(dirname "$0")/../../examples/data" && pwd)
LFLAGS="--spec $DATA/stdio_buggy.fa --traces $DATA/stdio_traces.txt"
N=8

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

say() { printf '%s\n' "$*"; }
metric_val() {
  local v
  v=$(grep -o "\"$2\": [0-9]*" "$1" | head -1 | grep -o '[0-9]*$')
  printf '%s' "${v:-0}"
}

# Golden uncached run.
$LINT $LFLAGS --no-cache --dot golden.dot > golden.out 2>&1
golden_rc=$?
if [ ! -s golden.dot ]; then
  say "FATAL: golden run produced no DOT output"
  cat golden.out
  exit 1
fi

# The stampede: N processes, one shared cold store.
rm -rf C
pids=
for i in $(seq 1 $N); do
  $LINT $LFLAGS --cache-dir C --dot "out$i.dot" --metrics-out "m$i.json" \
    > "run$i.out" 2>&1 &
  pids="$pids $!"
done

fail=0
i=0
for pid in $pids; do
  i=$((i + 1))
  wait "$pid"
  rc=$?
  if [ $rc -ne $golden_rc ]; then
    say "FAIL: process $i exited $rc, golden exited $golden_rc"
    tail -5 "run$i.out"
    fail=1
  fi
done

stores=0
hits=0
misses=0
for i in $(seq 1 $N); do
  if ! cmp -s golden.dot "out$i.dot"; then
    say "FAIL: process $i's lattice differs from golden"
    fail=1
  fi
  stores=$((stores + $(metric_val "m$i.json" cache.stores)))
  hits=$((hits + $(metric_val "m$i.json" cache.hits)))
  misses=$((misses + $(metric_val "m$i.json" cache.misses)))
done

# Exactly one build escaped to the store; everyone else converged on it.
if [ "$stores" -ne 1 ]; then
  say "FAIL: expected exactly 1 store across the fleet, got $stores"
  fail=1
fi
if [ "$hits" -ne $((N - 1)) ]; then
  say "FAIL: expected $((N - 1)) hits across the fleet, got $hits"
  fail=1
fi
if [ $((hits + misses)) -ne $N ]; then
  say "FAIL: hit/miss ledger does not cover the fleet: $hits + $misses != $N"
  fail=1
fi

# Exactly one artifact (plus its lock file) in the store.
arts=$(ls C/*.nextclosure.* | grep -v '\.lock$' | grep -cv '\.corrupt\.')
if [ "$arts" -ne 1 ]; then
  say "FAIL: expected 1 artifact in the store, found $arts"
  ls C
  fail=1
fi

if [ $fail -eq 0 ]; then
  say "cache stampede: $N process(es), $stores store, $hits hit(s): PASS"
fi
exit $fail
