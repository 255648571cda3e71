#!/usr/bin/env bash
#===- tests/cache/cache_corrupt.sh - Corrupt-artifact corpus ----------------===#
#
# Part of the Cable reproduction of "Debugging Temporal Specifications with
# Concept Analysis" (PLDI 2003). MIT license.
#
#===------------------------------------------------------------------------===#
#
# Poisons a warm lattice cache five different ways — truncation, a body
# bit-flip, a stale format version, an artifact stamped with a foreign
# context hash, and a zero-length file — and proves the degradation ladder
# holds for each: the run still exits with the golden rc and a
# bit-identical DOT, the bad artifact is quarantined to <key>.corrupt.<n>
# (and the key rebuilt and re-published), the cache.* counters record the
# rejection, and stderr carries a positioned warning naming the artifact.
#
# Usage: cache_corrupt.sh <spec-lint> <workdir>
#
#===------------------------------------------------------------------------===#

set -u

LINT=${1:?usage: cache_corrupt.sh <spec-lint> <workdir>}
WORK=${2:?usage: cache_corrupt.sh <spec-lint> <workdir>}
DATA=$(cd "$(dirname "$0")/../../examples/data" && pwd)
LFLAGS="--spec $DATA/stdio_buggy.fa --traces $DATA/stdio_traces.txt"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

say() { printf '%s\n' "$*"; }
metric_ge1() { grep -q "\"$2\": [1-9]" "$1"; }

# Golden uncached run.
$LINT $LFLAGS --no-cache --dot golden.dot > golden.out 2>&1
golden_rc=$?
if [ ! -s golden.dot ]; then
  say "FATAL: golden run produced no DOT output"
  cat golden.out
  exit 1
fi

# A second, different context (one trace dropped) whose artifact carries a
# foreign context hash but is otherwise perfectly well-formed.
head -n -1 "$DATA/stdio_traces.txt" > other_traces.txt
$LINT --spec "$DATA/stdio_buggy.fa" --traces other_traces.txt \
  --cache-dir OTHER --dot other.dot > other.out 2>&1
OTHER_ART=$(ls OTHER/*.nextclosure.* 2>other_ls.err | head -1)
if [ -z "$OTHER_ART" ]; then
  say "FATAL: foreign-context priming run published no artifact"
  cat other.out
  exit 1
fi

fail=0

# Re-primes the store and returns the artifact path in $ART.
prime() {
  rm -rf C
  $LINT $LFLAGS --cache-dir C --dot prime.dot > prime.out 2>&1
  local rc=$?
  if [ $rc -ne $golden_rc ]; then
    say "FATAL: priming run exited $rc, golden $golden_rc"
    exit 1
  fi
  ART=$(ls C/*.nextclosure.* | grep -v '\.lock$' | grep -v '\.corrupt\.' | head -1)
  if [ -z "$ART" ]; then
    say "FATAL: priming run published no artifact"
    exit 1
  fi
}

# One corpus case: a name and a corruption command run after priming.
corrupt_case() {
  local name=$1
  shift
  prime
  "$@" || { say "FATAL: corruption step failed for $name"; exit 1; }
  rm -f out.dot m.json
  $LINT $LFLAGS --cache-dir C --dot out.dot --metrics-out m.json \
    > run.out 2>&1
  local rc=$?
  if [ $rc -ne $golden_rc ]; then
    say "FAIL $name: exit $rc, golden exited $golden_rc"
    tail -5 run.out
    fail=1
    return
  fi
  if ! cmp -s golden.dot out.dot; then
    say "FAIL $name: lattice differs from golden after rejection"
    diff golden.dot out.dot | head -10
    fail=1
    return
  fi
  if ! ls "$ART".corrupt.* > corrupt_ls.out 2>&1; then
    say "FAIL $name: rejected artifact was not quarantined"
    ls C
    fail=1
    return
  fi
  for m in cache.verify-failed cache.quarantined cache.stores; do
    if ! metric_ge1 m.json $m; then
      say "FAIL $name: expected $m >= 1"
      cat m.json
      fail=1
      return
    fi
  done
  # The diagnostic must name the artifact and be a warning, not an error.
  if ! grep -q "warning: cable-lattice artifact" run.out; then
    say "FAIL $name: no positioned artifact warning on stderr"
    cat run.out
    fail=1
    return
  fi
  # The rebuild re-published: a follow-up run is a clean hit.
  rm -f m.json
  $LINT $LFLAGS --cache-dir C --dot rerun.dot --metrics-out m.json \
    > rerun.out 2>&1
  if ! metric_ge1 m.json cache.hits; then
    say "FAIL $name: store not re-warmed after quarantine"
    cat m.json
    fail=1
    return
  fi
  say "ok $name"
}

# The corruption commands (run with $ART pointing at the warm artifact).
truncate_art() { head -c 96 "$ART" > t.bin && mv t.bin "$ART"; }
bitflip_art() {
  python3 - "$ART" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, 'rb').read())
b[-9] ^= 0x10  # a body word, away from the zero pad
open(p, 'wb').write(b)
EOF
}
staleversion_art() {
  python3 - "$ART" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, 'rb').read())
b[8] = 99  # format version field
open(p, 'wb').write(b)
EOF
}
foreignhash_art() { cp "$OTHER_ART" "$ART"; }
zerolen_art() { : > "$ART"; }

corrupt_case truncated truncate_art
corrupt_case bit-flipped-body bitflip_art
corrupt_case stale-format-version staleversion_art
corrupt_case foreign-context-hash foreignhash_art
corrupt_case zero-length zerolen_art

if [ $fail -eq 0 ]; then
  say "cache corrupt corpus: PASS"
fi
exit $fail
