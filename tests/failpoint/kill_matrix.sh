#!/usr/bin/env bash
#===- tests/failpoint/kill_matrix.sh - Crash-recovery kill matrix ----------===#
#
# Part of the Cable reproduction of "Debugging Temporal Specifications with
# Concept Analysis" (PLDI 2003). MIT license.
#
#===------------------------------------------------------------------------===#
#
# Drives a scripted ~50-op labeling session into every registered failpoint,
# in both `crash` (std::_Exit mid-syscall, simulating power loss) and `error`
# (injected I/O failure) mode, at a spread of trigger indices. After each
# fault the session is restarted with the same --journal directory until it
# completes, then the journal's final snapshot — the full label + undo
# state — must be bit-identical to the uninterrupted golden run's. At most
# the single in-flight command may be lost, and the script resume replays
# exactly that command, so even "lost" work reappears.
#
# A second phase (KILL_MATRIX_PHASE=cache, spec-lint path as the third
# argument) drives the lattice artifact store: every cache failpoint x {crash,error} x trigger indices, against
# cold and pre-warmed stores. Injected errors must degrade to an uncached
# build with golden output; crashes must leave the store empty-or-valid,
# proven by a golden-identical recovery run with zero verify failures.
#
# Usage: kill_matrix.sh <cable-cli> <workdir> [spec-lint]
#   KILL_MATRIX_PHASE          session (default) or cache
#   KILL_MATRIX_INDICES        override the trigger indices (default spread)
#   KILL_MATRIX_POINTS         override the failpoint list (default: all)
#   KILL_MATRIX_CACHE_INDICES  override the cache trigger indices
#
#===------------------------------------------------------------------------===#

set -u

CLI=${1:?usage: kill_matrix.sh <cable-cli> <workdir> [spec-lint]}
WORK=${2:?usage: kill_matrix.sh <cable-cli> <workdir> [spec-lint]}
LINT=${3:-}
PHASE=${KILL_MATRIX_PHASE:-session}
DATA=$(cd "$(dirname "$0")/../../examples/data" && pwd)
INDICES=${KILL_MATRIX_INDICES:-"1 2 3 4 5 8 13 21 34 50"}
# Every run gets fsync-per-command sync so the journal-fsync point triggers
# at every append, not only at snapshot/shutdown flushes (scripted runs
# default to --journal-sync batch; the batched path is covered by the
# resume test and the Journal unit tests).
FLAGS="--protocol stdio --recommended --snapshot-every 10 --journal-sync always"
MAX_RESTARTS=60

# Metrics snapshots let the matrix assert on structured counters
# ("journal.unclean-recoveries": 1) instead of grepping stderr prose;
# snapshotJson() guarantees the exact `"name": value` spacing below.
metric_ge1() { grep -q "\"$2\": [1-9]" "$1"; }
# Numeric value of a counter (0 when absent), for arithmetic assertions.
metric_val() {
  local v
  v=$(grep -o "\"$2\": [0-9]*" "$1" | head -1 | grep -o '[0-9]*$')
  printf '%s' "${v:-0}"
}

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

say() { printf '%s\n' "$*"; }

# Flight-recorder assertions: every injected crash must leave a parseable
# cable-crashdump/1 black box in the per-case CABLE_CRASH_DIR whose
# captured log tail names the failpoint that killed the process. The
# schema check needs python3; without it only the nonempty-dump check
# runs (the matrix itself never skips).
HAVE_PY=0
command -v python3 > /dev/null 2>&1 && HAVE_PY=1
CHECK_OBS=$(cd "$(dirname "$0")/../integration" && pwd)/check_observability.py

# The spans open when a crash case fires, outermost first, for the cases
# whose stack the session script fixes: a crash inside nested library
# spans, inside a journal snapshot, inside the write-ahead append of a
# command and its fsync (the append runs before the command's span opens),
# and inside a command (`save mid.labels` is the third atomic-file write).
# The dump must list exactly these.
expected_spans() { # expected_spans <tag>: one span per line
  case $1 in
    lattice-oom=crash@1)
      printf '%s\n' session-init lattice-build next-closure-enumerate ;;
    journal-snapshot=crash@1) printf '%s\n' journal-snapshot ;;
    journal-append=crash@3) printf '%s\n' journal-append ;;
    journal-fsync=crash@5) printf '%s\n' journal-append journal-fsync ;;
    atomicfile-write=crash@3) printf '%s\n' "cmd save" ;;
  esac
}

assert_dump() { # assert_dump <tag> <failpoint> -> sets fail on violation
  local tag=$1 p=$2 dump span
  local -a span_args=()
  # A SIGKILLed process leaves the pre-opened file empty; a crash that
  # went through the dumper leaves a nonempty document.
  dump=$(find D -name 'crash.*.json' -size +0c 2>/dev/null | head -1)
  if [ -z "$dump" ]; then
    say "FAIL $tag: injected crash left no flight-recorder dump"
    fail=1
    return
  fi
  while IFS= read -r span; do
    span_args+=(--expect-span "$span")
  done < <(expected_spans "$tag")
  if [ "$HAVE_PY" = 1 ] &&
     ! python3 "$CHECK_OBS" --crashdump "$dump" --expect-failpoint "$p" \
         ${span_args[@]+"${span_args[@]}"} > dumpcheck.out 2>&1; then
    say "FAIL $tag: crash dump $dump does not identify failpoint $p and its open spans"
    cat dumpcheck.out
    fail=1
  fi
}

#===------------------------------------------------------------------------===#
# Phase: cache — the lattice artifact-store matrix.
#===------------------------------------------------------------------------===#
#
# Every cache failpoint (cache-serialize, cache-publish, cache-lock,
# cache-load, cache-mmap) x {crash,error} x trigger indices, against both a
# cold and a pre-warmed store. The contract under test:
#
#  - error mode: the cache degrades, it never decides. The faulted run
#    itself must exit with the golden rc and a bit-identical DOT.
#  - crash mode: a crash at any cache site leaves the store empty or
#    valid — proven by a recovery run (same store, no failpoints) that is
#    bit-identical to the golden and reports zero verification failures
#    and zero quarantines.

if [ "$PHASE" = cache ]; then
  if [ -z "$LINT" ]; then
    say "FATAL: KILL_MATRIX_PHASE=cache needs a spec-lint path (third argument)"
    exit 1
  fi
  LFLAGS="--spec $DATA/stdio_buggy.fa --traces $DATA/stdio_traces.txt"
  SITES="cache-serialize cache-publish cache-lock cache-load cache-mmap"
  CACHE_INDICES=${KILL_MATRIX_CACHE_INDICES:-"1 2"}

  # Golden uncached run: the cache must never change this, only its cost.
  $LINT $LFLAGS --no-cache --dot golden.dot > golden.out 2>&1
  golden_rc=$?
  if [ ! -s golden.dot ]; then
    say "FATAL: golden spec-lint run produced no DOT output:"
    cat golden.out
    exit 1
  fi

  fail=0
  cases=0
  faulted=0

  # One cache-matrix case: site, mode, trigger index, store temperature.
  cache_case() {
    local p=$1 mode=$2 n=$3 temp=$4
    cases=$((cases + 1))
    local tag="$p=$mode@$n $temp"
    rm -rf C
    if [ "$temp" = warm ]; then
      $LINT $LFLAGS --cache-dir C --dot prime.dot > prime.out 2>&1
      local prc=$?
      if [ $prc -ne $golden_rc ]; then
        say "FAIL $tag: warm-store priming run exited $prc, golden $golden_rc"
        tail -5 prime.out
        fail=1
        return
      fi
      if ! ls C/*.nextclosure.* > prime_ls.out 2>&1; then
        say "FAIL $tag: priming run published no artifact"
        fail=1
        return
      fi
    fi
    rm -f out.dot m.json
    rm -rf D && mkdir D
    CABLE_FAILPOINTS="$p=$mode@$n" CABLE_CRASH_DIR="$PWD/D" \
      $LINT $LFLAGS --cache-dir C --dot out.dot --metrics-out m.json \
      > run.out 2>&1
    local rc=$?
    if [ "$mode" = crash ] && [ $rc -eq 86 ]; then
      faulted=$((faulted + 1))
      assert_dump "$tag" "$p"
    elif [ $rc -ne $golden_rc ]; then
      say "FAIL $tag: exit $rc, golden exited $golden_rc"
      tail -5 run.out
      fail=1
      return
    else
      # Error-mode (or a crash index the run never reached): the faulted
      # run itself must already be the golden build.
      if ! cmp -s golden.dot out.dot; then
        say "FAIL $tag: degraded run's lattice differs from golden"
        diff golden.dot out.dot | head -10
        fail=1
        return
      fi
      [ "$mode" = error ] && metric_ge1 m.json failpoint.hits &&
        faulted=$((faulted + 1))
    fi
    # Recovery run against whatever the fault left behind: the store must
    # read as empty or valid — never as a half-written artifact that a
    # verifier has to quarantine.
    rm -f out.dot m.json
    $LINT $LFLAGS --cache-dir C --dot out.dot --metrics-out m.json \
      > recover.out 2>&1
    local rrc=$?
    if [ $rrc -ne $golden_rc ]; then
      say "FAIL $tag: recovery run exited $rrc, golden exited $golden_rc"
      tail -5 recover.out
      fail=1
      return
    fi
    if ! cmp -s golden.dot out.dot; then
      say "FAIL $tag: recovered lattice differs from golden"
      diff golden.dot out.dot | head -10
      fail=1
      return
    fi
    if metric_ge1 m.json cache.verify-failed ||
       metric_ge1 m.json cache.quarantined; then
      say "FAIL $tag: crash left a torn artifact (verify-failed/quarantined)"
      cat m.json
      fail=1
      return
    fi
  }

  for p in $SITES; do
    for mode in crash error; do
      for n in $CACHE_INDICES; do
        cache_case "$p" "$mode" "$n" cold
        cache_case "$p" "$mode" "$n" warm
      done
    done
  done

  say "cache kill matrix: $cases case(s), $faulted with observed faults, $((cases - faulted)) never triggered"
  if [ $fail -eq 0 ]; then
    say "cache kill matrix: PASS"
  fi
  exit $fail
fi

#===------------------------------------------------------------------------===#
# Phase: session — the durable-session journal matrix.
#===------------------------------------------------------------------------===#

# A ~50-op session exercising every durable-state path: labeling across
# selections, undo, focus/unfocus (including undo inside the focus), a
# mid-session save/load cycle, and read-only commands interleaved.
cat > script.txt <<'EOF'
status
ls
label c1 good
label c2 bad all
status
undo
label c2 bad all
classes
fa c1
label c3 ugly unlabeled
transitions c1
undo
label c3 ugly unlabeled
traces c2
meet c1 c2
join c1 c2
focus c0 popen(v0).*
ls
label c1 inner
undo
label c1 inner
status
unfocus
status
check good
suggest c0
label c4 good from bad
undo
diff good bad
save mid.labels
label c5 extra
undo
load mid.labels
label c0 sweep unlabeled
status
undo
label c0 sweep unlabeled
fa c2 bad
focus c0 pclose(v0).*
label c0 deep all
unfocus
status
label c6 good all
undo
check bad
label c6 tail
ls
undo
label c6 tail
status
save final.labels
EOF

# Replays any journal tail and compacts it into the snapshot, so the
# snapshot alone is the full recoverable state. (A fault injected into the
# final compaction leaves a valid stale-snapshot + tail journal; the state
# is intact but must be drained before byte comparison.)
drain() {
  # An empty file, not /dev/null: on a sandboxed system where /dev/null is
  # a plain file, other processes' redirected output becomes readable
  # there, and the drain would replay it as commands.
  : > empty.script
  "$CLI" $FLAGS --script empty.script --journal "$1" > drain.out 2>&1
}

# Golden, uninterrupted run (also journaled: its final snapshot is the
# reference state).
rm -rf JG
if ! "$CLI" $FLAGS --script script.txt --journal JG > golden.out 2>&1; then
  say "FATAL: golden run failed:"
  cat golden.out
  exit 1
fi
drain JG
if [ ! -f JG/snapshot.cable ]; then
  say "FATAL: golden run produced no snapshot"
  exit 1
fi

points=$(${KILL_MATRIX_POINTS:+echo "$KILL_MATRIX_POINTS"} )
[ -n "$points" ] || points=$("$CLI" --list-failpoints)
if [ -z "$points" ]; then
  say "FATAL: --list-failpoints reported nothing"
  exit 1
fi

fail=0
cases=0
faulted=0
for p in $points; do
  for mode in crash error; do
    for n in $INDICES; do
      cases=$((cases + 1))
      rm -rf J final.labels mid.labels fault.mjson recover.mjson
      rm -rf D && mkdir D
      CABLE_FAILPOINTS="$p=$mode@$n" CABLE_CRASH_DIR="$PWD/D" \
        "$CLI" $FLAGS --metrics-out fault.mjson --script script.txt \
        --journal J > run.out 2>&1
      rc=$?
      first_rc=$rc
      # rc 86 is the injected-crash exit: the flight recorder must have
      # written its black box on the way down.
      if [ "$mode" = crash ] && [ $rc -eq 86 ]; then
        assert_dump "$p=$mode@$n" "$p"
      fi
      # Whether the fault landed while the journal was open: only then
      # does the restart owe us an unclean-recovery count. A crash before
      # Journal::open (e.g. lattice-oom during the initial session build)
      # or after closeClean leaves nothing unclean to detect.
      had_active=0
      [ -f J/ACTIVE ] && had_active=1
      [ $rc -ne 0 ] && faulted=$((faulted + 1))
      restarts=0
      while [ $rc -ne 0 ]; do
        restarts=$((restarts + 1))
        if [ $restarts -gt $MAX_RESTARTS ]; then
          say "FAIL $p=$mode@$n: did not recover after $MAX_RESTARTS restarts (last rc=$rc)"
          cat run.out
          fail=1
          break
        fi
        "$CLI" $FLAGS --metrics-out recover.mjson --script script.txt \
          --journal J > run.out 2>&1
        rc=$?
      done
      [ $rc -ne 0 ] && continue
      if [ "$first_rc" -ne 0 ]; then
        if [ "$mode" = crash ]; then
          # The crashed run _Exit()s before writing metrics; the restart
          # that found the ACTIVE marker must have counted the unclean
          # recovery (and any torn tail is a counter too, not prose).
          if [ "$had_active" = 1 ] &&
             ! metric_ge1 recover.mjson journal.unclean-recoveries; then
            say "FAIL $p=$mode@$n: restart metrics show no unclean recovery"
            cat recover.mjson 2>/dev/null
            fail=1
            continue
          fi
        else
          # Injected-error runs exit through the normal path, so the
          # faulted process itself reports the failpoint hit.
          if ! metric_ge1 fault.mjson failpoint.hits; then
            say "FAIL $p=$mode@$n: faulted-run metrics show no failpoint hit"
            cat fault.mjson 2>/dev/null
            fail=1
            continue
          fi
        fi
      fi
      if ! drain J; then
        say "FAIL $p=$mode@$n: journal drain failed"
        cat drain.out
        fail=1
        continue
      fi
      if [ ! -f J/snapshot.cable ]; then
        say "FAIL $p=$mode@$n: no snapshot after recovery"
        fail=1
        continue
      fi
      if ! cmp -s JG/snapshot.cable J/snapshot.cable; then
        say "FAIL $p=$mode@$n: recovered state differs from golden"
        diff <(cat JG/snapshot.cable) <(cat J/snapshot.cable) | head -10
        fail=1
      fi
      if [ -f J/ACTIVE ]; then
        say "FAIL $p=$mode@$n: ACTIVE marker left after clean exit"
        fail=1
      fi
    done
  done
done

say "kill matrix: $cases case(s), $faulted faulted at least once, $((cases - faulted)) never triggered"
if [ $fail -eq 0 ]; then
  say "kill matrix: PASS"
fi
exit $fail
