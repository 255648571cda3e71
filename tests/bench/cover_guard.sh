#!/usr/bin/env bash
#===- tests/bench/cover_guard.sh - Lattice speedup guard --------------------===#
#
# Part of the Cable reproduction of "Debugging Temporal Specifications with
# Concept Analysis" (PLDI 2003). MIT license.
#
#===------------------------------------------------------------------------===#
#
# Gates the two lattice-build stages against the oracles they replaced,
# on BENCH_scaling_lattice.json: neighbour-counted covers (computeCovers)
# against the pairwise coversAt scan, and the Close-by-One enumeration
# (NextClosureBuilder::allClosedIntents) against NextClosure plus one tau
# per intent (NextClosureReference):
#
#   1. The JSON is schema-valid (cable-bench/1) and carries the cover and
#      enumeration sections and counters; both cover algorithms found the
#      same number of edges (cover_edges_agree_* == 1), and both
#      enumerations produced the same intents in the same order
#      (enumerate_agree_* == 1).
#   2. One-sided: cover_speedup_2048 (median scan time over median counting
#      time on the 2048-object random k=6 context) is at least 5, and
#      enumerate_speedup_* (median oracle time over median search time) is
#      at least 1.0: the search is never slower than the oracle.
#
# Exit codes: 0 pass, 1 failure (a speedup below its floor after every
# attempt, no JSON, malformed JSON, or a disagreement), 77 skip (bench
# binary or python3 missing).
#
# Usage: cover_guard.sh <source-dir> <build-dir>
#
#===------------------------------------------------------------------------===#

set -u

SRC=${1:?usage: cover_guard.sh <source-dir> <build-dir>}
BUILD=${2:?usage: cover_guard.sh <source-dir> <build-dir>}
MIN_SPEEDUP=5.0
ATTEMPTS=3

say() { printf '%s\n' "$*"; }

bench="$BUILD/bench/scaling_lattice"
if [ ! -x "$bench" ]; then
  cmake --build "$BUILD" --target scaling_lattice -j "$(nproc)" \
    > /dev/null 2>&1
fi
if [ ! -x "$bench" ]; then
  say "SKIP: scaling_lattice bench binary missing"
  exit 77
fi
command -v python3 > /dev/null 2>&1 || { say "SKIP: python3 missing"; exit 77; }

workdir="$BUILD/cover_guard"
mkdir -p "$workdir"
json="$workdir/BENCH_scaling_lattice.json"

verdict_of() { # verdict_of <json> <min-cover-speedup> -> pass/low/bad + details
  python3 - "$1" "$2" <<'EOF'
import json, sys

path, floor = sys.argv[1], float(sys.argv[2])
enum_tags = ("xtfree", "random512")
try:
    doc = json.load(open(path))
except Exception as e:
    print("bad", f"unreadable JSON: {e}")
    sys.exit(0)

if doc.get("schema") != "cable-bench/1":
    print("bad", f"schema={doc.get('schema')!r}")
    sys.exit(0)
sections = {s.get("name") for s in doc.get("sections", [])}
counters = doc.get("counters", {})

missing = []
for n in ("512", "2048"):
    for c in (f"cover_speedup_{n}", f"cover_edges_agree_{n}"):
        if not isinstance(counters.get(c), (int, float)):
            missing.append(c)
    for sec in (f"covers-scan-{n}", f"covers-count-{n}"):
        if sec not in sections:
            missing.append(sec)
for tag in enum_tags:
    for c in (f"enumerate_speedup_{tag}", f"enumerate_agree_{tag}"):
        if not isinstance(counters.get(c), (int, float)):
            missing.append(c)
    for sec in (f"enumerate-{tag}", f"enumerate-{tag}-ref"):
        if sec not in sections:
            missing.append(sec)
if missing:
    print("bad", "missing " + ",".join(missing))
    sys.exit(0)
disagree = [n for n in ("512", "2048") if counters[f"cover_edges_agree_{n}"] != 1]
if disagree:
    print("bad", "scan and counting disagree on edges at " + ",".join(disagree))
    sys.exit(0)
disagree = [t for t in enum_tags if counters[f"enumerate_agree_{t}"] != 1]
if disagree:
    print("bad", "search and oracle disagree on intents at " + ",".join(disagree))
    sys.exit(0)

low = []
speedup = counters["cover_speedup_2048"]
if speedup < floor:
    low.append(f"cover_speedup_2048 below {floor}x")
for tag in enum_tags:
    if counters[f"enumerate_speedup_{tag}"] < 1.0:
        low.append(f"enumerate_speedup_{tag} below 1.0x")
detail = (f"cover_speedup_512={counters['cover_speedup_512']:.1f}"
          f" cover_speedup_2048={speedup:.1f}"
          + "".join(f" enumerate_speedup_{tag}="
                    f"{counters[f'enumerate_speedup_{tag}']:.2f}"
                    for tag in enum_tags))
print("low" if low else "pass", detail + ("; " + "; ".join(low) if low else ""))
EOF
}

last_detail=""
for attempt in $(seq 1 $ATTEMPTS); do
  rm -f "$json"
  CABLE_BENCH_QUICK=1 CABLE_BENCH_OUT="$workdir" "$bench" > /dev/null 2>&1
  if [ ! -s "$json" ]; then
    say "cover guard: FAIL (bench run produced no JSON)"
    exit 1
  fi
  result=$(verdict_of "$json" "$MIN_SPEEDUP")
  verdict=${result%% *}
  detail=${result#* }
  say "attempt $attempt: $verdict ($detail)"
  case "$verdict" in
    pass) say "cover guard: PASS"; exit 0 ;;
    # A malformed document or a disagreement is deterministic; it must
    # fail, not be retried.
    bad)  say "cover guard: FAIL ($detail)"; exit 1 ;;
    *)    last_detail=$detail ;;
  esac
done

say "cover guard: FAIL ($last_detail after $ATTEMPTS attempts)"
exit 1
