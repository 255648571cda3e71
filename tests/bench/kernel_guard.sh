#!/usr/bin/env bash
#===- tests/bench/kernel_guard.sh - SIMD kernel regression guard -----------===#
#
# Part of the Cable reproduction of "Debugging Temporal Specifications with
# Concept Analysis" (PLDI 2003). MIT license.
#
#===------------------------------------------------------------------------===#
#
# Gates the kernel layer on three promises:
#
#   1. BENCH_scaling_lattice.json is schema-valid (cable-bench/1) and
#      carries the fused-AND throughput sections and enumeration counters.
#   2. One-sided: on a CPU with AVX2, the AVX2 fused AND (andManyInto) is
#      not slower than the portable one (within a noise margin — a slower
#      AVX2 form would mean the one remaining CPU dispatch no longer pays
#      on this machine). Without AVX2 there is nothing to compare.
#   3. The shipped Close-by-One enumeration did not regress against the
#      NextClosure oracle plus one tau per intent (NextClosureReference):
#      enumerate_speedup_* >= 1.0 (the measured speedup is recorded in the
#      JSON; the guard enforces the never-slower floor so it stays
#      meaningful on noisy shared runners).
#
# Exit codes: 0 pass, 1 failure (timing regression, or schema/structural
# breakage in the emitted JSON — that outcome is deterministic, not noise),
# 77 skip (genuinely environmental: bench binary or python3 missing, or no
# JSON produced).
#
# Usage: kernel_guard.sh <source-dir> <build-dir>
#
#===------------------------------------------------------------------------===#

set -u

SRC=${1:?usage: kernel_guard.sh <source-dir> <build-dir>}
BUILD=${2:?usage: kernel_guard.sh <source-dir> <build-dir>}
MARGIN_PCT=${CABLE_KERNEL_GUARD_MARGIN_PCT:-25.0}
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

workdir="$BUILD/kernel_guard"
mkdir -p "$workdir"
json="$workdir/BENCH_scaling_lattice.json"

run_bench() {
  rm -f "$json"
  CABLE_BENCH_QUICK=1 CABLE_BENCH_OUT="$workdir" "$bench" > /dev/null 2>&1
  [ -s "$json" ]
}

# Schema + structural validation happens once; the timing comparison gets
# interleaved attempts because quick-mode medians are noisy.
verdict_of() { # verdict_of <json> <margin-pct> -> pass/over/bad + details
  python3 - "$1" "$2" <<'EOF'
import json, sys

path, margin = sys.argv[1], float(sys.argv[2])
try:
    doc = json.load(open(path))
except Exception as e:
    print("bad", f"unreadable JSON: {e}")
    sys.exit(0)

if doc.get("schema") != "cable-bench/1":
    print("bad", f"schema={doc.get('schema')!r}")
    sys.exit(0)
sections = {s["name"]: s for s in doc.get("sections", [])}
counters = doc.get("counters", {})

tags = ["xtfree", "random512"]
required_counters = [f"enumerate_speedup_{tag}" for tag in tags]
missing = [c for c in required_counters if c not in counters]
if "kernel-andmany-portable" not in sections:
    missing.append("kernel-andmany-portable")
for tag in tags:
    for sec in (f"enumerate-{tag}", f"enumerate-{tag}-ref"):
        if sec not in sections:
            missing.append(sec)
if missing:
    print("bad", "missing " + ",".join(missing))
    sys.exit(0)

failures = []
# One-sided: the AVX2 fused AND must not be slower than the portable one
# beyond the noise margin. Faster is trivially fine.
portable = sections["kernel-andmany-portable"]["median_ms"]
avx2 = sections.get("kernel-andmany-avx2")
if avx2 is not None and portable > 0:
    slowdown = (avx2["median_ms"] - portable) / portable * 100
    if slowdown > margin:
        failures.append(f"kernel-andmany-avx2 {slowdown:.1f}% slower than portable")

for tag in tags:
    speedup = counters[f"enumerate_speedup_{tag}"]
    if speedup < 1.0:
        failures.append(f"enumerate_speedup_{tag}={speedup:.2f} < 1.0")

if failures:
    print("over", "; ".join(failures))
else:
    print("pass",
          f"avx2={'yes' if avx2 is not None else 'no'}"
          + "".join(f" enumerate_speedup_{tag}="
                    f"{counters[f'enumerate_speedup_{tag}']:.2f}"
                    for tag in tags))
EOF
}

last_detail=""
for attempt in $(seq 1 $ATTEMPTS); do
  if ! run_bench; then
    say "SKIP: bench run produced no JSON"
    exit 77
  fi
  result=$(verdict_of "$json" "$MARGIN_PCT")
  verdict=${result%% *}
  detail=${result#* }
  say "attempt $attempt: $verdict ($detail)"
  case "$verdict" in
    pass) say "kernel guard: PASS"; exit 0 ;;
    # Schema/structural breakage is deterministic — a bench that stops
    # emitting the required sections or counters must fail, not skip.
    bad)  say "kernel guard: FAIL ($detail)"; exit 1 ;;
    *)    last_detail=$detail ;;
  esac
done

say "kernel guard: FAIL ($last_detail after $ATTEMPTS attempts)"
exit 1
