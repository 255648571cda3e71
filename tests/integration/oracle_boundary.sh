#!/usr/bin/env bash
#===- tests/integration/oracle_boundary.sh - No oracle code in shipped code -===#
#
# Part of the Cable reproduction of "Debugging Temporal Specifications with
# Concept Analysis" (PLDI 2003). MIT license.
#
#===------------------------------------------------------------------------===#
#
# The shipped library has one path per layer; the slow reference paths the
# fast ones are tested against live in *_oracle targets, built from
# sources named *Reference.cpp, which only tests and benches link. This
# check fails if a shipped archive
#
#   1. is an *_oracle target (the CMake link graph pulled one in),
#   2. holds an object compiled from a *Reference.cpp source, or
#   3. defines a global symbol that an oracle archive defines,
#
# or if a shipped executable defines such a symbol. So that the check
# cannot pass vacuously, every oracle archive must itself hold a
# *Reference.cpp object and define at least one global symbol.
# (workload/ReferenceFA.cpp is shipped: the paper's reference FA is the
# input automaton of §2, not an oracle, and its stem does not end in
# Reference.)
#
# Usage: oracle_boundary.sh <name>=<archive>... --oracles <name>=<archive>...
#        --binaries <executable>...
#
#===------------------------------------------------------------------------===#

set -u

shipped=()
oracles=()
binaries=()
mode=shipped
for arg in "$@"; do
  case "$arg" in
  --oracles) mode=oracles ;;
  --binaries) mode=binaries ;;
  *)
    case $mode in
    shipped) shipped+=("$arg") ;;
    oracles) oracles+=("$arg") ;;
    binaries) binaries+=("$arg") ;;
    esac
    ;;
  esac
done

fail=0
complain() {
  echo "oracle_boundary: $*" >&2
  fail=1
}

# Strong global definitions (text, data, bss, read-only), mangled.
globals() {
  nm --defined-only --extern-only "$1" 2>/dev/null |
    awk 'NF >= 3 && $2 ~ /^[TDBR]$/ { print $3 }' | sort -u
}

if [ ${#shipped[@]} -eq 0 ] || [ ${#oracles[@]} -eq 0 ]; then
  complain "no shipped or no oracle archives given"
  exit 1
fi

oracle_syms=$(mktemp)
trap 'rm -f "$oracle_syms"' EXIT
for entry in "${oracles[@]}"; do
  name=${entry%%=*}
  archive=${entry#*=}
  syms=$(globals "$archive")
  [ -n "$syms" ] || complain "$name defines no global symbol"
  ar t "$archive" | grep -q 'Reference\.cpp\.o$' ||
    complain "$name holds no *Reference.cpp object"
  printf '%s\n' "$syms" >>"$oracle_syms"
done
sort -u -o "$oracle_syms" "$oracle_syms"

for entry in "${shipped[@]}"; do
  name=${entry%%=*}
  archive=${entry#*=}
  case "$name" in
  *_oracle) complain "shipped library set links oracle target $name" ;;
  esac
  for member in $(ar t "$archive" | grep 'Reference\.cpp\.o$'); do
    complain "$name compiles oracle source ${member%.o}"
  done
  for sym in $(globals "$archive" | comm -12 - "$oracle_syms"); do
    complain "$name defines oracle symbol $(echo "$sym" | c++filt)"
  done
done

for binary in "${binaries[@]}"; do
  for sym in $(globals "$binary" | comm -12 - "$oracle_syms"); do
    complain "$(basename "$binary") defines oracle symbol $(echo "$sym" | c++filt)"
  done
done

if [ $fail -eq 0 ]; then
  echo "oracle_boundary: ${#shipped[@]} shipped archives and" \
    "${#binaries[@]} executables hold no code of ${#oracles[@]} oracle targets"
fi
exit $fail
