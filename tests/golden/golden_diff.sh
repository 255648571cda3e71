#!/usr/bin/env bash
# Golden lock for the paper-facing bench binaries that run sk-strings.
#
# Usage: golden_diff.sh GOLDEN_DIR BIN...
#
# Runs each binary with CABLE_BENCH_OUT pointed at a temporary directory
# (so no BENCH_*.json lands in the working tree) and diffs its stdout
# against GOLDEN_DIR/<binary name>.txt. The outputs are timing-free and
# seeded, so any byte that moves is a behaviour change. Exits 1 on the
# first mismatch or failed binary, after running them all.
set -u
golden=$1
shift
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for bin in "$@"; do
  name=$(basename "$bin")
  if ! CABLE_BENCH_OUT="$out" "$bin" > "$out/$name.txt"; then
    echo "FAIL $name: exited non-zero"
    status=1
    continue
  fi
  if diff -u "$golden/$name.txt" "$out/$name.txt"; then
    echo "ok   $name"
  else
    echo "FAIL $name: stdout differs from $golden/$name.txt"
    status=1
  fi
done
exit $status
