#!/usr/bin/env bash
# Golden-report regression gate.
#
# Runs the six pinned golden_report scenarios (static4, faulted, mobile,
# multiap, relay, baselines) under every combination of W4K_THREADS=1/4 and W4K_FORCE_SCALAR=0/1,
# asserts the canonical JSON is byte-identical across all combinations
# (threading and SIMD dispatch must not change the numbers), and diffs the
# result against the blessed files in tests/golden/data/.
#
# Usage:
#   scripts/golden.sh [--binary PATH] [--bless]
#
#   --binary PATH  golden_report executable (default: build/tests/golden_report)
#   --bless        overwrite the blessed files with the current output.
#                  Do this only for an intentional numbers change, and
#                  explain the change in the same commit.
set -euo pipefail

cd "$(dirname "$0")/.."

binary=build/tests/golden_report
bless=0
while [ $# -gt 0 ]; do
  case "$1" in
    --binary) binary="$2"; shift 2 ;;
    --bless)  bless=1; shift ;;
    *) echo "golden.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -x "$binary" ]; then
  echo "golden.sh: $binary not found (build the golden_report target first)" >&2
  exit 2
fi

blessed_dir=tests/golden/data
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Train the quality model once; every combination below loads this cache,
# so the gate exercises the streaming path, not repeated training.
cache="$workdir/golden_model.cache"
W4K_THREADS=1 W4K_FORCE_SCALAR=0 \
  "$binary" static4 --model-cache "$cache" --out "$workdir/warmup.json"

scenarios="static4 faulted mobile multiap relay baselines"
status=0
for scenario in $scenarios; do
  ref=""
  for threads in 1 4; do
    for scalar in 0 1; do
      out="$workdir/$scenario.t$threads.s$scalar.json"
      W4K_THREADS=$threads W4K_FORCE_SCALAR=$scalar \
        "$binary" "$scenario" --model-cache "$cache" --out "$out"
      if [ -z "$ref" ]; then
        ref="$out"
      elif ! cmp -s "$ref" "$out"; then
        echo "golden.sh: $scenario NOT byte-stable:" \
             "W4K_THREADS=$threads W4K_FORCE_SCALAR=$scalar differs" >&2
        diff "$ref" "$out" | head -5 >&2 || true
        status=1
      fi
    done
  done

  blessed="$blessed_dir/$scenario.json"
  if [ "$bless" = 1 ]; then
    mkdir -p "$blessed_dir"
    cp "$ref" "$blessed"
    echo "golden.sh: blessed $blessed"
  elif [ ! -f "$blessed" ]; then
    echo "golden.sh: missing $blessed (run with --bless to create)" >&2
    status=1
  elif ! cmp -s "$blessed" "$ref"; then
    echo "golden.sh: $scenario diverges from blessed $blessed" >&2
    diff "$blessed" "$ref" | head -10 >&2 || true
    status=1
  else
    echo "golden.sh: $scenario ok"
  fi
done

exit $status
