#!/usr/bin/env bash
# Figure-output stability gate.
#
# Runs each given figure bench twice from the working directory (which
# holds the trained quality model): once on one thread with auto-dispatched
# GF(256) kernels, once on four threads with the kernels pinned to the
# scalar tier. The two stdouts must be identical once the '#' lines
# (manifest paths, wall-clock timings) are set aside. Each run writes its
# manifest into a directory of its own.
#
# Usage:
#   scripts/figures_stable.sh BENCH_BINARY...
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/serial" "$work/parallel"

status=0
for bin in "$@"; do
  name="$(basename "$bin")"
  W4K_THREADS=1 W4K_FORCE_SCALAR=0 W4K_MANIFEST_DIR="$work/serial" \
    "$bin" > "$work/$name.serial"
  W4K_THREADS=4 W4K_FORCE_SCALAR=1 W4K_MANIFEST_DIR="$work/parallel" \
    "$bin" > "$work/$name.parallel"
  if diff <(grep -v '^#' "$work/$name.serial") \
          <(grep -v '^#' "$work/$name.parallel"); then
    echo "figures_stable: $name ok"
  else
    echo "figures_stable: $name differs between the two runs" >&2
    status=1
  fi
done
exit "$status"
