#!/usr/bin/env bash
# Tier-1 verification.
#
# Stage 1: fast (plain Release) build + the full tier-1 suite, then the
#          golden-report regression gate (byte-stable canonical JSON
#          across thread counts and SIMD dispatch; scripts/golden.sh),
#          the figure shape checks (`ctest -L figures`: every figure,
#          table and ablation bench whose reproduced shape passes, over
#          one quality model trained once by a setup fixture),
#          the chaos-scale slice (20 random fault plans against a 32-user
#          session with the anytime decide deadline on), the
#          chaos-multiap slice (20 random multi-AP plans — AP outages,
#          handoff-beacon losses, relay churn — against 2-AP sessions
#          with handoff and peer relay on), and the campaign stage: the
#          sharded scenario-sweep engine's selftest (byte-stable merge
#          across worker counts, injected-regression detection) plus the
#          smoke campaign gated statistically against its blessed
#          baseline (scripts/campaign.sh; W4K_CAMPAIGN_CELLS scales it),
#          and the serve stage: the serving-daemon suite plus the
#          process-level w4kd/w4k_loadgen smoke (scripts/serve_smoke.sh).
# Stage 2: rebuild under ASan+UBSan (W4K_SANITIZE=ON) and rerun the
#          randomized suites there: the chaos fault-injection suite, the
#          property suites (raised iteration count), and the parser fuzz
#          smoke runs — so every injected fault path, every generated
#          property input, and every mutated parser input also executes
#          under sanitizers.
# Stage 3: rebuild with W4K_COUNT_ALLOCS=ON (counted operator new/delete)
#          and run the zero-allocation gates: the counter's own contract
#          (AllocCount.*), then after warmup the pinned static4, mobile
#          and crowd scenarios and a faulted 2-AP handoff+relay scenario
#          (all through step_into) must perform zero heap allocations per
#          frame (DESIGN.md Sec. 4g) under W4K_THREADS 1 and 4 x
#          W4K_FORCE_SCALAR 0 and 1, and so must the serving daemon's
#          steady-state fan-out (ServeAllocGate.*, DESIGN.md Sec. 4j).
#          Only tests_system and tests_serve hold gate suites, so only
#          they are built there.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"

cmake -B build -S .
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure -j"$jobs" -L tier1
ctest --test-dir build --output-on-failure -L golden
# Figure shape checks: every figure/table/ablation bench that passes.
ctest --test-dir build --output-on-failure -j"$jobs" -L figures
ctest --test-dir build --output-on-failure -L chaos-scale
ctest --test-dir build --output-on-failure -L chaos-multiap
ctest --test-dir build --output-on-failure -L campaign
# Serving-daemon stage: the serve suite as one binary (wire/pool/worker/
# daemon/kill-half tests) plus the process-level serve_smoke run
# (w4kd + w4k_loadgen over loopback, /status, clean shutdown).
ctest --test-dir build --output-on-failure -L serve

# The sanitizer build also forbids google-benchmark: the tree needs only
# GoogleTest, and a reintroduced find_package(benchmark) fails here. (While
# nothing looks for the package, CMake warns that the variable is unused.)
cmake -B build-asan -S . -DW4K_SANITIZE=ON \
      -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON
cmake --build build-asan -j"$jobs" \
      --target tests_chaos tests_props chaos_scale chaos_multiap \
               fuzz_jsonlite fuzz_fault_plan fuzz_trace_io fuzz_serve_wire \
               fuzz_geometry fuzz_http_status tests_serve w4kd w4k_loadgen
# -L matches labels by regex, so "chaos" selects the chaos suite plus the
# chaos-scale and chaos-multiap slices — all rerun under the sanitizers.
ctest --test-dir build-asan --output-on-failure -j"$jobs" -L chaos
W4K_PROP_ITERS=200 \
  ctest --test-dir build-asan --output-on-failure -j"$jobs" -L props
ctest --test-dir build-asan --output-on-failure -j"$jobs" -L fuzz-smoke
# The serving daemon's epoll workers, refcounted pool, and UDP parsers
# rerun under the sanitizers too (threaded kill-half test included).
ctest --test-dir build-asan --output-on-failure -L serve

cmake -B build-alloc -S . -DW4K_COUNT_ALLOCS=ON
cmake --build build-alloc -j"$jobs" --target tests_system tests_serve
# Run the gate suites directly (no ctest discovery pass for the side
# build): the counter contract plus the per-frame zero-allocation gate,
# which skip themselves everywhere except this counting build. Every pool
# size x SIMD tier combination must be allocation-free: 1 and 4 workers,
# auto-dispatched and scalar-pinned kernels.
for threads in 1 4; do
  for scalar in 0 1; do
    W4K_THREADS="$threads" W4K_FORCE_SCALAR="$scalar" \
      ./build-alloc/tests/tests_system \
        --gtest_filter='AllocCount.*:AllocGateTest.*'
  done
done
# The daemon's steady-state fan-out (encode -> publish -> sendmmsg ->
# release) must also be allocation-free per frame (DESIGN.md Sec. 4j).
./build-alloc/tests/tests_serve --gtest_filter='ServeAllocGate.*'
