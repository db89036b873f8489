// Shared scaffolding for the google-benchmark binaries
// (bench_fig2_raptor_timing, bench_micro_pipeline). Kept separate from
// common.h so the table/figure harnesses don't pull in benchmark.h.
#pragma once

#include "common.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

namespace w4k::bench {

/// Deterministic affine byte fill for kernel input/output buffers. The
/// (mul, add) pairs are arbitrary but fixed so timings are comparable
/// across runs and binaries.
inline std::vector<std::uint8_t> affine_bytes(std::size_t n, unsigned mul,
                                              unsigned add) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * mul + add);
  return v;
}

/// Deterministic pseudo-random fill (Knuth multiplicative hash) for coding
/// unit payloads: incompressible enough that the GF(256) work is real.
inline std::vector<std::uint8_t> hashed_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  return v;
}

/// Custom main body shared by the google-benchmark binaries instead of
/// BENCHMARK_MAIN(): wraps the run in BenchMain with telemetry disabled
/// (these binaries time the raw hot paths and must run the disabled-path
/// code the figures assume), then hands argv to google-benchmark. An
/// optional epilogue runs after the benchmarks while the manifest is
/// still open (e.g. the scalar-vs-SIMD A/B that writes BENCH_kernels.json).
/// Returns nonzero when no benchmark matched the filter.
inline int run_gbench(const char* name, int argc, char** argv,
                      const std::function<void()>& epilogue = {}) {
  BenchMain bm(name, /*telemetry=*/false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // A filter that matches nothing is an error, so smoke runs that select
  // rows by filter cannot pass without running them.
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  if (epilogue) epilogue();
  benchmark::Shutdown();
  return ran > 0 ? 0 : 1;
}

}  // namespace w4k::bench
