// chaos_scale — the chaos suite's N=32 slice, deadline on.
//
// Seeded random fault plans (20 by default, W4K_CHAOS_SEEDS to raise)
// against a 32-user session running the full anytime scheduler
// (cluster-tree candidates, rate-bound pruning, batched beamforming,
// decide_deadline_ms cutoff). The invariants come from the shared chaos
// harness (tests/support/chaos_harness.h): no crash/throw, monotonic frame
// ids, well-formed per-user outputs, finite aggregates. Determinism is
// deliberately NOT asserted here — the deadline makes decide_into()
// clock-dependent by design; the purity suites cover the deadline-off
// path. Standalone binary (no gtest) so scripts/tier1.sh can run it as one
// fast stage; exits non-zero on the first violated invariant.
#include "core/runner.h"
#include "fault/plan.h"
#include "support/chaos_harness.h"

#include <cstdio>

namespace {

using namespace w4k;

constexpr int kW = 256;
constexpr int kH = 144;
constexpr std::size_t kUsers = 32;
constexpr int kFrames = 5;

int report_violations(const chaos::Violations& violations,
                      std::uint64_t seed) {
  for (const std::string& what : violations)
    std::fprintf(stderr, "chaos_scale FAIL: seed %llu: %s\n",
                 (unsigned long long)seed, what.c_str());
  return static_cast<int>(violations.size());
}

}  // namespace

int main() {
  const std::uint64_t n_seeds = chaos::seed_count(20);
  model::QualityModel quality(42);
  chaos::ensure_chaos_model(quality);
  const auto contexts = chaos::chaos_contexts(kW, kH);

  Rng place_rng(5);
  channel::PropagationConfig prop;
  const auto channels = core::channels_for(
      prop, core::place_users_fixed(kUsers, 4.0, 1.0, place_rng));

  int failures = 0;
  for (std::uint64_t seed = 0; seed < n_seeds; ++seed) {
    const fault::FaultPlan plan = fault::FaultPlan::random(
        seed, static_cast<std::uint32_t>(kFrames), kUsers);
    core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
    cfg.seed = seed + 1;
    cfg.mcs_margin_db = 1.0;
    cfg.decide_deadline_ms = 20.0;  // the anytime cutoff under test
    try {
      core::MulticastSession session(cfg, quality, beamforming::Codebook{});
      const fault::FaultInjector injector(plan, kUsers);
      const core::SessionReport report =
          core::run_static(session, {channels}, contexts, kFrames, &injector);
      failures += report_violations(
          chaos::check_report_invariants(report, kFrames, kUsers), seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos_scale FAIL: seed %llu threw: %s\n",
                   (unsigned long long)seed, e.what());
      ++failures;
    }
    if (failures > 0) break;  // first violation is enough signal
  }

  if (failures > 0) {
    std::fprintf(stderr, "chaos_scale: FAILED (%d violations)\n", failures);
    return 1;
  }
  std::printf("chaos_scale: %llu seeds x %d frames at N=%zu (deadline 20 ms)"
              ": all invariants held\n",
              (unsigned long long)n_seeds, kFrames, kUsers);
  return 0;
}
