// chaos_multiap — the multi-AP / relay chaos slice.
//
// Seeded random fault plans (20 by default, W4K_CHAOS_SEEDS to raise — the
// acceptance sweep uses 50) mixing AP outages (total + sector),
// handoff-beacon losses, and relay churn with the legacy fault families
// (feedback loss, CSI misses, blockage, budget collapse, user churn)
// against 2-AP, 8-user sessions with mid-session handoff and D2D peer
// relay enabled. The InvariantChecker runs in its default kThrow mode, so
// any broken conservation law (airtime budget including relay slots,
// cross-AP grouping, scheduled-while-excluded) surfaces as a throw and
// fails the run. On top of that the shared chaos harness asserts the base
// report invariants plus the multi-AP outcome shape: valid serving-AP
// indices, relay accounting that never delivers more symbols than packets
// sent, and relay airtime that stays a share of the charged total.
// Standalone (no gtest), mirroring chaos_scale; the "chaos-multiap" ctest
// label contains "chaos" so the ASan stage of scripts/tier1.sh reruns it
// sanitized.
#include "channel/multi_ap.h"
#include "core/runner.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "support/chaos_harness.h"

#include <cstdio>

namespace {

using namespace w4k;

constexpr int kW = 256;
constexpr int kH = 144;
constexpr std::size_t kUsers = 8;
constexpr std::size_t kAps = 2;
constexpr int kFrames = 12;

int report_violations(const chaos::Violations& violations,
                      std::uint64_t seed) {
  for (const std::string& what : violations)
    std::fprintf(stderr, "chaos_multiap FAIL: seed %llu: %s\n",
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
  channel::MultiApGeometry geo;
  geo.prop = prop;
  geo.aps = channel::default_ap_layout(kAps, prop.room);
  const auto users = core::place_users_fixed(kUsers, 3.5, 1.0, place_rng);
  const auto stacks = channel::ap_channel_stacks(geo, users);
  const auto azimuths = channel::ap_user_azimuths(geo, users);

  int failures = 0;
  for (std::uint64_t seed = 0; seed < n_seeds; ++seed) {
    fault::RandomPlanConfig rcfg;
    rcfg.n_aps = kAps;
    rcfg.ap_outages = 2;
    rcfg.handoff_beacon_losses = 2;
    rcfg.relay_churns = 2;
    const fault::FaultPlan plan = fault::FaultPlan::random(
        seed, static_cast<std::uint32_t>(kFrames), kUsers, rcfg);
    core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
    cfg.seed = seed + 1;
    cfg.handoff.n_aps = kAps;
    cfg.handoff.min_dwell_frames = 4;
    cfg.relay.enabled = true;
    cfg.quarantine_after = 3;
    cfg.quarantine_reprobe_period = 4;
    try {
      core::MulticastSession session(cfg, quality, beamforming::Codebook{});
      const fault::FaultInjector injector(plan, kUsers, kAps);
      const core::SessionReport report = core::run_static(
          session, stacks, contexts, kFrames, &injector, azimuths);
      failures += report_violations(
          chaos::check_report_invariants(report, kFrames, kUsers), seed);
      failures += report_violations(
          chaos::check_multi_ap_shape(report, kUsers, kAps), seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "chaos_multiap FAIL: seed %llu threw: %s\n",
                   (unsigned long long)seed, e.what());
      ++failures;
    }
    if (failures > 0) break;  // first violation is enough signal
  }

  if (failures > 0) {
    std::fprintf(stderr, "chaos_multiap: FAILED (%d violations)\n", failures);
    return 1;
  }
  std::printf("chaos_multiap: %llu seeds x %d frames at N=%zu, %zu APs, "
              "handoff + relay on: all invariants held\n",
              (unsigned long long)n_seeds, kFrames, kUsers, kAps);
  return 0;
}
