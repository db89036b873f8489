// Shared harness for the trace-driven mobile experiments (Figs. 16-17):
// builds the three trace types and runs the four approaches — Real-time
// Update, No Update, RobustMPC, FastMPC — over the same CSI trace, exactly
// like the paper's trace-driven methodology.
#pragma once

#include "common.h"

namespace w4k::bench {

enum class MobileScenario { kMovingHighRss, kMovingLowRss, kMovingEnvironment };

inline const char* to_string(MobileScenario s) {
  switch (s) {
    case MobileScenario::kMovingHighRss: return "(a) moving receiver, high RSS";
    case MobileScenario::kMovingLowRss: return "(b) moving receiver, low RSS";
    case MobileScenario::kMovingEnvironment: return "(c) moving environment";
  }
  return "?";
}

/// Builds the scenario's CSI trace for `n_users`. In multi-user moving
/// scenarios the paper moves two receivers and keeps the rest static.
inline channel::CsiTrace make_trace(MobileScenario scenario,
                                    std::size_t n_users, Seconds duration,
                                    std::uint64_t seed) {
  if (scenario == MobileScenario::kMovingEnvironment) {
    channel::MovingEnvironmentConfig cfg;
    Rng rng(seed);
    for (std::size_t u = 0; u < n_users; ++u)
      cfg.users.push_back(channel::Position::from_polar(
          rng.uniform(4.0, 7.0), rng.uniform(-0.8, 0.8)));
    cfg.duration = duration;
    cfg.seed = seed;
    return channel::moving_environment_trace(cfg);
  }
  channel::MovingReceiverConfig cfg;
  cfg.n_users = n_users;
  cfg.duration = duration;
  cfg.seed = seed;
  if (scenario == MobileScenario::kMovingHighRss) {
    cfg.min_distance = 2.5;
    cfg.max_distance = 7.5;
  } else {
    cfg.min_distance = 14.0;
    cfg.max_distance = 19.0;
  }
  if (n_users > 1) {
    // Paper: two receivers move, the others stay static.
    cfg.moving.assign(n_users, false);
    cfg.moving[0] = true;
    if (n_users > 1) cfg.moving[1] = true;
  }
  return channel::moving_receiver_trace(cfg);
}

struct MobileResult {
  double rt_update = 0.0;
  double no_update = 0.0;
  double robust_mpc = 0.0;
  double fast_mpc = 0.0;
};

/// Runs all four approaches over one scenario trace and returns mean SSIM.
inline MobileResult run_mobile(MobileScenario scenario, std::size_t n_users,
                               Seconds duration, std::uint64_t seed) {
  const channel::CsiTrace trace =
      make_trace(scenario, n_users, duration, seed);
  const auto& contexts = hr_contexts();

  const auto layered = [&](bool adapt) {
    core::Experiment exp(quality_model(), contexts);
    exp.codebook(beamforming::commodity_codebook());
    core::SessionConfig& cfg = exp.config();
    cfg.adapt = adapt;
    cfg.mcs_margin_db = 1.5;  // stale-CSI headroom under mobility
    cfg.seed = seed;
    return exp.run_trace(trace).ssim_summary().mean;
  };

  const auto mpc = [&](abr::Predictor p) {
    abr::AbrConfig cfg;
    cfg.rate_scale = core::rate_scale_for(kWidth, kHeight);
    const abr::AbrRunResult run =
        abr::run_abr_trace(cfg, p, trace, contexts, n_users);
    return mean(run.ssim);
  };

  MobileResult r;
  r.rt_update = layered(true);
  r.no_update = layered(false);
  r.robust_mpc = mpc(abr::Predictor::kRobustMpc);
  r.fast_mpc = mpc(abr::Predictor::kFastMpc);
  return r;
}

inline void print_mobile(const MobileResult& r) {
  std::printf("%-22s mean SSIM %.4f\n", "Real-time Update", r.rt_update);
  std::printf("%-22s mean SSIM %.4f  (gap %.4f)\n", "No Update", r.no_update,
              r.rt_update - r.no_update);
  std::printf("%-22s mean SSIM %.4f  (gap %.4f)\n", "RobustMPC", r.robust_mpc,
              r.rt_update - r.robust_mpc);
  std::printf("%-22s mean SSIM %.4f  (gap %.4f)\n", "FastMPC", r.fast_mpc,
              r.rt_update - r.fast_mpc);
}

}  // namespace w4k::bench
