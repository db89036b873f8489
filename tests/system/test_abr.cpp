#include "abr/mpc.h"

#include <gtest/gtest.h>

namespace w4k::abr {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

std::vector<core::FrameContext> make_ctxs() {
  video::VideoSpec spec;
  spec.width = kW;
  spec.height = kH;
  spec.frames = 3;
  spec.richness = video::Richness::kHigh;
  spec.seed = 21;
  return core::make_contexts(video::SyntheticVideo(spec), 2,
                             core::scaled_symbol_size(kW, kH));
}

AbrConfig scaled_config() {
  AbrConfig cfg;
  cfg.rate_scale = core::rate_scale_for(kW, kH);
  return cfg;
}

/// A trace of static users and nothing moving: every beacon sees the same
/// channels.
channel::CsiTrace static_trace(const std::vector<channel::Position>& users,
                               Seconds duration) {
  std::vector<linalg::CVector> channels;
  for (const auto& p : users)
    channels.push_back(channel::make_channel(channel::PropagationConfig{}, p));
  channel::CsiTrace trace;
  const auto steps =
      static_cast<std::size_t>(duration / channel::kBeaconInterval);
  trace.snapshots.assign(steps, channels);
  trace.positions.assign(steps, users);
  return trace;
}

channel::CsiTrace stable_trace(double distance, Seconds duration = 5.0) {
  return static_trace({channel::Position::from_polar(distance, 0.1)},
                      duration);
}

TEST(DashQuality, MonotoneInBitrate) {
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  double prev = -1.0;
  for (double r : {50.0, 100.0, 300.0, 800.0, 2000.0, 8000.0}) {
    const double q = dash_quality(cfg, ctxs[0], r);
    EXPECT_GE(q, prev) << r;
    EXPECT_LE(q, 1.0);
    prev = q;
  }
}

TEST(DashQuality, ZeroRateIsBlank) {
  const auto ctxs = make_ctxs();
  EXPECT_NEAR(dash_quality(scaled_config(), ctxs[0], 0.0),
              ctxs[0].content.blank_ssim, 1e-9);
}

TEST(DashQuality, HugeRateSaturatesAtEncoderCeiling) {
  // A real encoder never reaches the uncompressed-layered 1.0 anchor.
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  EXPECT_NEAR(dash_quality(cfg, ctxs[0], 1e6), kEncoderCeiling, 1e-9);
}

TEST(RunAbr, StableLinkPicksSustainableRateAndKeepsQuality) {
  const auto ctxs = make_ctxs();
  const auto trace = stable_trace(3.0);
  const auto res =
      run_abr_trace(scaled_config(), Predictor::kRobustMpc, trace, ctxs, 1);
  EXPECT_GT(res.ssim.size(), 100u);
  // Allow the first chunk to bootstrap, then quality must stay high.
  double late_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 30; i < res.ssim.size(); ++i) {
    late_sum += res.ssim[i];
    ++n;
  }
  EXPECT_GT(late_sum / static_cast<double>(n), 0.9);
  EXPECT_LT(res.deadline_miss_fraction, 0.35);
}

TEST(RunAbr, ChosenRatesComeFromLadder) {
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  const auto res = run_abr_trace(cfg, Predictor::kFastMpc,
                                 stable_trace(4.0), ctxs, 1);
  for (double r : res.chosen_mbps) {
    bool in_ladder = false;
    for (double l : kLadderMbps) in_ladder |= (l == r);
    EXPECT_TRUE(in_ladder) << r;
  }
}

TEST(RunAbr, WeakLinkPicksLowerRates) {
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  const auto strong = run_abr_trace(cfg, Predictor::kRobustMpc,
                                    stable_trace(3.0), ctxs, 1);
  const auto weak = run_abr_trace(cfg, Predictor::kRobustMpc,
                                  stable_trace(19.5), ctxs, 1);
  double s = 0.0, w = 0.0;
  for (double r : strong.chosen_mbps) s += r;
  for (double r : weak.chosen_mbps) w += r;
  EXPECT_GT(s / static_cast<double>(strong.chosen_mbps.size()),
            w / static_cast<double>(weak.chosen_mbps.size()));
}

TEST(RunAbr, TimeSharingHurtsMultipleUsers) {
  // Unicast ABR splits airtime: 3 users each see ~1/3 of the link.
  const auto trace = static_trace({channel::Position::from_polar(8.0, 0.0),
                                   channel::Position::from_polar(8.0, 0.3),
                                   channel::Position::from_polar(8.0, -0.3)},
                                  5.0);
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  const auto one = run_abr_trace(cfg, Predictor::kRobustMpc,
                                 stable_trace(8.0), ctxs, 1);
  const auto three =
      run_abr_trace(cfg, Predictor::kRobustMpc, trace, ctxs, 3);
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean(one.ssim), mean(three.ssim));
}

TEST(RunAbr, BlockageCausesGopLosses) {
  channel::MovingEnvironmentConfig mcfg;
  mcfg.users = {channel::Position::from_polar(10.0, 0.0)};
  mcfg.duration = 30.0;
  mcfg.seed = 77;
  const auto trace = channel::moving_environment_trace(mcfg);
  const auto ctxs = make_ctxs();
  const auto res = run_abr_trace(scaled_config(), Predictor::kFastMpc,
                                 trace, ctxs, 1);
  EXPECT_GT(res.deadline_miss_fraction, 0.0);
  // Some frames must show the frozen-GoP quality collapse.
  double min_ssim = 1.0;
  for (double s : res.ssim) min_ssim = std::min(min_ssim, s);
  EXPECT_LT(min_ssim, 0.85);
}

TEST(RunAbr, RobustMoreConservativeThanFastUnderVolatility) {
  channel::MovingReceiverConfig mcfg;
  mcfg.n_users = 1;
  mcfg.duration = 30.0;
  mcfg.min_distance = 4.0;
  mcfg.max_distance = 14.0;
  mcfg.seed = 31;
  const auto trace = channel::moving_receiver_trace(mcfg);
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  const auto robust =
      run_abr_trace(cfg, Predictor::kRobustMpc, trace, ctxs, 1);
  const auto fast = run_abr_trace(cfg, Predictor::kFastMpc, trace, ctxs, 1);
  double rsum = 0.0, fsum = 0.0;
  for (double r : robust.chosen_mbps) rsum += r;
  for (double r : fast.chosen_mbps) fsum += r;
  // RobustMPC discounts by prediction error -> picks lower rates.
  EXPECT_LE(rsum, fsum + 1e-9);
  EXPECT_LE(robust.deadline_miss_fraction, fast.deadline_miss_fraction + 1e-9);
}

TEST(RunAbr, BadArgumentsThrow) {
  const auto ctxs = make_ctxs();
  const auto cfg = scaled_config();
  EXPECT_THROW(
      run_abr_trace(cfg, Predictor::kFastMpc, channel::CsiTrace{}, ctxs, 1),
      std::invalid_argument);
  EXPECT_THROW(run_abr_trace(cfg, Predictor::kFastMpc, stable_trace(3.0),
                             {}, 1),
               std::invalid_argument);
}

TEST(Predictor, Names) {
  EXPECT_EQ(to_string(Predictor::kRobustMpc), "RobustMPC");
  EXPECT_EQ(to_string(Predictor::kFastMpc), "FastMPC");
}

}  // namespace
}  // namespace w4k::abr
