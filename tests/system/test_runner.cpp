#include "common/stats.h"
#include "core/pretrained.h"
#include "core/runner.h"

#include <gtest/gtest.h>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

class RunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    ensure_trained(*quality_, opts);
    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 5;
    spec.seed = 11;
    contexts_ = new std::vector<FrameContext>(make_contexts(
        video::SyntheticVideo(spec), 4, scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }
  static model::QualityModel* quality_;
  static std::vector<FrameContext>* contexts_;
};

model::QualityModel* RunnerTest::quality_ = nullptr;
std::vector<FrameContext>* RunnerTest::contexts_ = nullptr;

TEST_F(RunnerTest, StaticRunShapesAndCycling) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  Rng rng(1);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(2, 3.0, 0.5, rng));
  // 9 frames over 4 contexts: cycles 4,4,1.
  const SessionReport run = run_static(session, {channels}, *contexts_, 9);
  EXPECT_EQ(run.frames(), 9u);
  EXPECT_EQ(run.all_ssim().size(), 18u);  // frames x users
  EXPECT_EQ(run.all_psnr().size(), 18u);
}

TEST_F(RunnerTest, StaticRunRequiresContexts) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  Rng rng(2);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(1, 3.0, 0.5, rng));
  EXPECT_THROW(run_static(session, {channels}, {}, 3), std::invalid_argument);
}

TEST_F(RunnerTest, TraceRunUsesStaleDecisionCsi) {
  // Build a two-snapshot trace where the channel collapses at snapshot 1:
  // with frames_per_snapshot = 1, frame 1's decision uses snapshot 0
  // (good) while the truth is snapshot 1 (dead) — quality must crater,
  // demonstrating the one-beacon staleness the runner models.
  Rng rng(3);
  channel::PropagationConfig prop;
  const auto good = channels_for(prop, place_users_fixed(1, 3.0, 0.5, rng));
  const auto dead = channels_for(prop, place_users_fixed(1, 45.0, 0.5, rng));
  channel::CsiTrace trace;
  trace.snapshots = {good, dead};
  trace.positions = {{channel::Position{3, 0}}, {channel::Position{45, 0}}};

  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const SessionReport run = run_trace(session, trace, *contexts_, 1);
  ASSERT_EQ(run.frames(), 2u);
  EXPECT_GT(run.frame(0).ssim[0], 0.95);
  EXPECT_LT(run.frame(1).ssim[0], 0.9);
}

TEST_F(RunnerTest, TraceRunFramesPerSnapshot) {
  Rng rng(4);
  channel::PropagationConfig prop;
  const auto chans = channels_for(prop, place_users_fixed(1, 4.0, 0.5, rng));
  channel::CsiTrace trace;
  for (int t = 0; t < 3; ++t) {
    trace.snapshots.push_back(chans);
    trace.positions.push_back({channel::Position{4, 0}});
  }
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const SessionReport run = run_trace(session, trace, *contexts_, 3);
  EXPECT_EQ(run.frames(), 9u);  // 3 snapshots x 3 frames (30 FPS)
}

TEST_F(RunnerTest, EmptyTraceThrows) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  EXPECT_THROW(run_trace(session, channel::CsiTrace{}, *contexts_, 3),
               std::invalid_argument);
}

TEST_F(RunnerTest, PlacementRandomAzimuthWindowRespectsMas) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto users = place_users_random(5, 8.0, 16.0, 1.0, rng);
    double lo = 1e9, hi = -1e9;
    for (const auto& u : users) {
      lo = std::min(lo, u.azimuth());
      hi = std::max(hi, u.azimuth());
    }
    EXPECT_LE(hi - lo, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace w4k::core
