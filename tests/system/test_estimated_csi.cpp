#include "common/stats.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

class EstimatedCsiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";  // share the session cache
    ensure_trained(*quality_, opts);

    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 3;
    spec.richness = video::Richness::kHigh;
    spec.seed = 11;
    contexts_ = new std::vector<FrameContext>(make_contexts(
        video::SyntheticVideo(spec), 2, scaled_symbol_size(kW, kH)));

    // Codebook rich enough for phase retrieval (>= 2x antenna count).
    codebook_ = new beamforming::Codebook(beamforming::make_sector_codebook(
        beamforming::CodebookConfig{32, 96}));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    delete codebook_;
    quality_ = nullptr;
    contexts_ = nullptr;
    codebook_ = nullptr;
  }

  static model::QualityModel* quality_;
  static std::vector<FrameContext>* contexts_;
  static beamforming::Codebook* codebook_;
};

model::QualityModel* EstimatedCsiTest::quality_ = nullptr;
std::vector<FrameContext>* EstimatedCsiTest::contexts_ = nullptr;
beamforming::Codebook* EstimatedCsiTest::codebook_ = nullptr;

TEST_F(EstimatedCsiTest, NearPerfectCsiQuality) {
  // The whole point of ACO: estimated CSI should cost almost nothing
  // against a perfect-CSI oracle.
  Rng rng(3);
  channel::PropagationConfig prop;
  const auto users = place_users_fixed(2, 3.0, 1.047, rng);
  const auto channels = channels_for(prop, users);

  SessionConfig perfect_cfg = SessionConfig::scaled(kW, kH);
  MulticastSession perfect(perfect_cfg, *quality_, *codebook_);
  const auto perfect_run = run_static(perfect, {channels}, *contexts_, 5);

  SessionConfig est_cfg = SessionConfig::scaled(kW, kH);
  est_cfg.use_estimated_csi = true;
  MulticastSession estimated(est_cfg, *quality_, *codebook_);
  const auto est_run = run_static(estimated, {channels}, *contexts_, 5);

  EXPECT_GT(est_run.ssim_summary().mean, perfect_run.ssim_summary().mean - 0.02);
}

TEST_F(EstimatedCsiTest, TooSmallCodebookThrows) {
  Rng rng(4);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(1, 3.0, 0.5, rng));
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.use_estimated_csi = true;
  beamforming::CodebookConfig small;
  small.n_beams = 8;  // < 32 antennas
  // validate() rejects the undersized codebook at construction time.
  EXPECT_THROW(MulticastSession(cfg, *quality_,
                                beamforming::make_sector_codebook(small)),
               std::invalid_argument);
  (void)channels;
}

TEST_F(EstimatedCsiTest, NoisySweepsDegradeGracefully) {
  Rng rng(5);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(2, 6.0, 0.8, rng));

  SessionConfig clean_cfg = SessionConfig::scaled(kW, kH);
  clean_cfg.use_estimated_csi = true;
  clean_cfg.sls_noise_db = 0.1;
  MulticastSession clean(clean_cfg, *quality_, *codebook_);
  const auto clean_run = run_static(clean, {channels}, *contexts_, 4);

  SessionConfig noisy_cfg = clean_cfg;
  noisy_cfg.sls_noise_db = 3.0;
  MulticastSession noisy(noisy_cfg, *quality_, *codebook_);
  const auto noisy_run = run_static(noisy, {channels}, *contexts_, 4);

  // Noise hurts (or at least never helps beyond jitter), but the system
  // keeps working — no outage collapse.
  EXPECT_GT(noisy_run.ssim_summary().mean, 0.75);
  EXPECT_LE(noisy_run.ssim_summary().mean,
            clean_run.ssim_summary().mean + 0.02);
}

TEST_F(EstimatedCsiTest, NoUpdateEstimatesCsiOnce) {
  // No Update decides once, on frame 0's estimate; later frames must not
  // pay for (or draw rng for) an estimate nothing reads.
  Rng rng(6);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(2, 3.0, 1.047, rng));
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.adapt = false;
  cfg.use_estimated_csi = true;
  MulticastSession session(cfg, *quality_, *codebook_);
  obs::set_enabled(true);
  const obs::Stage& estimate = obs::stage("session.csi_estimate");
  const std::uint64_t before = estimate.count();
  run_static(session, {channels}, *contexts_, 10);
  const std::uint64_t estimates = estimate.count() - before;
  obs::set_enabled(false);
  EXPECT_EQ(estimates, 1u);
}

}  // namespace
}  // namespace w4k::core
