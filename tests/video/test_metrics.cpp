#include "quality/metrics.h"
#include "video/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace w4k::quality {
namespace {

using video::Frame;
using video::Plane;

Frame noise_frame(int w, int h, std::uint64_t seed) {
  video::VideoSpec spec;
  spec.width = w;
  spec.height = h;
  spec.frames = 1;
  spec.richness = video::Richness::kHigh;
  spec.seed = seed;
  return video::SyntheticVideo(spec).frame(0);
}

TEST(Ssim, IdenticalFramesScoreOne) {
  const Frame f = noise_frame(64, 64, 1);
  EXPECT_DOUBLE_EQ(ssim(f, f), 1.0);
}

TEST(Ssim, SymmetricInArguments) {
  const Frame a = noise_frame(64, 64, 2);
  const Frame b = noise_frame(64, 64, 3);
  EXPECT_NEAR(ssim(a, b), ssim(b, a), 1e-12);
}

TEST(Ssim, BoundedAboveByOne) {
  const Frame a = noise_frame(128, 64, 4);
  const Frame b = noise_frame(128, 64, 5);
  EXPECT_LE(ssim(a, b), 1.0);
}

TEST(Ssim, UnrelatedContentScoresLow) {
  const Frame a = noise_frame(128, 128, 6);
  const Frame b = noise_frame(128, 128, 7);
  EXPECT_LT(ssim(a, b), 0.7);
}

TEST(Ssim, SmallDistortionScoresHigh) {
  const Frame a = noise_frame(128, 128, 8);
  Frame b = a;
  for (auto& p : b.y.pix)
    p = static_cast<std::uint8_t>(std::min(255, p + 2));
  EXPECT_GT(ssim(a, b), 0.97);
}

TEST(Ssim, MonotoneInDistortionStrength) {
  const Frame a = noise_frame(128, 128, 9);
  double prev = 1.0;
  for (int amp : {1, 4, 16, 64}) {
    Frame b = a;
    std::uint64_t s = 12345;
    for (auto& p : b.y.pix) {
      s = s * 6364136223846793005ULL + 1;
      const int n = static_cast<int>((s >> 33) % (2 * amp + 1)) - amp;
      p = static_cast<std::uint8_t>(std::clamp(static_cast<int>(p) + n, 0, 255));
    }
    const double v = ssim(a, b);
    EXPECT_LT(v, prev) << "amp=" << amp;
    prev = v;
  }
}

TEST(Ssim, ConstantVsConstantSameValue) {
  Plane a(64, 64, 100), b(64, 64, 100);
  EXPECT_DOUBLE_EQ(ssim(a, b), 1.0);
}

TEST(Ssim, ConstantVsConstantDifferentValue) {
  Plane a(64, 64, 50), b(64, 64, 200);
  // Pure luminance shift: SSIM = (2*50*200 + C1)/(50^2 + 200^2 + C1).
  const double c1 = (0.01 * 255) * (0.01 * 255);
  EXPECT_NEAR(ssim(a, b), (2.0 * 50 * 200 + c1) / (50.0 * 50 + 200.0 * 200 + c1),
              1e-9);
}

TEST(Ssim, DimensionMismatchThrows) {
  Plane a(64, 64), b(32, 64);
  EXPECT_THROW(ssim(a, b), std::invalid_argument);
}

TEST(Ssim, TooSmallPlaneThrows) {
  Plane a(4, 4), b(4, 4);
  EXPECT_THROW(ssim(a, b), std::invalid_argument);
}

TEST(Psnr, IdenticalIsCappedAt100) {
  const Frame f = noise_frame(64, 64, 10);
  EXPECT_DOUBLE_EQ(psnr(f.y, f.y), 100.0);
}

TEST(Psnr, KnownMse) {
  Plane a(64, 64, 100), b(64, 64, 110);
  // MSE = 100 -> PSNR = 10 log10(255^2/100) = 28.13 dB.
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-9);
}

TEST(Psnr, MonotoneInError) {
  Plane a(64, 64, 100);
  Plane b1(64, 64, 105), b2(64, 64, 120);
  EXPECT_GT(psnr(a, b1), psnr(a, b2));
}

TEST(Psnr, DimensionMismatchThrows) {
  Plane a(64, 64), b(64, 32);
  EXPECT_THROW(psnr(a, b), std::invalid_argument);
}

TEST(ContentFeatures, MonotoneAcrossLayers) {
  const Frame f = noise_frame(128, 128, 11);
  const auto enc = video::encode(f);
  const ContentFeatures cf = content_features(f, enc);
  EXPECT_LT(cf.blank, cf.up_to_layer[0]);
  for (int l = 1; l < video::kNumLayers; ++l)
    EXPECT_GT(cf.up_to_layer[l], cf.up_to_layer[l - 1]);
  EXPECT_GT(cf.up_to_layer[3], 0.99);  // full reception ~ lossless
}

TEST(ContentFeatures, BlankMatchesDirectComputation) {
  const Frame f = noise_frame(64, 64, 12);
  const auto enc = video::encode(f);
  const ContentFeatures cf = content_features(f, enc);
  EXPECT_NEAR(cf.blank, ssim(f, Frame::blank(64, 64)), 1e-12);
}

}  // namespace
}  // namespace w4k::quality
