// Property suite: the block-sum SSIM/PSNR kernel against the per-window
// oracle (tests/support/quality_oracle.h), bit for bit.
//
// Planes have arbitrary sizes, including widths and heights that are not
// multiples of 4 (pixels outside the 4x4 block grid still count for
// PSNR), and tall or large ones that span several SSIM bands and PSNR
// bands. ctest also runs this suite under W4K_THREADS=1/4 x
// W4K_FORCE_SCALAR=0/1 (tests/CMakeLists.txt).
#include "quality/metrics.h"
#include "support/proptest.h"
#include "support/quality_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>

namespace w4k {
namespace {

using proptest::prop_assert;

void assert_same_bits(double got, double want, const std::string& what) {
  if (std::memcmp(&got, &want, sizeof got) != 0) {
    std::ostringstream os;
    os.precision(17);
    os << what << ": " << got << " != oracle " << want;
    throw proptest::PropertyFailure(os.str());
  }
}

/// Plane size: mostly small and odd, sometimes tall (several SSIM bands)
/// or large (several PSNR bands).
video::Plane random_shape(Rng& rng, int min_dim = 8) {
  int w = min_dim + static_cast<int>(rng.below(64));
  int h = min_dim + static_cast<int>(rng.below(64));
  const double kind = rng.uniform();
  if (kind < 0.15) {
    h = 140 + static_cast<int>(rng.below(160));  // >= 2 SSIM bands
  } else if (kind < 0.22) {
    w = 250 + static_cast<int>(rng.below(80));   // > 64 Ki pixels
    h = 270 + static_cast<int>(rng.below(40));
  }
  return video::Plane(w, h);
}

/// Random content: noise, gradient plus noise, or flat.
void fill(video::Plane& p, Rng& rng) {
  const double kind = rng.uniform();
  const auto flat = static_cast<std::uint8_t>(rng.below(256));
  const int noise = 1 + static_cast<int>(rng.below(255));
  for (int y = 0; y < p.height; ++y)
    for (int x = 0; x < p.width; ++x) {
      int v;
      if (kind < 0.4)
        v = static_cast<int>(rng.below(256));
      else if (kind < 0.9)
        v = (x + y) * 255 / (p.width + p.height) +
            static_cast<int>(rng.below(static_cast<std::uint64_t>(noise)));
      else
        v = flat;
      p.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
    }
}

/// A distorted twin: independent content, a perturbed copy, or a copy.
video::Plane distorted(const video::Plane& ref, Rng& rng) {
  video::Plane d = ref;
  const double kind = rng.uniform();
  if (kind < 0.35) {
    fill(d, rng);
  } else if (kind < 0.9) {
    const int amp = 1 + static_cast<int>(rng.below(64));
    for (auto& px : d.pix)
      if (rng.chance(0.3))
        px = static_cast<std::uint8_t>(std::clamp(
            static_cast<int>(px) + static_cast<int>(rng.range(-amp, amp)), 0,
            255));
  }
  return d;
}

TEST(PropsQualityOracle, SsimAndPsnrMatchOracleBitForBit) {
  W4K_PROP("quality.oracle-ssim-psnr", [](Rng& rng) {
    video::Plane a = random_shape(rng);
    fill(a, rng);
    const video::Plane b = distorted(a, rng);
    assert_same_bits(quality::ssim(a, b), oracle::ssim(a, b), "ssim");
    assert_same_bits(quality::psnr(a, b), oracle::psnr(a, b), "psnr");
  });
}

TEST(PropsQualityOracle, FusedScoresMatchOracleBitForBit) {
  W4K_PROP("quality.oracle-fused", [](Rng& rng) {
    video::Plane a = random_shape(rng);
    fill(a, rng);
    const quality::ReferenceSums ref = quality::reference_sums(a);
    // One set of reference sums serves several distorted planes.
    for (int i = 0; i < 3; ++i) {
      const video::Plane b = distorted(a, rng);
      const quality::Scores s = quality::scores(a, ref, b);
      assert_same_bits(s.ssim, oracle::ssim(a, b), "fused ssim");
      assert_same_bits(s.psnr, oracle::psnr(a, b), "fused psnr");
    }
  });
}

TEST(PropsQualityOracle, IdenticalPlanesHitThePsnrCap) {
  W4K_PROP("quality.oracle-identical", [](Rng& rng) {
    video::Plane a = random_shape(rng);
    fill(a, rng);
    const quality::Scores s =
        quality::scores(a, quality::reference_sums(a), a);
    prop_assert(s.psnr == 100.0, "identical planes: psnr below the cap");
    assert_same_bits(s.psnr, oracle::psnr(a, a), "identical psnr");
    assert_same_bits(s.ssim, oracle::ssim(a, a), "identical ssim");
    assert_same_bits(quality::psnr(a, a), 100.0, "plain psnr cap");
  });
}

TEST(PropsQualityOracle, BlankScoresMatchExplicitBlankPlane) {
  W4K_PROP("quality.oracle-blank", [](Rng& rng) {
    video::Plane a = random_shape(rng);
    fill(a, rng);
    const video::Plane blank(a.width, a.height, 128);
    const quality::Scores s = quality::blank_scores(quality::reference_sums(a));
    assert_same_bits(s.ssim, oracle::ssim(a, blank), "blank ssim");
    assert_same_bits(s.psnr, oracle::psnr(a, blank), "blank psnr");
  });
}

TEST(PropsQualityOracle, MismatchedReferenceSumsThrow) {
  const video::Plane a(32, 24, 7);
  const video::Plane b(24, 32, 7);
  const quality::ReferenceSums ref = quality::reference_sums(a);
  EXPECT_THROW(quality::scores(b, ref, b), std::invalid_argument);
  EXPECT_THROW(quality::scores(a, ref, b), std::invalid_argument);
  EXPECT_THROW(quality::reference_sums(video::Plane(7, 32)),
               std::invalid_argument);
  EXPECT_THROW(quality::blank_scores(quality::ReferenceSums{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace w4k
