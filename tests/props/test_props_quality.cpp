// Property suite: SSIM/PSNR metric axioms on random frames.
#include "quality/metrics.h"
#include "support/generators.h"
#include "support/proptest.h"

#include <gtest/gtest.h>

#include <cmath>

namespace w4k {
namespace {

using proptest::prop_assert;
using proptest::prop_assert_near;

TEST(PropsQuality, SsimIsBoundedAndSymmetric) {
  W4K_PROP("quality.ssim-bounded-symmetric", [](Rng& rng) {
    const auto a = testgen::frame(rng, 4);
    // Same dimensions, independent content or a mild perturbation.
    video::Frame b;
    if (rng.chance(0.5)) {
      b = testgen::perturbed(a, rng);
    } else {
      Rng other(rng.next());
      b = video::Frame(a.width(), a.height());
      for (auto& p : b.y.pix)
        p = static_cast<std::uint8_t>(other.below(256));
      for (auto& p : b.u.pix)
        p = static_cast<std::uint8_t>(other.below(256));
      for (auto& p : b.v.pix)
        p = static_cast<std::uint8_t>(other.below(256));
    }
    const double ab = quality::ssim(a, b);
    const double ba = quality::ssim(b, a);
    prop_assert(ab >= 0.0 && ab <= 1.0,
                "ssim out of [0,1]: " + std::to_string(ab));
    prop_assert_near(ab, ba, 1e-12, "ssim symmetry");
  });
}

TEST(PropsQuality, SsimIdentityIsOne) {
  W4K_PROP("quality.ssim-identity", [](Rng& rng) {
    const auto a = testgen::frame(rng, 4);
    prop_assert_near(quality::ssim(a, a), 1.0, 1e-9, "ssim(a, a)");
  });
}

TEST(PropsQuality, PsnrIsNonNegativeFiniteAndCapped) {
  W4K_PROP("quality.psnr-range", [](Rng& rng) {
    const auto a = testgen::frame(rng, 4);
    const auto b = rng.chance(0.3) ? a : testgen::perturbed(a, rng, 32);
    const double p = quality::psnr(a.y, b.y);
    prop_assert(std::isfinite(p), "psnr not finite");
    prop_assert(p >= 0.0 && p <= 100.0,
                "psnr out of [0, 100]: " + std::to_string(p));
    prop_assert_near(p, quality::psnr(b.y, a.y), 1e-12, "psnr symmetry");
  });
}

TEST(PropsQuality, PerturbationNeverBeatsIdentity) {
  W4K_PROP("quality.perturbation-ordering", [](Rng& rng) {
    const auto a = testgen::frame(rng, 4);
    const auto b = testgen::perturbed(a, rng, 24);
    prop_assert(quality::ssim(a, b) <= quality::ssim(a, a) + 1e-12,
                "perturbed ssim above identity");
    prop_assert(quality::psnr(a.y, b.y) <= quality::psnr(a.y, a.y) + 1e-12,
                "perturbed psnr above identity");
  });
}

}  // namespace
}  // namespace w4k
