#include "core/frame_context.h"

#include "common/rng.h"
#include "quality/metrics.h"

#include "support/decode.h"

#include <gtest/gtest.h>

namespace w4k::core {
namespace {

video::SyntheticVideo small_clip(int frames = 4) {
  video::VideoSpec spec;
  spec.width = 256;
  spec.height = 144;
  spec.frames = frames;
  spec.richness = video::Richness::kHigh;
  spec.seed = 3;
  return video::SyntheticVideo(spec);
}

TEST(RateScale, FourKIsUnity) {
  EXPECT_DOUBLE_EQ(rate_scale_for(4096, 2160), 1.0);
}

TEST(RateScale, ScalesWithPixels) {
  EXPECT_NEAR(rate_scale_for(2048, 1080), 0.25, 1e-12);
  EXPECT_NEAR(rate_scale_for(512, 288), 512.0 * 288 / (4096.0 * 2160), 1e-15);
}

TEST(ScaledSymbolSize, MatchesPaperAt4K) {
  EXPECT_EQ(scaled_symbol_size(4096, 2160), 6000u);
}

TEST(ScaledSymbolSize, ProportionalWithFloor) {
  EXPECT_EQ(scaled_symbol_size(512, 288), 100u);
  EXPECT_GE(scaled_symbol_size(16, 16), 40u);  // floor kicks in
}

TEST(FrameContext, LayerBytesAreSymbolPadded) {
  const auto clip = small_clip();
  const FrameContext ctx = make_frame_context(clip.frame(0), nullptr, 100);
  for (int l = 0; l < video::kNumLayers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    const double raw =
        static_cast<double>(video::layer_bytes(l, 256, 144));
    EXPECT_GE(ctx.content.layer_bytes[ls], raw);
    EXPECT_LE(ctx.content.layer_bytes[ls], raw + 100.0 * 8);
    // And they must be exactly the sum over the layer's units.
    double unit_sum = 0.0;
    for (const auto& u : ctx.units)
      if (u.id.layer == l) unit_sum += static_cast<double>(u.k_symbols) * 100;
    EXPECT_DOUBLE_EQ(ctx.content.layer_bytes[ls], unit_sum);
  }
}

TEST(FrameContext, ContentFeaturesMonotone) {
  const auto clip = small_clip();
  const FrameContext ctx = make_frame_context(clip.frame(0), nullptr, 100);
  EXPECT_LT(ctx.content.blank_ssim, ctx.content.up_to_layer_ssim[0]);
  for (int l = 1; l < video::kNumLayers; ++l)
    EXPECT_GE(ctx.content.up_to_layer_ssim[static_cast<std::size_t>(l)],
              ctx.content.up_to_layer_ssim[static_cast<std::size_t>(l - 1)]);
}

TEST(FrameContext, PrevFrameSsimComputed) {
  const auto clip = small_clip();
  const video::Frame f0 = clip.frame(0);
  const video::Frame f1 = clip.frame(1);
  const FrameContext ctx = make_frame_context(f1, &f0, 100);
  EXPECT_NEAR(ctx.prev_frame_ssim, quality::ssim(f1, f0), 1e-12);
  EXPECT_LT(ctx.prev_frame_ssim, 1.0);
  const FrameContext first = make_frame_context(f0, nullptr, 100);
  EXPECT_DOUBLE_EQ(first.prev_frame_ssim, 1.0);
}

// The context scores everything against its cached reference sums and
// luma-only reconstructions; each value must equal the plain metric on
// explicit frames bit for bit.
TEST(FrameContext, CachedScoresMatchExplicitFramesBitForBit) {
  const auto clip = small_clip();
  const video::Frame f0 = clip.frame(0);
  const video::Frame f1 = clip.frame(1);
  const FrameContext ctx = make_frame_context(f1, &f0, 100);
  const video::Frame blank = video::Frame::blank(f1.width(), f1.height());
  EXPECT_EQ(ctx.content.blank_ssim, quality::ssim(f1, blank));
  EXPECT_EQ(ctx.blank_psnr, quality::psnr(f1.y, blank.y));
  EXPECT_EQ(ctx.prev_frame_ssim, quality::ssim(f1, f0));
  for (int l = 0; l < video::kNumLayers; ++l)
    EXPECT_EQ(ctx.content.up_to_layer_ssim[static_cast<std::size_t>(l)],
              quality::ssim(f1, testdecode::decode_layers(ctx.encoded, l)))
        << "layer " << l;
  const quality::ContentFeatures f = quality::content_features(f1, ctx.encoded);
  EXPECT_EQ(f.blank, ctx.content.blank_ssim);
  EXPECT_EQ(f.blank_psnr, ctx.blank_psnr);
  for (int l = 0; l < video::kNumLayers; ++l)
    EXPECT_EQ(f.up_to_layer[static_cast<std::size_t>(l)],
              ctx.content.up_to_layer_ssim[static_cast<std::size_t>(l)]);
}

TEST(MakeContexts, CountAndChaining) {
  const auto clip = small_clip(5);
  const auto ctxs = make_contexts(clip, 3, 100);
  ASSERT_EQ(ctxs.size(), 3u);
  EXPECT_DOUBLE_EQ(ctxs[0].prev_frame_ssim, 1.0);
  EXPECT_LT(ctxs[1].prev_frame_ssim, 1.0);
  EXPECT_LT(ctxs[2].prev_frame_ssim, 1.0);
}

TEST(ReconstructFromUnits, AllUnitsGivesNearLossless) {
  const auto clip = small_clip();
  const video::Frame original = clip.frame(0);
  const FrameContext ctx = make_frame_context(original, nullptr, 100);
  const std::vector<bool> all(ctx.units.size(), true);
  const video::Frame rec = reconstruct_from_units(ctx, all);
  EXPECT_GT(quality::ssim(original, rec), 0.999);
}

TEST(ReconstructFromUnits, NoUnitsGivesBlank) {
  const auto clip = small_clip();
  const video::Frame original = clip.frame(0);
  const FrameContext ctx = make_frame_context(original, nullptr, 100);
  const std::vector<bool> none(ctx.units.size(), false);
  const video::Frame rec = reconstruct_from_units(ctx, none);
  EXPECT_NEAR(quality::ssim(original, rec), ctx.content.blank_ssim, 1e-12);
}

TEST(ReconstructFromUnits, QualityMonotoneInPrefixLength) {
  const auto clip = small_clip();
  const video::Frame original = clip.frame(0);
  const FrameContext ctx = make_frame_context(original, nullptr, 100);
  double prev = -1.0;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::vector<bool> decoded(ctx.units.size(), false);
    for (std::size_t i = 0; i < ctx.units.size() * frac; ++i)
      decoded[i] = true;
    const double s = quality::ssim(original, reconstruct_from_units(ctx, decoded));
    EXPECT_GE(s, prev - 1e-9) << frac;
    prev = s;
  }
}

TEST(ReconstructFromUnits, LumaOnlyMatchesFullReconstruction) {
  const auto clip = small_clip();
  const FrameContext ctx = make_frame_context(clip.frame(0), nullptr, 100);
  const std::size_t n = ctx.units.size();
  std::vector<std::vector<bool>> sets = {std::vector<bool>(n, true),
                                         std::vector<bool>(n, false),
                                         std::vector<bool>(3, true)};
  Rng rng(11);
  for (double density : {0.1, 0.5, 0.9}) {
    for (int i = 0; i < 4; ++i) {
      std::vector<bool> set(n);
      for (std::size_t u = 0; u < n; ++u) set[u] = rng.chance(density);
      sets.push_back(std::move(set));
    }
  }
  // One workspace and plane across all sets: reuse must not leak state.
  video::ReconstructWorkspace ws;
  video::Plane luma;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    reconstruct_luma_from_units_into(ctx, sets[i], ws, luma);
    const video::Frame full = reconstruct_from_units(ctx, sets[i]);
    EXPECT_EQ(luma.width, full.y.width) << "set " << i;
    EXPECT_EQ(luma.height, full.y.height) << "set " << i;
    EXPECT_EQ(luma.pix, full.y.pix) << "set " << i;
  }
}

TEST(ReconstructFromUnits, ShortDecodedVectorTolerated) {
  const auto clip = small_clip();
  const FrameContext ctx = make_frame_context(clip.frame(0), nullptr, 100);
  const std::vector<bool> short_vec(3, true);
  EXPECT_NO_THROW(reconstruct_from_units(ctx, short_vec));
}

}  // namespace
}  // namespace w4k::core
