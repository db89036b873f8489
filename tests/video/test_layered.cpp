#include "video/layered.h"
#include "video/synthetic.h"

#include "support/decode.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

namespace w4k::video {
namespace {

using testdecode::decode_all;
using testdecode::decode_layers;

Frame test_frame(int w = 64, int h = 64, std::uint64_t seed = 1) {
  VideoSpec spec;
  spec.width = w;
  spec.height = h;
  spec.frames = 1;
  spec.richness = Richness::kHigh;
  spec.seed = seed;
  return SyntheticVideo(spec).frame(0);
}

TEST(LayeredSizes, SublayerBytesMatchHierarchy) {
  // 4K: layer 0 = 512x270 luma + 2 x 256x135 chroma.
  EXPECT_EQ(sublayer_bytes(0, 4096, 2160), 512u * 270u + 2u * 256u * 135u);
  // Layer 1 sublayer: one diff per 8x8 block (same count as layer 0).
  EXPECT_EQ(sublayer_bytes(1, 4096, 2160), sublayer_bytes(0, 4096, 2160));
  // Layer 2 sublayer: one diff per 4x4 block = 4x layer 1's.
  EXPECT_EQ(sublayer_bytes(2, 4096, 2160), 4u * sublayer_bytes(1, 4096, 2160));
  EXPECT_EQ(sublayer_bytes(3, 4096, 2160), 4u * sublayer_bytes(2, 4096, 2160));
}

TEST(LayeredSizes, LayerBytesSumsSublayers) {
  EXPECT_EQ(layer_bytes(0, 256, 144), sublayer_bytes(0, 256, 144));
  EXPECT_EQ(layer_bytes(2, 256, 144), 4u * sublayer_bytes(2, 256, 144));
}

TEST(LayeredSizes, SublayerCounts) {
  EXPECT_EQ(sublayer_count(0), 1);
  EXPECT_EQ(sublayer_count(1), 4);
  EXPECT_EQ(sublayer_count(2), 4);
  EXPECT_EQ(sublayer_count(3), 4);
}

TEST(LayeredSizes, TotalExpansionVsRaw) {
  // The pixel-domain hierarchy carries 1 + 1/4... per level: total encoded
  // size = raw * (1/64 + 4/64 + 16/64 + 1) per plane group. Just check
  // the encoded frame is raw size + ~33%.
  const Frame f = test_frame(128, 128);
  const EncodedFrame enc = encode(f);
  const double ratio = static_cast<double>(enc.total_bytes()) /
                       static_cast<double>(f.total_bytes());
  EXPECT_NEAR(ratio, 1.328, 0.01);
}

TEST(Layered, FullRoundTripIsNearLossless) {
  const Frame f = test_frame(128, 64);
  const Frame rec = decode_all(encode(f));
  // Chained quantization keeps every pixel within 1 LSB except rare
  // saturation; demand max error <= 2.
  int max_err = 0;
  for (std::size_t i = 0; i < f.y.pix.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<int>(f.y.pix[i]) -
                                         rec.y.pix[i]));
  EXPECT_LE(max_err, 2);
}

TEST(Layered, ChromaRoundTrips) {
  const Frame f = test_frame(128, 64, 9);
  const Frame rec = decode_all(encode(f));
  int max_err = 0;
  for (std::size_t i = 0; i < f.u.pix.size(); ++i) {
    max_err = std::max(max_err, std::abs(static_cast<int>(f.u.pix[i]) -
                                         rec.u.pix[i]));
    max_err = std::max(max_err, std::abs(static_cast<int>(f.v.pix[i]) -
                                         rec.v.pix[i]));
  }
  EXPECT_LE(max_err, 2);
}

TEST(Layered, UniformFrameRoundTripsExactly) {
  Frame f(64, 64);
  for (auto& p : f.y.pix) p = 77;
  for (auto& p : f.u.pix) p = 90;
  for (auto& p : f.v.pix) p = 200;
  const Frame rec = decode_all(encode(f));
  EXPECT_EQ(rec.y.pix, f.y.pix);
  EXPECT_EQ(rec.u.pix, f.u.pix);
  EXPECT_EQ(rec.v.pix, f.v.pix);
}

TEST(Layered, BaseLayerOnlyGivesBlockMeans) {
  Frame f(64, 64);
  // Left half black, right half white.
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) f.y.at(x, y) = x < 32 ? 0 : 255;
  const EncodedFrame enc = encode(f);
  const Frame rec = decode_layers(enc, 0);
  // Inside a uniform 8x8 block the reconstruction equals the block mean.
  EXPECT_EQ(rec.y.at(4, 4), 0);
  EXPECT_EQ(rec.y.at(60, 4), 255);
}

TEST(Layered, QualityIncreasesWithLayers) {
  const Frame f = test_frame(128, 128, 5);
  const EncodedFrame enc = encode(f);
  double prev_mse = 1e18;
  for (int l = 0; l < kNumLayers; ++l) {
    const Frame rec = decode_layers(enc, l);
    double mse = 0.0;
    for (std::size_t i = 0; i < f.y.pix.size(); ++i) {
      const double d = static_cast<double>(f.y.pix[i]) - rec.y.pix[i];
      mse += d * d;
    }
    mse /= static_cast<double>(f.y.pix.size());
    EXPECT_LT(mse, prev_mse) << "layer " << l;
    prev_mse = mse;
  }
  EXPECT_LT(prev_mse, 1.1);  // all layers: near-lossless
}

TEST(Layered, EmptyPartialReconstructsBlank) {
  ReconstructWorkspace ws;
  ws.begin(64, 64);
  Frame rec;
  ws.finish(rec);
  for (auto p : rec.y.pix) EXPECT_EQ(p, 128);
}

TEST(Layered, MissingSublayerFallsBackGracefully) {
  const Frame f = test_frame(64, 64, 6);
  const EncodedFrame enc = encode(f);
  // Full frame minus one layer-3 sublayer: still close to lossless.
  ReconstructWorkspace ws;
  ws.begin(64, 64);
  for (int l = 0; l < kNumLayers; ++l) {
    for (int k = 0; k < sublayer_count(l); ++k) {
      if (l == 3 && k == 2) continue;
      const auto& sub = enc.layers[l][static_cast<std::size_t>(k)];
      ws.write(l, k, 0, sub.data(), sub.size());
    }
  }
  Frame rec;
  ws.finish(rec);
  double mse = 0.0;
  for (std::size_t i = 0; i < f.y.pix.size(); ++i) {
    const double d = static_cast<double>(f.y.pix[i]) - rec.y.pix[i];
    mse += d * d;
  }
  mse /= static_cast<double>(f.y.pix.size());
  EXPECT_GT(mse, 0.1);   // strictly worse than full
  EXPECT_LT(mse, 200.0); // but far from blank
}

TEST(Layered, SegmentOffsetsApply) {
  const Frame f = test_frame(64, 64, 7);
  const EncodedFrame enc = encode(f);
  // Deliver layer 0 as two byte ranges split mid-buffer.
  ReconstructWorkspace ws;
  ws.begin(64, 64);
  const auto& buf = enc.layers[0][0];
  const std::size_t half = buf.size() / 2;
  ws.write(0, 0, 0, buf.data(), half);
  ws.write(0, 0, half, buf.data() + half, buf.size() - half);
  Frame rec;
  ws.finish(rec);
  const Frame rec_whole = decode_layers(enc, 0);
  EXPECT_EQ(rec.y.pix, rec_whole.y.pix);
}

TEST(Layered, MalformedSegmentIgnored) {
  ReconstructWorkspace ws;
  ws.begin(64, 64);
  const std::vector<std::uint8_t> bytes(10, 0);
  EXPECT_NO_THROW(ws.write(1, 0, 1u << 30, bytes.data(), bytes.size()));
  Frame rec;
  ws.finish(rec);
  for (auto p : rec.y.pix) EXPECT_EQ(p, 128);
}

TEST(Layered, OversizedSegmentClamped) {
  const Frame f = test_frame(64, 64, 8);
  const EncodedFrame enc = encode(f);
  ReconstructWorkspace ws;
  ws.begin(64, 64);
  auto big = enc.layers[0][0];
  big.resize(big.size() + 100, 0);  // overruns the sublayer
  EXPECT_NO_THROW(ws.write(0, 0, 0, big.data(), big.size()));
  Frame rec;
  ws.finish(rec);
  EXPECT_EQ(rec.y.pix, decode_layers(enc, 0).y.pix);
}

TEST(Layered, EncodeRejectsBadDimensions) {
  Frame f;
  f.y = Plane(100, 100);
  EXPECT_THROW(encode(f), std::invalid_argument);
}

class LayeredResolutionTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LayeredResolutionTest, RoundTripAtResolution) {
  const auto [w, h] = GetParam();
  const Frame f = test_frame(w, h, 11);
  const Frame rec = decode_all(encode(f));
  int max_err = 0;
  for (std::size_t i = 0; i < f.y.pix.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<int>(f.y.pix[i]) -
                                         rec.y.pix[i]));
  EXPECT_LE(max_err, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, LayeredResolutionTest,
    ::testing::Values(std::pair<int, int>{16, 16}, std::pair<int, int>{64, 32},
                      std::pair<int, int>{256, 144},
                      std::pair<int, int>{512, 288}));

}  // namespace
}  // namespace w4k::video
