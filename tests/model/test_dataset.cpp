#include "model/dataset.h"

#include "support/decode.h"

#include <gtest/gtest.h>

namespace w4k::model {
namespace {

std::vector<video::VideoSpec> tiny_videos() {
  auto specs = video::standard_videos(64, 64, 4);
  specs.resize(2);  // one HR + keep it fast
  return specs;
}

TEST(Features, ToInputLayout) {
  Features f;
  f.fraction = {0.1, 0.2, 0.3, 0.4};
  f.up_to_layer = {0.5, 0.6, 0.7, 0.8};
  f.blank = 0.9;
  const Vec x = f.to_input();
  ASSERT_EQ(x.size(), kFeatureCount);
  EXPECT_DOUBLE_EQ(x[0], 0.1);
  EXPECT_DOUBLE_EQ(x[3], 0.4);
  EXPECT_DOUBLE_EQ(x[4], 0.5);
  EXPECT_DOUBLE_EQ(x[7], 0.8);
  EXPECT_DOUBLE_EQ(x[8], 0.9);
}

/// The frame a receiver of `fraction` of each layer decodes.
video::Frame decode_fractions(
    const video::EncodedFrame& enc,
    const std::array<double, video::kNumLayers>& fraction) {
  video::ReconstructWorkspace ws;
  splice_fractions(enc, fraction, ws);
  video::Frame out;
  ws.finish(out);
  return out;
}

/// The frame decoded from the first `bytes[l][k]` bytes of each sublayer.
video::Frame decode_prefixes(
    const video::EncodedFrame& enc,
    const std::array<std::array<std::size_t, 4>, video::kNumLayers>& bytes) {
  video::ReconstructWorkspace ws;
  ws.begin(enc.width, enc.height);
  for (int l = 0; l < video::kNumLayers; ++l)
    for (int k = 0; k < video::sublayer_count(l); ++k)
      ws.write(l, k, 0, enc.layers[l][static_cast<std::size_t>(k)].data(),
               bytes[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)]);
  video::Frame out;
  ws.finish(out);
  return out;
}

void expect_same_frame(const video::Frame& a, const video::Frame& b) {
  EXPECT_EQ(a.y.pix, b.y.pix);
  EXPECT_EQ(a.u.pix, b.u.pix);
  EXPECT_EQ(a.v.pix, b.v.pix);
}

TEST(PartialFromFractions, ZeroGivesNothing) {
  const video::SyntheticVideo clip(tiny_videos()[0]);
  const auto enc = video::encode(clip.frame(0));
  expect_same_frame(decode_fractions(enc, {0.0, 0.0, 0.0, 0.0}),
                    video::Frame::blank(64, 64));
}

TEST(PartialFromFractions, OneGivesEverything) {
  const video::SyntheticVideo clip(tiny_videos()[0]);
  const auto enc = video::encode(clip.frame(0));
  expect_same_frame(decode_fractions(enc, {1.0, 1.0, 1.0, 1.0}),
                    testdecode::decode_all(enc));
}

TEST(PartialFromFractions, HalfGivesHalfTheBytes) {
  const video::SyntheticVideo clip(tiny_videos()[0]);
  const auto enc = video::encode(clip.frame(0));
  // Half of layer 0 is half its one sublayer; half of layers 1-3 is their
  // first two sublayers.
  const std::size_t s0 = video::sublayer_bytes(0, 64, 64);
  std::array<std::array<std::size_t, 4>, video::kNumLayers> bytes{};
  bytes[0][0] = s0 / 2;
  for (std::size_t l = 1; l < video::kNumLayers; ++l) {
    const std::size_t s = video::sublayer_bytes(static_cast<int>(l), 64, 64);
    bytes[l] = {s, s, 0, 0};
  }
  expect_same_frame(decode_fractions(enc, {0.5, 0.5, 0.5, 0.5}),
                    decode_prefixes(enc, bytes));
}

TEST(PartialFromFractions, FillsSublayersInOrder) {
  const video::SyntheticVideo clip(tiny_videos()[0]);
  const auto enc = video::encode(clip.frame(0));
  // A quarter of layer 1 = exactly sublayer 0.
  std::array<std::array<std::size_t, 4>, video::kNumLayers> bytes{};
  bytes[1][0] = video::sublayer_bytes(1, 64, 64);
  expect_same_frame(decode_fractions(enc, {0.0, 0.25, 0.0, 0.0}),
                    decode_prefixes(enc, bytes));
}

TEST(PartialFromFractions, OutOfRangeFractionsClamped) {
  const video::SyntheticVideo clip(tiny_videos()[0]);
  const auto enc = video::encode(clip.frame(0));
  expect_same_frame(decode_fractions(enc, {-0.5, 2.0, 0.5, 0.5}),
                    decode_fractions(enc, {0.0, 1.0, 0.5, 0.5}));
}

TEST(BuildDataset, SplitProportionsAndSizes) {
  DatasetConfig cfg;
  cfg.frames_per_video = 2;
  cfg.fractions_per_frame = 10;
  const Dataset ds = build_dataset(tiny_videos(), cfg);
  const std::size_t total = ds.train.size() + ds.test.size();
  EXPECT_EQ(total, 2u * 2u * 10u);
  EXPECT_NEAR(static_cast<double>(ds.train.size()) / total, 0.7, 0.05);
}

TEST(BuildDataset, LabelsAreValidSsim) {
  DatasetConfig cfg;
  cfg.frames_per_video = 1;
  cfg.fractions_per_frame = 8;
  const Dataset ds = build_dataset(tiny_videos(), cfg);
  for (const auto& ex : ds.train) {
    EXPECT_GE(ex.y, -0.2);
    EXPECT_LE(ex.y, 1.0);
    ASSERT_EQ(ex.x.size(), kFeatureCount);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(ex.x[i], 0.0);
      EXPECT_LE(ex.x[i], 1.0);
    }
  }
}

TEST(BuildDataset, FullReceptionLabelNearPerfect) {
  // Dataset rows with all-ones fractions must have labels near 1.
  DatasetConfig cfg;
  cfg.frames_per_video = 1;
  cfg.fractions_per_frame = 40;
  const Dataset ds = build_dataset(tiny_videos(), cfg);
  for (const auto& set : {ds.train, ds.test}) {
    for (const auto& ex : set) {
      if (ex.x[0] == 1.0 && ex.x[1] == 1.0 && ex.x[2] == 1.0 && ex.x[3] == 1.0)
        EXPECT_GT(ex.y, 0.98);
    }
  }
}

TEST(BuildDataset, Deterministic) {
  DatasetConfig cfg;
  cfg.frames_per_video = 1;
  cfg.fractions_per_frame = 5;
  const Dataset a = build_dataset(tiny_videos(), cfg);
  const Dataset b = build_dataset(tiny_videos(), cfg);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].x, b.train[i].x);
    EXPECT_DOUBLE_EQ(a.train[i].y, b.train[i].y);
  }
}

TEST(BuildDataset, MoreLayersReceivedHigherLabel) {
  // Sanity on the monotone relationship the model must learn: compare the
  // all-zero row against the all-one row for the same frame.
  const video::SyntheticVideo clip(tiny_videos()[0]);
  const auto frame = clip.frame(0);
  const auto enc = video::encode(frame);
  const auto none = decode_fractions(enc, {0.0, 0.0, 0.0, 0.0});
  const auto all = decode_fractions(enc, {1.0, 1.0, 1.0, 1.0});
  EXPECT_GT(quality::ssim(frame, all), quality::ssim(frame, none));
}

}  // namespace
}  // namespace w4k::model
