// End-to-end integration: the full data plane with REAL bytes.
//
// The emulator tracks symbol counts; this test runs the actual pipeline —
// layered encode -> per-unit fountain encode (GF(256) symbols) -> lossy
// delivery -> incremental Gaussian-elimination decode -> sublayer segment
// reassembly -> pixel reconstruction — and verifies the received video is
// bit-faithful wherever units decoded, proving the accounting model and
// the real byte path agree.
#include "core/frame_context.h"
#include "fec/fountain.h"
#include "quality/metrics.h"

#include <gtest/gtest.h>

#include <map>

namespace w4k {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

video::Frame test_frame() {
  video::VideoSpec spec;
  spec.width = kW;
  spec.height = kH;
  spec.frames = 1;
  spec.richness = video::Richness::kHigh;
  spec.seed = 99;
  return video::SyntheticVideo(spec).frame(0);
}

/// Block seed of frame unit `i`: every coding unit of a frame gets its own
/// coefficient stream, which sender and receiver derive alike without
/// exchanging it.
std::uint64_t block_seed(std::uint64_t frame_seed, std::size_t i) {
  return frame_seed * 0x9E3779B97F4A7C15ULL + i;
}

/// Sends fresh symbols (ESI 0, 1, 2, ...) until `dec` can decode, dropping
/// each with probability `loss`. Returns the number of symbols sent.
std::size_t stream_until_decoded(const fec::FountainEncoder& enc,
                                 fec::FountainDecoder& dec, Rng& rng,
                                 double loss) {
  fec::Esi esi = 0;
  while (!dec.can_decode()) {
    const fec::Symbol s = enc.encode(esi++);
    if (!rng.chance(loss)) dec.add_symbol(s);
  }
  return esi;
}

/// Extracts a unit's source payload from the encoded frame.
std::vector<std::uint8_t> unit_payload(const video::EncodedFrame& enc,
                                       const sched::UnitSpec& u) {
  const auto& sub =
      enc.layers[u.id.layer][static_cast<std::size_t>(u.sublayer_k)];
  return {sub.begin() + static_cast<std::ptrdiff_t>(u.offset),
          sub.begin() + static_cast<std::ptrdiff_t>(u.offset + u.source_bytes)};
}

TEST(EndToEnd, LosslessDataPlaneOverCleanChannel) {
  const video::Frame original = test_frame();
  const std::size_t symbol = core::scaled_symbol_size(kW, kH);
  const core::FrameContext ctx =
      core::make_frame_context(original, nullptr, symbol);
  const std::uint64_t frame_seed = 424242;
  Rng rng(1);

  // Sender: one fountain encoder per coding unit, emitting exactly k
  // symbols (clean channel).
  // Receiver: matching decoders fed every symbol.
  std::vector<bool> decoded(ctx.units.size(), false);
  video::ReconstructWorkspace ws;
  ws.begin(kW, kH);
  for (std::size_t i = 0; i < ctx.units.size(); ++i) {
    const auto& u = ctx.units[i];
    const fec::FountainEncoder enc(unit_payload(ctx.encoded, u), symbol,
                                   block_seed(frame_seed, i));
    fec::FountainDecoder dec(enc.k(), symbol, u.source_bytes,
                             block_seed(frame_seed, i));
    EXPECT_EQ(stream_until_decoded(enc, dec, rng, 0.0), enc.k());
    decoded[i] = true;
    const std::vector<std::uint8_t> bytes = *dec.decode();
    // Decoded payload must match the sender's exactly.
    ASSERT_EQ(bytes, unit_payload(ctx.encoded, u)) << "unit " << i;
    ws.write(u.id.layer, u.sublayer_k, u.offset, bytes.data(), bytes.size());
  }

  video::Frame received;
  ws.finish(received);
  const video::Frame reference = core::reconstruct_from_units(ctx, decoded);
  EXPECT_EQ(received.y.pix, reference.y.pix);
  EXPECT_GT(quality::ssim(original, received), 0.999);
}

TEST(EndToEnd, LossyChannelWithRatelessRepairRecoversFrame) {
  const video::Frame original = test_frame();
  const std::size_t symbol = core::scaled_symbol_size(kW, kH);
  const core::FrameContext ctx =
      core::make_frame_context(original, nullptr, symbol);
  const std::uint64_t frame_seed = 777;
  Rng rng(31337);

  video::ReconstructWorkspace ws;
  ws.begin(kW, kH);
  std::size_t total_sent = 0, total_source_symbols = 0;
  for (std::size_t i = 0; i < ctx.units.size(); ++i) {
    const auto& u = ctx.units[i];
    const fec::FountainEncoder enc(unit_payload(ctx.encoded, u), symbol,
                                   block_seed(frame_seed, i));
    fec::FountainDecoder dec(enc.k(), symbol, u.source_bytes,
                             block_seed(frame_seed, i));
    total_source_symbols += enc.k();
    // 20% loss; the sender keeps emitting fresh symbols until decode.
    total_sent += stream_until_decoded(enc, dec, rng, 0.2);
    const std::vector<std::uint8_t> bytes = *dec.decode();
    ws.write(u.id.layer, u.sublayer_k, u.offset, bytes.data(), bytes.size());
  }

  video::Frame received;
  ws.finish(received);
  EXPECT_GT(quality::ssim(original, received), 0.999);
  // Rateless efficiency: overhead should be close to the channel loss
  // (1/(1-p) = 1.25x), far from ARQ-free repetition coding.
  const double overhead = static_cast<double>(total_sent) /
                          static_cast<double>(total_source_symbols);
  EXPECT_LT(overhead, 1.45);
  EXPECT_GT(overhead, 1.15);
}

TEST(EndToEnd, PartialDeliveryDegradesGracefully) {
  // Only layers 0-1 make it through: quality should land between the
  // blank frame and full reception, near the up-to-layer-1 anchor.
  const video::Frame original = test_frame();
  const std::size_t symbol = core::scaled_symbol_size(kW, kH);
  const core::FrameContext ctx =
      core::make_frame_context(original, nullptr, symbol);
  const std::uint64_t frame_seed = 555;
  Rng rng(1);

  video::ReconstructWorkspace ws;
  ws.begin(kW, kH);
  for (std::size_t i = 0; i < ctx.units.size(); ++i) {
    const auto& u = ctx.units[i];
    if (u.id.layer > 1) continue;
    const fec::FountainEncoder enc(unit_payload(ctx.encoded, u), symbol,
                                   block_seed(frame_seed, i));
    fec::FountainDecoder dec(enc.k(), symbol, u.source_bytes,
                             block_seed(frame_seed, i));
    stream_until_decoded(enc, dec, rng, 0.0);
    const std::vector<std::uint8_t> bytes = *dec.decode();
    ws.write(u.id.layer, u.sublayer_k, u.offset, bytes.data(), bytes.size());
  }
  video::Frame received;
  ws.finish(received);
  const double s = quality::ssim(original, received);
  EXPECT_NEAR(s, ctx.content.up_to_layer_ssim[1], 0.01);
  EXPECT_GT(s, ctx.content.blank_ssim);
  EXPECT_LT(s, ctx.content.up_to_layer_ssim[3]);
}

TEST(EndToEnd, SenderReceiverDisagreeOnSeedBreaksRepair) {
  // Guards the implicit-coordination contract: coefficients derive from
  // the block seed, so a seed mismatch corrupts repair decoding.
  const video::Frame original = test_frame();
  const std::size_t symbol = core::scaled_symbol_size(kW, kH);
  const core::FrameContext ctx =
      core::make_frame_context(original, nullptr, symbol);
  const auto& u = ctx.units.front();
  const fec::FountainEncoder enc(unit_payload(ctx.encoded, u), symbol, 1111);
  fec::FountainDecoder dec(enc.k(), symbol, u.source_bytes, 2222);
  // Feed only repair symbols.
  for (std::size_t i = 0; i < enc.k(); ++i)
    dec.add_symbol(enc.encode(static_cast<fec::Esi>(enc.k() + i)));
  if (dec.can_decode()) {
    EXPECT_NE(*dec.decode(), unit_payload(ctx.encoded, u));
  }
}

}  // namespace
}  // namespace w4k
