#include "fec/coding_unit.h"
#include "fec/fountain.h"

#include <gtest/gtest.h>

#include <vector>

namespace w4k::fec {
namespace {

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>((i * 31 + 5) & 0xFF);
  return p;
}

TEST(UnitId, Ordering) {
  EXPECT_LT((UnitId{0, 5}), (UnitId{1, 0}));
  EXPECT_LT((UnitId{1, 0}), (UnitId{1, 1}));
  EXPECT_EQ((UnitId{2, 2}), (UnitId{2, 2}));
}

// A coding unit travels as one fountain block: the sender emits fresh
// ESIs 0, 1, 2, ... and the receiver decodes with the same block seed.

TEST(UnitRoundTrip, EncoderDecoderAgreeOnSeed) {
  const auto data = payload(950);
  const FountainEncoder enc(data, 100, 1234);
  FountainDecoder dec(enc.k(), 100, data.size(), 1234);
  for (Esi esi = 0; !dec.can_decode(); ++esi) dec.add_symbol(enc.encode(esi));
  EXPECT_EQ(*dec.decode(), data);
}

TEST(UnitRoundTrip, SurvivesHeavyLossViaContinuedEmission) {
  const auto data = payload(2000);
  const FountainEncoder enc(data, 100, 55);
  FountainDecoder dec(enc.k(), 100, data.size(), 55);
  Rng rng(3);
  Esi sent = 0;
  while (!dec.can_decode()) {
    const Symbol s = enc.encode(sent++);
    ASSERT_LT(sent, 200u);
    if (rng.chance(0.5)) continue;
    dec.add_symbol(s);
  }
  EXPECT_EQ(*dec.decode(), data);
  EXPECT_GE(sent, dec.k());
}

TEST(UnitRoundTrip, MismatchedFrameSeedFailsToDecodeCorrectly) {
  // A receiver with the wrong block seed derives wrong coefficients for
  // repair symbols, so decoding either stalls or yields wrong data.
  const auto data = payload(500);
  const FountainEncoder enc(data, 100, 111);
  FountainDecoder dec(enc.k(), 100, data.size(), 222);
  // Feed only repair symbols: coefficients disagree.
  for (Esi i = 0; i < 20 && !dec.can_decode(); ++i)
    dec.add_symbol(enc.encode(static_cast<Esi>(enc.k()) + i));
  if (dec.can_decode()) EXPECT_NE(*dec.decode(), data);
}

TEST(UnitDefaults, PaperGeometry) {
  EXPECT_EQ(kDefaultSymbolSize, 6000u);
  EXPECT_EQ(kDefaultSymbolsPerUnit, 20u);
}

TEST(UnitRoundTrip, PaperSizedUnit) {
  // A full paper-sized coding unit: 20 symbols x 6000 B = 120 kB.
  const auto data = payload(kDefaultSymbolSize * kDefaultSymbolsPerUnit);
  const FountainEncoder enc(data, kDefaultSymbolSize, 77);
  EXPECT_EQ(enc.k(), kDefaultSymbolsPerUnit);
  FountainDecoder dec(enc.k(), kDefaultSymbolSize, data.size(), 77);
  for (Esi esi = 0; !dec.can_decode(); ++esi) dec.add_symbol(enc.encode(esi));
  EXPECT_EQ(*dec.decode(), data);
}

}  // namespace
}  // namespace w4k::fec
