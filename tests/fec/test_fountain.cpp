#include "fec/fountain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace w4k::fec {
namespace {

std::vector<std::uint8_t> make_data(std::size_t n, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return data;
}

std::vector<std::uint8_t> coefficient_row(std::uint64_t block_seed, Esi esi,
                                          std::size_t k) {
  std::vector<std::uint8_t> row(k);
  coefficient_row_into(block_seed, esi, row);
  return row;
}

TEST(CoefficientRow, SystematicRowsAreUnitVectors) {
  for (Esi esi = 0; esi < 5; ++esi) {
    const auto row = coefficient_row(99, esi, 5);
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_EQ(row[i], i == esi ? 1 : 0);
  }
}

TEST(CoefficientRow, RepairRowsAreDenseAndDeterministic) {
  const auto a = coefficient_row(42, 100, 20);
  const auto b = coefficient_row(42, 100, 20);
  EXPECT_EQ(a, b);
  int nonzero = 0;
  for (auto c : a) nonzero += c != 0 ? 1 : 0;
  EXPECT_GT(nonzero, 15);  // dense: ~255/256 of entries nonzero
}

TEST(CoefficientRow, DifferentEsiDifferentRow) {
  EXPECT_NE(coefficient_row(42, 100, 20), coefficient_row(42, 101, 20));
}

TEST(CoefficientRow, DifferentSeedDifferentRow) {
  EXPECT_NE(coefficient_row(1, 100, 20), coefficient_row(2, 100, 20));
}

TEST(FountainEncoder, RejectsBadArguments) {
  const auto data = make_data(100);
  EXPECT_THROW(FountainEncoder(data, 0, 1), std::invalid_argument);
  EXPECT_THROW(FountainEncoder(std::vector<std::uint8_t>{}, 10, 1),
               std::invalid_argument);
}

TEST(FountainEncoder, KIsCeilOfDataOverSymbol) {
  const auto data = make_data(100);
  EXPECT_EQ(FountainEncoder(data, 10, 1).k(), 10u);
  EXPECT_EQ(FountainEncoder(data, 30, 1).k(), 4u);
  EXPECT_EQ(FountainEncoder(data, 100, 1).k(), 1u);
  EXPECT_EQ(FountainEncoder(data, 101, 1).k(), 1u);
}

TEST(FountainEncoder, SystematicSymbolsAreSourceData) {
  const auto data = make_data(95);
  FountainEncoder enc(data, 10, 7);
  for (Esi esi = 0; esi < 9; ++esi) {
    const Symbol s = enc.encode(esi);
    for (std::size_t i = 0; i < 10; ++i)
      EXPECT_EQ(s.data[i], data[esi * 10 + i]);
  }
  // Last symbol zero-padded.
  const Symbol last = enc.encode(9);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(last.data[i], data[90 + i]);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_EQ(last.data[i], 0);
}

TEST(FountainRoundTrip, SystematicOnly) {
  const auto data = make_data(200, 3);
  FountainEncoder enc(data, 20, 11);
  FountainDecoder dec(enc.k(), 20, data.size(), 11);
  for (Esi e = 0; e < enc.k(); ++e)
    EXPECT_TRUE(dec.add_symbol(enc.encode(e)));
  ASSERT_TRUE(dec.can_decode());
  EXPECT_EQ(*dec.decode(), data);
}

TEST(FountainRoundTrip, RepairOnly) {
  const auto data = make_data(200, 4);
  FountainEncoder enc(data, 20, 12);
  FountainDecoder dec(enc.k(), 20, data.size(), 12);
  // Feed only repair symbols (ESI >= k).
  Esi esi = enc.k();
  while (!dec.can_decode()) {
    dec.add_symbol(enc.encode(esi++));
    ASSERT_LT(esi, enc.k() + 30u) << "needed too many repair symbols";
  }
  EXPECT_EQ(*dec.decode(), data);
}

TEST(FountainRoundTrip, MixedWithLosses) {
  const auto data = make_data(1000, 5);
  FountainEncoder enc(data, 100, 13);  // k = 10
  FountainDecoder dec(enc.k(), 100, data.size(), 13);
  Rng rng(77);
  Esi esi = 0;
  while (!dec.can_decode()) {
    const Symbol s = enc.encode(esi++);
    if (rng.chance(0.3)) continue;  // 30% loss
    dec.add_symbol(s);
    ASSERT_LT(esi, 100u);
  }
  EXPECT_EQ(*dec.decode(), data);
}

TEST(FountainRoundTrip, SingleSymbolBlock) {
  const auto data = make_data(17, 6);
  FountainEncoder enc(data, 32, 14);  // k = 1
  FountainDecoder dec(1, 32, data.size(), 14);
  EXPECT_TRUE(dec.add_symbol(enc.encode(0)));
  EXPECT_EQ(*dec.decode(), data);
}

TEST(FountainRoundTrip, RepairDecodesSingleSymbolBlock) {
  const auto data = make_data(17, 6);
  FountainEncoder enc(data, 32, 14);
  FountainDecoder dec(1, 32, data.size(), 14);
  EXPECT_TRUE(dec.add_symbol(enc.encode(5)));  // any repair symbol works
  EXPECT_EQ(*dec.decode(), data);
}

TEST(FountainDecoder, DuplicateSymbolsNotInnovative) {
  const auto data = make_data(60, 7);
  FountainEncoder enc(data, 20, 15);
  FountainDecoder dec(enc.k(), 20, data.size(), 15);
  const Symbol s = enc.encode(0);
  EXPECT_TRUE(dec.add_symbol(s));
  EXPECT_FALSE(dec.add_symbol(s));
  EXPECT_EQ(dec.rank(), 1u);
  EXPECT_EQ(dec.symbols_seen(), 2u);
}

TEST(FountainDecoder, WrongSizeSymbolRejected) {
  FountainDecoder dec(3, 20, 60, 1);
  Symbol s;
  s.esi = 0;
  s.data.assign(10, 0);  // wrong size
  EXPECT_FALSE(dec.add_symbol(s));
}

TEST(FountainDecoder, DecodeBeforeRankCompleteReturnsNothing) {
  const auto data = make_data(60, 8);
  FountainEncoder enc(data, 20, 16);
  FountainDecoder dec(enc.k(), 20, data.size(), 16);
  dec.add_symbol(enc.encode(0));
  EXPECT_FALSE(dec.can_decode());
  EXPECT_FALSE(dec.decode().has_value());
}

TEST(FountainDecoder, RejectsBadConstruction) {
  EXPECT_THROW(FountainDecoder(0, 20, 10, 1), std::invalid_argument);
  EXPECT_THROW(FountainDecoder(2, 20, 100, 1), std::invalid_argument);
}

TEST(FountainDecoder, ExtraSymbolsAfterDecodeIgnored) {
  const auto data = make_data(40, 9);
  FountainEncoder enc(data, 20, 17);
  FountainDecoder dec(enc.k(), 20, data.size(), 17);
  dec.add_symbol(enc.encode(0));
  dec.add_symbol(enc.encode(1));
  ASSERT_TRUE(dec.can_decode());
  EXPECT_FALSE(dec.add_symbol(enc.encode(2)));
  EXPECT_EQ(*dec.decode(), data);
}

// --- Decode-probability property (paper: 1 - 1/256^(h+1)) -------------------

class FountainOverheadTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FountainOverheadTest, RandomKSymbolsAlmostAlwaysDecode) {
  // Receiving exactly K distinct symbols (mixed systematic/repair) should
  // decode with probability ~ 1 - 1/256: over 300 trials expect at most a
  // handful of rank-deficient sets.
  const std::size_t k = GetParam();
  const auto data = make_data(k * 8, k);
  int failures = 0;
  const int trials = 300;
  Rng rng(1000 + k);
  for (int trial = 0; trial < trials; ++trial) {
    FountainEncoder enc(data, 8, trial * 7919u + k);
    FountainDecoder dec(k, 8, data.size(), trial * 7919u + k);
    // Choose k distinct ESIs from a window of 3k.
    std::vector<Esi> esis(3 * k);
    std::iota(esis.begin(), esis.end(), 0u);
    for (std::size_t i = esis.size(); i > 1; --i)
      std::swap(esis[i - 1], esis[rng.below(i)]);
    for (std::size_t i = 0; i < k; ++i) dec.add_symbol(enc.encode(esis[i]));
    if (!dec.can_decode()) {
      ++failures;
    } else {
      EXPECT_EQ(*dec.decode(), data);
    }
  }
  // Expected failures ~ trials/256 ~ 1.2; allow generous slack.
  EXPECT_LE(failures, 8) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(VariousK, FountainOverheadTest,
                         ::testing::Values(2, 5, 10, 20, 40));

class FountainSizeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FountainSizeTest, RoundTripAcrossGeometries) {
  const auto [size, symbol] = GetParam();
  const auto data = make_data(size, size);
  FountainEncoder enc(data, symbol, size * 31u);
  FountainDecoder dec(enc.k(), symbol, data.size(), size * 31u);
  // Alternate systematic and repair symbols.
  Esi sys = 0, rep = static_cast<Esi>(enc.k());
  bool use_repair = false;
  while (!dec.can_decode()) {
    dec.add_symbol(enc.encode(use_repair ? rep++ : sys++));
    use_repair = !use_repair;
  }
  EXPECT_EQ(*dec.decode(), data);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FountainSizeTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{100, 7},
                      std::pair<std::size_t, std::size_t>{1000, 100},
                      std::pair<std::size_t, std::size_t>{6000, 6000},
                      std::pair<std::size_t, std::size_t>{120000, 6000}));

}  // namespace
}  // namespace w4k::fec
