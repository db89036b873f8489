#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace w4k {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng rng(14);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(15);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(18);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ChanceProbability) {
  Rng rng(20);
  const int n = 50000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ChanceZeroNeverOneAlways) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(23);
  EXPECT_NE(rng(), rng());
}

TEST(Rng, BitsLookUniform) {
  // Cheap equidistribution check: each of the 64 bit positions should be
  // set about half the time.
  Rng rng(24);
  const int n = 8192;
  std::vector<int> counts(64, 0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = rng.next();
    for (int b = 0; b < 64; ++b) counts[b] += (x >> b) & 1;
  }
  for (int b = 0; b < 64; ++b)
    EXPECT_NEAR(static_cast<double>(counts[b]) / n, 0.5, 0.05)
        << "bit " << b;
}

}  // namespace
}  // namespace w4k
