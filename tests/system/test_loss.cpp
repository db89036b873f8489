#include "emu/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace w4k::emu {
namespace {

channel::McsEntry mcs8() { return *channel::mcs_by_index(8); }

TEST(LossModel, DecreasesWithMargin) {
  double prev = 1.0;
  for (double margin : {-2.0, -1.0, 0.0, 1.0, 3.0, 6.0}) {
    const double p =
        monitor_loss(Dbm{mcs8().sensitivity.value + margin}, mcs8());
    EXPECT_LT(p, prev) << margin;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(LossModel, FloorAtLargeMargin) {
  const double p = monitor_loss(Dbm{-30.0}, mcs8());
  EXPECT_NEAR(p, kLossFloor, kLossFloor * 0.2);
}

TEST(LossModel, AtZeroMarginMatchesConfig) {
  const double p = monitor_loss(mcs8().sensitivity, mcs8());
  EXPECT_NEAR(p, kLossFloor + kLossAtZeroMargin, 1e-12);
}

TEST(LossModel, NegativeMarginGrowsTowardOne) {
  const double p =
      monitor_loss(Dbm{mcs8().sensitivity.value - 10.0}, mcs8());
  EXPECT_GT(p, 0.5);
  const double p2 =
      monitor_loss(Dbm{mcs8().sensitivity.value - 30.0}, mcs8());
  EXPECT_DOUBLE_EQ(p2, 1.0);  // clamped
}

TEST(LossModel, AssociatedStaBenefitsFromMacRetries) {
  const Dbm rss{mcs8().sensitivity.value + 0.5};
  const double mon = monitor_loss(rss, mcs8());
  const double assoc = associated_loss(rss, mcs8());
  EXPECT_LT(assoc, mon);
  EXPECT_NEAR(assoc, std::pow(mon, kMacRetries), 1e-12);
}

TEST(LossModel, HigherMcsMoreFragileAtSameRss) {
  const Dbm rss{-58.0};
  const double p8 = monitor_loss(rss, *channel::mcs_by_index(8));
  const double p12 = monitor_loss(rss, *channel::mcs_by_index(12));
  EXPECT_LT(p8, p12);  // MCS 12 needs -53, so -58 is 5 dB short
}

TEST(LossModel, OutputsAlwaysClampedToUnitInterval) {
  // Past ~2.5 dB of negative margin the exponential exceeds 1, and the
  // result must still be a probability: the Bernoulli draw downstream
  // cannot handle p > 1.
  for (double margin : {-400.0, -40.0, -5.0, -2.0, 0.0, 5.0, 40.0, 400.0}) {
    const double p =
        monitor_loss(Dbm{mcs8().sensitivity.value + margin}, mcs8());
    EXPECT_GE(p, 0.0) << margin;
    EXPECT_LE(p, 1.0) << margin;
    const double a =
        associated_loss(Dbm{mcs8().sensitivity.value + margin}, mcs8());
    EXPECT_GE(a, 0.0) << margin;
    EXPECT_LE(a, 1.0) << margin;
  }
}

TEST(LossModel, NonFiniteRssMeansDeadLinkNotNaN) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(monitor_loss(Dbm{nan}, mcs8()), 1.0);
  EXPECT_DOUBLE_EQ(monitor_loss(Dbm{-inf}, mcs8()), 1.0);
  EXPECT_DOUBLE_EQ(associated_loss(Dbm{nan}, mcs8()), 1.0);
  // Even +inf is not trusted: any non-finite margin means the CSI is
  // garbage, and garbage links are treated as dead.
  EXPECT_DOUBLE_EQ(monitor_loss(Dbm{inf}, mcs8()), 1.0);
}

}  // namespace
}  // namespace w4k::emu
