#include "common/stats.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace w4k {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(v), 2.0, 1e-12);  // classic textbook example
}

TEST(Stats, StddevDegenerate) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
}

TEST(Stats, HarmonicMeanKnownValue) {
  const std::vector<double> v{1.0, 2.0, 4.0};
  EXPECT_NEAR(harmonic_mean(v), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
}

TEST(Stats, HarmonicMeanZeroElementYieldsZero) {
  const std::vector<double> v{1.0, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(harmonic_mean(v), 0.0);
}

TEST(Stats, HarmonicMeanDominatedBySmallValues) {
  const std::vector<double> v{100.0, 1.0};
  EXPECT_LT(harmonic_mean(v), 2.0);  // why FastMPC uses it for prediction
}

TEST(Stats, QuantileSortedEndpoints) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.5);
}

TEST(Stats, SummarizeFiveNumber) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.q1, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
  EXPECT_DOUBLE_EQ(s.q3, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Stats, SummarizeSingleSample) {
  // All five box-plot numbers collapse onto the one sample.
  const Summary s = summarize(std::vector<double>{3.25});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.q1, 3.25);
  EXPECT_DOUBLE_EQ(s.median, 3.25);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
  EXPECT_DOUBLE_EQ(s.mean, 3.25);
}

TEST(Stats, QuantileSingleSample) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(std::vector<double>{}, 0.5), 0.0);
}

TEST(Stats, SummarizeRejectsNaN) {
  // NaN breaks the sort's strict weak ordering; it must fail loudly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(summarize(std::vector<double>{1.0, nan, 3.0}),
               std::invalid_argument);
  EXPECT_THROW(summarize(std::vector<double>{nan}), std::invalid_argument);
}

TEST(Stats, SummarizeAcceptsInfinity) {
  // Infinities order fine and show up honestly in min/max.
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize(std::vector<double>{1.0, inf});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, inf);
}

TEST(Stats, SummarizeDoesNotMutateInput) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  auto copy = v;
  (void)summarize(copy);
  EXPECT_EQ(copy, v);
}

TEST(Stats, ToStringContainsFields) {
  const Summary s = summarize(std::vector<double>{1.0, 2.0, 3.0});
  const std::string str = to_string(s);
  EXPECT_NE(str.find("mean="), std::string::npos);
  EXPECT_NE(str.find("med="), std::string::npos);
  EXPECT_NE(str.find("n=3"), std::string::npos);
}

}  // namespace
}  // namespace w4k
