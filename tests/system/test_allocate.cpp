#include "sched/allocate.h"

#include "channel/propagation.h"
#include "core/frame_context.h"
#include "core/pretrained.h"
#include "support/masks.h"
#include "verify/invariants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

namespace w4k::sched {
namespace {

/// Shared trained model + a frame's content features for all tests here.
class AllocateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    core::PretrainedOptions opts;
    opts.cache_path = "allocate_test_model.cache";
    core::ensure_trained(*quality_, opts);

    video::VideoSpec spec;
    spec.width = 512;
    spec.height = 288;
    spec.frames = 1;
    spec.richness = video::Richness::kHigh;
    spec.seed = 7;
    const video::SyntheticVideo clip(spec);
    ctx_ = new core::FrameContext(core::make_frame_context(
        clip.frame(0), nullptr, core::scaled_symbol_size(512, 288)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete ctx_;
    quality_ = nullptr;
    ctx_ = nullptr;
  }

  /// AllocProblem::groups is a non-owning span, so the test problem
  /// carries its own group storage. Safe to return/move by value: moving
  /// the vector keeps its heap buffer, so the span stays valid.
  struct TestProblem : AllocProblem {
    std::vector<GroupSpec> storage;
  };

  /// Builds a problem with groups at the given (members, Mbps) specs.
  static TestProblem problem(
      std::vector<std::pair<std::vector<std::size_t>, double>> groups,
      std::size_t n_users) {
    TestProblem p;
    for (auto& [members, rate] : groups) {
      GroupSpec g;
      g.mask = test::mask_of(members);
      g.beam.rate = Mbps{rate};
      g.beam.min_rss = Dbm{-50.0};
      p.storage.push_back(std::move(g));
    }
    p.groups = p.storage;
    p.n_users = n_users;
    p.content = ctx_->content;
    return p;
  }

  static double total_time(const Allocation& a) {
    double t = 0.0;
    for (const auto& row : a.time_rows())
      for (double x : row) t += x;
    return t;
  }

  sched::AllocScratch scratch_;
  static model::QualityModel* quality_;
  static core::FrameContext* ctx_;
};

model::QualityModel* AllocateTest::quality_ = nullptr;
core::FrameContext* AllocateTest::ctx_ = nullptr;

TEST_F(AllocateTest, RespectsTimeBudget) {
  auto p = problem({{{0}, 40.0}, {{1}, 40.0}, {{0, 1}, 40.0}}, 2);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a);
  EXPECT_LE(total_time(a), p.time_budget + 1e-9);
  for (const auto& row : a.time_rows())
    for (double x : row) EXPECT_GE(x, 0.0);
}

TEST_F(AllocateTest, PrefersSharedGroupWhenRatesEqual) {
  // With equal rates, sending to {0,1} serves both users at once; the
  // optimizer should put (almost) everything there.
  auto p = problem({{{0}, 40.0}, {{1}, 40.0}, {{0, 1}, 40.0}}, 2);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a);
  double shared = 0.0;
  for (double x : a.time(2)) shared += x;
  EXPECT_GT(shared, 0.9 * total_time(a));
}

TEST_F(AllocateTest, FillsLowerLayersFirst) {
  auto p = problem({{{0}, 40.0}}, 1);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a);
  // Lower layers should be complete before upper layers get anything
  // substantial (capacity 40 Mbps can fill L0..L2 and part of L3).
  for (int l = 0; l < 3; ++l)
    EXPECT_GE(a.user_bytes(0)[static_cast<std::size_t>(l)],
              0.95 * p.content.layer_bytes[static_cast<std::size_t>(l)])
        << "layer " << l;
  EXPECT_LT(a.user_bytes(0)[3], p.content.layer_bytes[3]);
}

TEST_F(AllocateTest, AvoidsGrossOverAllocation) {
  auto p = problem({{{0}, 40.0}}, 1);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a);
  // No layer should receive more than ~a symbol or two beyond its cap.
  for (int l = 0; l < video::kNumLayers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    EXPECT_LT(a.user_bytes(0)[ls], p.content.layer_bytes[ls] * 1.1 + 2000.0)
        << "layer " << l;
  }
}

TEST_F(AllocateTest, HigherRateHigherQuality) {
  auto slow = problem({{{0}, 10.0}}, 1);
  auto fast = problem({{{0}, 40.0}}, 1);
  Allocation a_slow;
  optimize_allocation_into(slow, *quality_, scratch_, a_slow);
  Allocation a_fast;
  optimize_allocation_into(fast, *quality_, scratch_, a_fast);
  EXPECT_GT(a_fast.predicted_ssim[0], a_slow.predicted_ssim[0] + 0.01);
}

TEST_F(AllocateTest, AsymmetricRatesFavorBottleneckViaSingletons) {
  // One strong user, one weak user: the optimizer should still deliver
  // the base layer to the weak user via some group containing it.
  auto p = problem({{{0}, 40.0}, {{1}, 8.0}, {{0, 1}, 8.0}}, 2);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a);
  EXPECT_GT(a.user_bytes(1)[0], 0.9 * p.content.layer_bytes[0]);
  // And the strong user should end with more total bytes.
  const double s0 = std::accumulate(a.user_bytes(0).begin(),
                                    a.user_bytes(0).end(), 0.0);
  const double s1 = std::accumulate(a.user_bytes(1).begin(),
                                    a.user_bytes(1).end(), 0.0);
  EXPECT_GT(s0, s1);
}

TEST_F(AllocateTest, EmptyProblemsThrow) {
  AllocProblem p;
  p.n_users = 1;
  Allocation a;
  EXPECT_THROW(optimize_allocation_into(p, *quality_, scratch_, a),
               std::invalid_argument);
  auto p2 = problem({{{0}, 40.0}}, 1);
  p2.n_users = 0;
  EXPECT_THROW(optimize_allocation_into(p2, *quality_, scratch_, a),
               std::invalid_argument);
}

TEST_F(AllocateTest, MaskLimitsThrow) {
  // More users than a group mask can name.
  auto wide = problem({{{0}, 40.0}}, 65);
  Allocation a;
  EXPECT_THROW(optimize_allocation_into(wide, *quality_, scratch_, a),
               std::invalid_argument);
  EXPECT_THROW(round_robin_allocation_into(wide, *quality_, scratch_, a),
               std::invalid_argument);
  // A member past n_users.
  auto stray = problem({{{0, 2}, 40.0}}, 2);
  EXPECT_THROW(optimize_allocation_into(stray, *quality_, scratch_, a),
               std::invalid_argument);
  EXPECT_THROW(round_robin_allocation_into(stray, *quality_, scratch_, a),
               std::invalid_argument);
  // All 64 users fit.
  auto full = problem({{{0, 63}, 40.0}}, 64);
  EXPECT_NO_THROW(round_robin_allocation_into(full, *quality_, scratch_, a));
}

TEST_F(AllocateTest, BytesConsistentWithTimeAndRate) {
  auto p = problem({{{0}, 37.0}}, 1);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a);
  for (int l = 0; l < video::kNumLayers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    EXPECT_NEAR(a.bytes(0)[ls], a.time(0)[ls] * 37.0 * 1e6 / 8.0, 1e-6);
  }
}

TEST_F(AllocateTest, RoundRobinUsesFullBudgetCyclically) {
  auto p = problem({{{0}, 40.0}, {{1}, 40.0}, {{0, 1}, 40.0}}, 2);
  Allocation a;
  round_robin_allocation_into(p, *quality_, scratch_, a);
  EXPECT_NEAR(total_time(a), p.time_budget, 1e-9);
  // Round robin splits time equally across the three groups.
  for (std::size_t g = 0; g < 3; ++g) {
    double t = 0.0;
    for (double x : a.time(g)) t += x;
    EXPECT_NEAR(t, p.time_budget / 3.0, 1e-3);
  }
}

TEST_F(AllocateTest, OptimizedBeatsRoundRobinWithThreeUsers) {
  // Fig. 8's claim. Three users, heterogeneous rates.
  auto p = problem({{{0}, 40.0},
                    {{1}, 30.0},
                    {{2}, 15.0},
                    {{0, 1}, 30.0},
                    {{0, 2}, 15.0},
                    {{1, 2}, 15.0},
                    {{0, 1, 2}, 15.0}},
                   3);
  Allocation opt;
  optimize_allocation_into(p, *quality_, scratch_, opt);
  Allocation rr;
  round_robin_allocation_into(p, *quality_, scratch_, rr);
  double opt_sum = 0.0, rr_sum = 0.0;
  for (double s : opt.predicted_ssim) opt_sum += s;
  for (double s : rr.predicted_ssim) rr_sum += s;
  EXPECT_GT(opt_sum, rr_sum);
}

TEST_F(AllocateTest, TwoUserSharedGroupMatchesRoundRobinClosely) {
  // Paper: "our scheduling performs the same as the round-robin for 2
  // users because there is only one multicast group" — when the only
  // group is {0,1}, both allocators serve it the whole budget.
  auto p = problem({{{0, 1}, 40.0}}, 2);
  Allocation opt;
  optimize_allocation_into(p, *quality_, scratch_, opt);
  Allocation rr;
  round_robin_allocation_into(p, *quality_, scratch_, rr);
  EXPECT_NEAR(opt.predicted_ssim[0], rr.predicted_ssim[0], 0.02);
}

TEST(ProjectToSimplex, Basics) {
  std::vector<double> t{0.5, 0.7, -0.1};
  std::vector<double> sorted;
  project_to_simplex(t, 1.0, sorted);
  double sum = 0.0;
  for (double x : t) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_LE(sum, 1.0 + 1e-12);
}

TEST(ProjectToSimplex, UnderBudgetUntouchedExceptClipping) {
  std::vector<double> t{0.1, 0.2, -0.3};
  std::vector<double> sorted;
  project_to_simplex(t, 10.0, sorted);
  EXPECT_DOUBLE_EQ(t[0], 0.1);
  EXPECT_DOUBLE_EQ(t[1], 0.2);
  EXPECT_DOUBLE_EQ(t[2], 0.0);
}

TEST(ProjectToSimplex, ExactProjectionKnownCase) {
  // Projection of (1, 1) onto {x >= 0, sum <= 1} is (0.5, 0.5).
  std::vector<double> t{1.0, 1.0};
  std::vector<double> sorted;
  project_to_simplex(t, 1.0, sorted);
  EXPECT_NEAR(t[0], 0.5, 1e-12);
  EXPECT_NEAR(t[1], 0.5, 1e-12);
}

TEST(ProjectToSimplex, NonPositiveBudgetYieldsZeroVector) {
  // The only feasible point of {t >= 0, sum t <= b} with b <= 0 is 0.
  for (double budget : {0.0, -1.0, -1e-300}) {
    std::vector<double> t{0.5, 0.7, -0.1};
    std::vector<double> sorted;
    project_to_simplex(t, budget, sorted);
    for (double x : t) EXPECT_EQ(x, 0.0) << "budget " << budget;
  }
}

TEST(ProjectToSimplex, NonFiniteEntriesThrowUnderDefaultPolicy) {
  verify::set_mode(verify::Mode::kThrow);
  std::vector<double> t{std::numeric_limits<double>::quiet_NaN(), 0.5};
  std::vector<double> sorted;
  EXPECT_THROW(project_to_simplex(t, 1.0, sorted),
               verify::InvariantViolation);
}

TEST(ProjectToSimplex, NonFiniteEntriesSanitizedInReportMode) {
  verify::set_mode(verify::Mode::kReport);
  verify::reset_violations();
  std::vector<double> t{std::numeric_limits<double>::quiet_NaN(), 1.0,
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  std::vector<double> sorted;
  project_to_simplex(t, 1.0, sorted);
  verify::set_mode(verify::Mode::kThrow);
  EXPECT_EQ(verify::violation_count(), 3u);  // NaN, +inf, -inf
  double sum = 0.0;
  for (double x : t) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_LE(sum, 1.0 + 1e-12);
  // NaN and -inf collapse to 0; +inf claimed the budget (1.0, same as
  // t[1]) before projection, so the two split the budget evenly.
  EXPECT_EQ(t[0], 0.0);
  EXPECT_EQ(t[3], 0.0);
  EXPECT_NEAR(t[1], 0.5, 1e-12);
  EXPECT_NEAR(t[2], 0.5, 1e-12);
}

TEST(ProjectToSimplex, NonFiniteBudgetZeroesInReportMode) {
  verify::set_mode(verify::Mode::kReport);
  verify::reset_violations();
  std::vector<double> t{0.25, 0.5};
  std::vector<double> sorted;
  project_to_simplex(t, std::numeric_limits<double>::quiet_NaN(), sorted);
  verify::set_mode(verify::Mode::kThrow);
  EXPECT_GE(verify::violation_count(), 1u);
  for (double x : t) EXPECT_EQ(x, 0.0);
}

TEST_F(AllocateTest, RoundRobinLandsExactlyOnAwkwardBudgets) {
  // Regression: the final partial slot must be sized to the remaining
  // budget, so the summed plan never exceeds it and drops at most 1e-12 s.
  auto p = problem({{{0}, 40.0}, {{1}, 30.0}, {{0, 1}, 25.0}}, 2);
  for (double budget : {1.0 / 30.0, 0.0307, 1.0 / 3.0, 0.0100005, 2.5e-4}) {
    p.time_budget = budget;
    Allocation a;
    round_robin_allocation_into(p, *quality_, scratch_, a);
    const double total = total_time(a);
    EXPECT_LE(total, budget * (1.0 + 1e-12)) << "budget " << budget;
    EXPECT_GE(total, budget - 1e-11) << "budget " << budget;
  }
}

TEST_F(AllocateTest, RoundRobinRejectsDegenerateSlots) {
  auto p = problem({{{0}, 40.0}}, 1);
  Allocation a;
  EXPECT_THROW(round_robin_allocation_into(p, *quality_, scratch_, a, 0.0),
               std::invalid_argument);
  EXPECT_THROW(round_robin_allocation_into(p, *quality_, scratch_, a, -1e-3),
               std::invalid_argument);
  EXPECT_THROW(round_robin_allocation_into(
                   p, *quality_, scratch_, a,
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(round_robin_allocation_into(
                   p, *quality_, scratch_, a,
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST_F(AllocateTest, WarmStartMatchingPreviousOptimumIsAccepted) {
  auto p = problem({{{0}, 40.0}, {{1}, 30.0}, {{0, 1}, 25.0}}, 2);
  Allocation cold;
  optimize_allocation_into(p, *quality_, scratch_, cold);
  std::vector<double> warm;
  for (const auto& row : cold.time_rows())
    warm.insert(warm.end(), row.begin(), row.end());
  Allocation warmed;
  optimize_allocation_into(p, *quality_, scratch_, warmed, {}, &warm);
  // Restarting from the optimum must not lose objective, and converges in
  // far fewer iterations than the cold multi-start.
  EXPECT_GE(warmed.objective, cold.objective - 1e-9);
  EXPECT_LT(warmed.iterations, cold.iterations);
}

TEST_F(AllocateTest, WarmStartLeavingAUserUnservedFallsBackToMultiStart) {
  // A warm start with zero airtime on every group containing user 1 (the
  // post-quarantine re-entry shape) must not be trusted: the optimizer has
  // to fall back to the multi-start, which serves user 1's base layer.
  auto p = problem({{{0}, 40.0}, {{1}, 30.0}, {{0, 1}, 25.0}}, 2);
  std::vector<double> warm(p.groups.size() * video::kNumLayers, 0.0);
  warm[0] = p.time_budget;  // everything on user 0's singleton
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a, {}, &warm);
  EXPECT_GT(a.user_bytes(1)[0], 0.9 * p.content.layer_bytes[0]);
}

TEST_F(AllocateTest, UnusableWarmStartsReproduceColdBitIdentically) {
  // Wrong size, non-finite, or all-clipped warm vectors must be ignored
  // entirely — the cold multi-start runs and produces the exact cold plan.
  auto p = problem({{{0}, 40.0}, {{1}, 30.0}, {{0, 1}, 25.0}}, 2);
  Allocation cold;
  optimize_allocation_into(p, *quality_, scratch_, cold);
  const std::vector<std::vector<double>> warms = {
      {},                             // wrong size: ignored
      std::vector<double>(12, -1.0),  // projects to the zero vector
      std::vector<double>(12, std::numeric_limits<double>::quiet_NaN()),
  };
  for (const auto& w : warms) {
    Allocation a;
    optimize_allocation_into(p, *quality_, scratch_, a, {}, &w);
    EXPECT_EQ(a.objective, cold.objective);
    ASSERT_EQ(a.group_count(), cold.group_count());
    for (std::size_t g = 0; g < a.group_count(); ++g)
      EXPECT_EQ(a.time(g), cold.time(g)) << "group " << g;
    EXPECT_EQ(a.iterations, cold.iterations);
  }
  // An absurd-but-finite warm start is projected onto the budget and is
  // only ever accepted if it beats the evaluated round-robin seed, so the
  // result can never fall below the round-robin baseline.
  const std::vector<double> absurd(12, 1e9);
  Allocation a;
  optimize_allocation_into(p, *quality_, scratch_, a, {}, &absurd);
  Allocation rr;
  round_robin_allocation_into(p, *quality_, scratch_, rr);
  EXPECT_GE(a.objective, rr.objective - 1e-9);
}

}  // namespace
}  // namespace w4k::sched
