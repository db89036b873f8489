// Chaos suite: randomized fault plans over many seeds, asserting the
// invariants that must survive ANY combination of blockage bursts, lost
// feedback, stale/corrupt CSI, budget collapse, and user churn:
//
//   * no crash, no throw, no hang;
//   * frame ids stay monotonic;
//   * every per-user output stays well-formed (sizes, ranges, finiteness),
//     including across churn;
//   * the base layer is still attempted under budget collapse;
//   * SSIM recovers within a few frames of a blockage burst ending;
//   * identical seeds produce bit-identical SessionReports;
//   * a fault-free FaultPlan reproduces the plain (no-injector) run
//     bit-identically — the fault path costs nothing when unused.
//
// The generic invariant and bit-identity checks live in the shared chaos
// harness (tests/support/chaos_harness.h), which the standalone tier-1
// drivers chaos_scale and chaos_multiap reuse; this suite layers the
// targeted degradation-ladder scenarios on top.
#include "core/runner.h"
#include "fault/plan.h"
#include "support/chaos_harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;
constexpr std::size_t kUsers = 3;
constexpr int kFrames = 8;

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    chaos::ensure_chaos_model(*quality_);
    contexts_ = new std::vector<FrameContext>(chaos::chaos_contexts(kW, kH));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }

  static std::vector<linalg::CVector> channels_at(double distance) {
    Rng rng(5);
    channel::PropagationConfig prop;
    return channels_for(prop, place_users_fixed(kUsers, distance, 0.6, rng));
  }

  static SessionConfig chaos_config(std::uint64_t seed) {
    SessionConfig cfg = SessionConfig::scaled(kW, kH);
    cfg.seed = seed;
    return cfg;
  }

  static SessionReport run_plan(const fault::FaultPlan& plan,
                                std::uint64_t session_seed, int n_frames) {
    SessionConfig cfg = chaos_config(session_seed);
    MulticastSession session(cfg, *quality_, beamforming::Codebook{});
    const fault::FaultInjector injector(plan, kUsers);
    return run_static(session, {channels_at(3.0)}, *contexts_, n_frames,
                      &injector);
  }

  static std::string joined(const chaos::Violations& violations) {
    std::ostringstream os;
    for (const std::string& what : violations) os << what << '\n';
    return os.str();
  }

  /// The invariants every chaos run must satisfy, whatever the plan did
  /// (shared with the standalone drivers via the chaos harness).
  static void check_invariants(const SessionReport& report, int n_frames) {
    const chaos::Violations v = chaos::check_report_invariants(
        report, static_cast<std::size_t>(n_frames), kUsers);
    EXPECT_TRUE(v.empty()) << joined(v);
  }

  /// Bitwise equality, not tolerance: determinism is the contract.
  static void expect_identical(const SessionReport& a,
                               const SessionReport& b) {
    const chaos::Violations v = chaos::diff_reports(a, b);
    EXPECT_TRUE(v.empty()) << joined(v);
  }

  static model::QualityModel* quality_;
  static std::vector<FrameContext>* contexts_;
};

model::QualityModel* ChaosTest::quality_ = nullptr;
std::vector<FrameContext>* ChaosTest::contexts_ = nullptr;

// --- Randomized sweep: one ctest case per seed so the suite parallelizes.
class ChaosSeedTest : public ChaosTest,
                      public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(ChaosSeedTest, RandomPlanSurvivesWithInvariants) {
  const std::uint64_t seed = GetParam();
  const fault::FaultPlan plan = fault::FaultPlan::random(
      seed, static_cast<std::uint32_t>(kFrames), kUsers);
  SessionReport report;
  ASSERT_NO_THROW(report = run_plan(plan, /*session_seed=*/seed + 1,
                                    kFrames));
  check_invariants(report, kFrames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSeedTest,
                         ::testing::Range<std::uint64_t>(0, 50));

// --- Determinism ---------------------------------------------------------

TEST_F(ChaosTest, IdenticalSeedsBitIdenticalReports) {
  for (std::uint64_t seed : {3u, 17u, 41u}) {
    const fault::FaultPlan plan = fault::FaultPlan::random(
        seed, static_cast<std::uint32_t>(kFrames), kUsers);
    const SessionReport a = run_plan(plan, seed, kFrames);
    const SessionReport b = run_plan(plan, seed, kFrames);
    expect_identical(a, b);
  }
}

TEST_F(ChaosTest, FaultFreePlanReproducesPlainRunBitIdentically) {
  // An empty plan through the full fault machinery must cost nothing:
  // same rng draws, same decisions, same report, bit for bit.
  SessionConfig cfg = chaos_config(9);
  const auto chans = channels_at(3.0);
  MulticastSession plain(cfg, *quality_, beamforming::Codebook{});
  const SessionReport a = run_static(plain, {chans}, *contexts_, kFrames);

  MulticastSession faulted(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector injector(fault::FaultPlan{}, kUsers);
  const SessionReport b =
      run_static(faulted, {chans}, *contexts_, kFrames, &injector);
  expect_identical(a, b);
}

// --- Targeted degradation-ladder scenarios -------------------------------

TEST_F(ChaosTest, BudgetCollapseStillDeliversBaseLayer) {
  fault::FaultPlan plan;
  plan.budget.push_back({/*start_frame=*/2, /*n_frames=*/3,
                         /*budget_scale=*/0.2});
  const SessionReport report = run_plan(plan, 5, kFrames);
  check_invariants(report, kFrames);
  const double blank = contexts_->front().content.blank_ssim;
  bool any_shed = false;
  for (int f = 2; f < 5; ++f) {
    any_shed |= report.frame(f).shed_symbols > 0;
    for (std::size_t u = 0; u < kUsers; ++u) {
      // The channel is good: the base layer must arrive even at 20% budget,
      // so the rendered frame beats (or at worst matches) a blank one.
      EXPECT_GT(report.frame(f).decoded_fraction[u], 0.0)
          << "frame " << f << " user " << u;
      EXPECT_GE(report.frame(f).ssim[u], blank - 0.05);
    }
  }
  EXPECT_TRUE(any_shed);  // the collapse actually bit
}

TEST_F(ChaosTest, SsimRecoversAfterBlockageBurst) {
  fault::FaultPlan plan;
  plan.blockage.push_back({/*start_frame=*/2, /*n_frames=*/3, /*user=*/1,
                           /*extra_loss_db=*/30.0});
  const int n_frames = 10;
  const SessionReport report = run_plan(plan, 6, n_frames);
  check_invariants(report, n_frames);
  // During the burst the blocked user suffers.
  EXPECT_LT(report.frame(3).ssim[1], 0.9);
  // Burst covers frames 2-4; truth recovers at 5, the decision CSI one
  // beacon later. Within 3 frames of the burst ending the user is back.
  EXPECT_GT(report.frame(7).ssim[1], 0.9);
  EXPECT_GT(report.frame(n_frames - 1).ssim[1], 0.9);
  // The unblocked users never dipped to blank.
  const double blank = contexts_->front().content.blank_ssim;
  for (std::size_t i = 0; i < report.frames(); ++i) {
    EXPECT_GT(report.frame(i).ssim[0], blank + 0.05);
    EXPECT_GT(report.frame(i).ssim[2], blank + 0.05);
  }
}

TEST_F(ChaosTest, PersistentOutageQuarantinesAndReleases) {
  // Blockage the beacon never sees (every beacon during the burst is
  // missed, so decisions run on pre-burst held CSI): the blocked user is
  // transmitted to at full MCS and decodes nothing, frame after frame.
  // Quarantine must kick in, and the periodic re-probe must release the
  // user once the blockage lifts.
  fault::FaultPlan plan;
  plan.blockage.push_back({/*start_frame=*/1, /*n_frames=*/10, /*user=*/1,
                           /*extra_loss_db=*/30.0});
  for (std::uint32_t f = 1; f <= 10; ++f)
    plan.csi.push_back({f, /*corrupt=*/false});

  SessionConfig cfg = chaos_config(7);
  cfg.quarantine_after = 3;
  cfg.quarantine_reprobe_period = 4;
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector injector(plan, kUsers);
  const int n_frames = 16;
  const SessionReport report =
      run_static(session, {channels_at(3.0)}, *contexts_, n_frames, &injector);
  check_invariants(report, n_frames);

  bool ever_quarantined = false;
  for (std::size_t i = 0; i < report.frames(); ++i) {
    const auto& q = report.frame(i).user_quarantined;
    if (!q.empty() && q[1]) ever_quarantined = true;
    // Quarantining user 1 must never take the healthy users down.
    EXPECT_GT(report.frame(i).ssim[0], 0.85) << "frame " << i;
  }
  EXPECT_TRUE(ever_quarantined);
  // Blockage ends after frame 10; the next re-probe decodes and releases.
  const auto& last = report.frame(n_frames - 1);
  EXPECT_TRUE(last.user_quarantined.empty() || !last.user_quarantined[1]);
  EXPECT_GT(last.ssim[1], 0.9);
}

TEST_F(ChaosTest, ChurnKeepsReportsWellFormed) {
  fault::FaultPlan plan;
  plan.churn.push_back({/*frame=*/2, /*user=*/1, /*join=*/false});
  plan.churn.push_back({/*frame=*/5, /*user=*/1, /*join=*/true});
  plan.churn.push_back({/*frame=*/3, /*user=*/2, /*join=*/false});
  const SessionReport report = run_plan(plan, 8, kFrames);
  check_invariants(report, kFrames);

  // Absence is recorded exactly as scheduled...
  for (std::size_t i = 0; i < report.frames(); ++i) {
    const auto& f = report.frame(i);
    const bool u1_present = i < 2 || i >= 5;
    const bool u2_present = i < 3;
    EXPECT_EQ(f.user_present.empty() || f.user_present[1], u1_present)
        << "frame " << i;
    EXPECT_EQ(f.user_present.empty() || f.user_present[2], u2_present)
        << "frame " << i;
    EXPECT_TRUE(f.user_present.empty() || f.user_present[0]);
  }
  // ...and the aggregates only count present samples.
  std::size_t expected_samples = 0;
  for (std::size_t i = 0; i < report.frames(); ++i)
    for (std::size_t u = 0; u < kUsers; ++u) {
      const auto& f = report.frame(i);
      if (f.user_present.empty() || f.user_present[u]) ++expected_samples;
    }
  EXPECT_EQ(report.all_ssim().size(), expected_samples);
  EXPECT_LT(expected_samples, static_cast<std::size_t>(kFrames) * kUsers);

  // The user that rejoined at frame 5 streams normally afterwards.
  EXPECT_GT(report.frame(kFrames - 1).ssim[1], 0.85);
}

TEST_F(ChaosTest, LostFeedbackDegradesGracefully) {
  // Every report from user 1 vanishes for the whole run. Blind worst-case
  // makeup keeps the stream alive; the capped backoff keeps the silent
  // user from eating the budget forever.
  fault::FaultPlan plan;
  for (std::uint32_t f = 0; f < kFrames; ++f)
    plan.feedback.push_back({f, /*user=*/1, /*delay_frames=*/-1});
  const SessionReport report = run_plan(plan, 10, kFrames);
  check_invariants(report, kFrames);
  for (std::size_t i = 0; i < report.frames(); ++i)
    for (std::size_t u = 0; u < kUsers; ++u)
      EXPECT_GT(report.frame(i).ssim[u], 0.85)
          << "frame " << i << " user " << u;
}

TEST_F(ChaosTest, CorruptCsiBeaconIsSurvivable) {
  fault::FaultPlan plan;
  plan.csi.push_back({/*frame=*/3, /*corrupt=*/true});
  plan.csi.push_back({/*frame=*/4, /*corrupt=*/true});
  const SessionReport report = run_plan(plan, 11, kFrames);
  check_invariants(report, kFrames);
  // The corrupt beacons were bridged on held CSI, not acted upon.
  EXPECT_TRUE(report.frame(3).csi_held);
  EXPECT_TRUE(report.frame(4).csi_held);
  for (std::size_t u = 0; u < kUsers; ++u) {
    EXPECT_GT(report.frame(3).ssim[u], 0.85);
    EXPECT_GT(report.frame(kFrames - 1).ssim[u], 0.85);
  }
}

}  // namespace
}  // namespace w4k::core
