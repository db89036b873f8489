// FaultPlan parsing, validation, seeded generation, and FrameFaults
// resolution — the declarative layer under the chaos suite.
#include "fault/injector.h"
#include "fault/plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace w4k::fault {
namespace {

// --- Parser --------------------------------------------------------------

TEST(FaultPlanParse, AllEventKindsAndComments) {
  std::istringstream is(
      "# a hostile afternoon\n"
      "feedback 3 1 lost\n"
      "feedback 4 0 delay 2   # arrives two beacons late\n"
      "\n"
      "csi 5 stale\n"
      "csi 6 corrupt\n"
      "blockage 2 4 1 18.5\n"
      "budget 7 2 0.25\n"
      "churn 1 2 leave\n"
      "churn 9 2 join\n");
  const FaultPlan plan = parse_fault_plan(is);
  ASSERT_EQ(plan.feedback.size(), 2u);
  EXPECT_EQ(plan.feedback[0].frame, 3u);
  EXPECT_EQ(plan.feedback[0].user, 1u);
  EXPECT_EQ(plan.feedback[0].delay_frames, -1);
  EXPECT_EQ(plan.feedback[1].delay_frames, 2);
  ASSERT_EQ(plan.csi.size(), 2u);
  EXPECT_FALSE(plan.csi[0].corrupt);
  EXPECT_TRUE(plan.csi[1].corrupt);
  ASSERT_EQ(plan.blockage.size(), 1u);
  EXPECT_EQ(plan.blockage[0].n_frames, 4u);
  EXPECT_DOUBLE_EQ(plan.blockage[0].extra_loss_db, 18.5);
  ASSERT_EQ(plan.budget.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.budget[0].budget_scale, 0.25);
  ASSERT_EQ(plan.churn.size(), 2u);
  EXPECT_FALSE(plan.churn[0].join);
  EXPECT_TRUE(plan.churn[1].join);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, MultiApEventKinds) {
  std::istringstream is(
      "blockage 2 4 1 18.5 ap 1   # only AP 1's ray is shadowed\n"
      "ap_outage 3 6 0 total\n"
      "ap_outage 2 4 1 sector -45 90\n"
      "handoff_beacon 7\n"
      "relay_churn 5 3 2\n");
  const FaultPlan plan = parse_fault_plan(is);
  ASSERT_EQ(plan.blockage.size(), 1u);
  EXPECT_EQ(plan.blockage[0].ap, 1);
  ASSERT_EQ(plan.ap_outage.size(), 2u);
  EXPECT_EQ(plan.ap_outage[0].start_frame, 3u);
  EXPECT_EQ(plan.ap_outage[0].n_frames, 6u);
  EXPECT_EQ(plan.ap_outage[0].ap, 0u);
  EXPECT_TRUE(plan.ap_outage[0].total);
  EXPECT_FALSE(plan.ap_outage[1].total);
  EXPECT_DOUBLE_EQ(plan.ap_outage[1].sector_center_deg, -45.0);
  EXPECT_DOUBLE_EQ(plan.ap_outage[1].sector_width_deg, 90.0);
  ASSERT_EQ(plan.handoff_beacon.size(), 1u);
  EXPECT_EQ(plan.handoff_beacon[0].frame, 7u);
  ASSERT_EQ(plan.relay_churn.size(), 1u);
  EXPECT_EQ(plan.relay_churn[0].start_frame, 5u);
  EXPECT_EQ(plan.relay_churn[0].n_frames, 3u);
  EXPECT_EQ(plan.relay_churn[0].user, 2u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParse, ErrorsNameTheLine) {
  const auto expect_error = [](const char* text, const char* needle) {
    std::istringstream is(text);
    try {
      parse_fault_plan(is);
      FAIL() << "expected throw for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("bogus 1 2 3\n", "fault-plan:1");
  expect_error("csi 5 stale\nfeedback 3 1 maybe\n", "fault-plan:2");
  expect_error("feedback 3 1 delay 0\n", "delay must be > 0");
  expect_error("budget 0 1 1.5\n", "scale must be in (0, 1]");
  expect_error("budget 0 0 0.5\n", "n_frames must be > 0");
  expect_error("blockage 0 1 0 -3\n", "extra_db");
  expect_error("churn 1 0 vanish\n", "join");
  expect_error("csi 5 stale extra\n", "trailing tokens");
  expect_error("feedback 3\n", "expected");
  expect_error("blockage 0 1 0 10 ap -1\n", "ap must be >= 0");
  expect_error("blockage 0 1 0 10 at 1\n", "expected 'ap <ap>'");
  expect_error("ap_outage 0 0 0 total\n", "n_frames must be > 0");
  expect_error("ap_outage 0 1 0 dark\n", "'total' or 'sector'");
  expect_error("ap_outage 0 1 0 sector 0 0\n", "width must be in (0, 360]");
  expect_error("ap_outage 0 1 0 sector 0 400\n", "width must be in (0, 360]");
  expect_error("ap_outage 0 1 0 sector nan 90\n", "expected <center_deg>");
  expect_error("relay_churn 0 0 1\n", "n_frames must be > 0");
  expect_error("handoff_beacon 3 extra\n", "trailing tokens");
}

TEST(FaultPlanParse, ToTextRoundTripsEveryKind) {
  std::istringstream is(
      "feedback 3 1 lost\n"
      "feedback 4 0 delay 2\n"
      "csi 5 stale\n"
      "blockage 2 4 1 18.5 ap 1\n"
      "blockage 6 2 0 30\n"
      "budget 7 2 0.25\n"
      "churn 1 2 leave\n"
      "ap_outage 3 6 0 total\n"
      "ap_outage 2 4 1 sector -45 90.5\n"
      "handoff_beacon 7\n"
      "relay_churn 5 3 2\n");
  const FaultPlan plan = parse_fault_plan(is);
  const std::string text = to_text(plan);
  std::istringstream again(text);
  const FaultPlan plan2 = parse_fault_plan(again);
  EXPECT_EQ(to_text(plan2), text);
  ASSERT_EQ(plan2.ap_outage.size(), 2u);
  EXPECT_TRUE(plan2.ap_outage[0].total);
  EXPECT_DOUBLE_EQ(plan2.ap_outage[1].sector_width_deg, 90.5);
  ASSERT_EQ(plan2.blockage.size(), 2u);
  EXPECT_EQ(plan2.blockage[0].ap, 1);
  EXPECT_EQ(plan2.blockage[1].ap, -1);
  ASSERT_EQ(plan2.handoff_beacon.size(), 1u);
  ASSERT_EQ(plan2.relay_churn.size(), 1u);
}

TEST(FaultPlanParse, LoadFromMissingFileThrowsWithPath) {
  try {
    load_fault_plan("/nonexistent/plan.txt");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/plan.txt"),
              std::string::npos);
  }
}

// --- Validation ----------------------------------------------------------

TEST(FaultPlanValidate, NamesTheOffendingEvent) {
  FaultPlan plan;
  plan.blockage.push_back({0, 1, 0, 10.0});
  plan.blockage.push_back({0, 1, 0, -1.0});
  try {
    plan.validate();
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FaultPlan.blockage[1].extra_loss_db"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultPlanValidate, RejectsOutOfRangeUsers) {
  FaultPlan plan;
  plan.churn.push_back({0, 5, false});
  EXPECT_NO_THROW(plan.validate(0));  // user range unknown: skipped
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(6));
}

TEST(FaultPlanValidate, RejectsBadScalesAndNaN) {
  FaultPlan plan;
  plan.budget.push_back({0, 1, 0.0});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.budget[0].budget_scale = std::nan("");
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.budget[0].budget_scale = 1.0;
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlanValidate, RejectsOutOfRangeAps) {
  FaultPlan plan;
  plan.ap_outage.push_back({0, 2, 3, true});
  EXPECT_NO_THROW(plan.validate(0, 0));  // ap range unknown: skipped
  EXPECT_NO_THROW(plan.validate(0, 4));
  try {
    plan.validate(0, 2);
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FaultPlan.ap_outage[0].ap"),
              std::string::npos)
        << e.what();
  }
  plan.ap_outage.clear();
  plan.blockage.push_back({0, 1, 0, 10.0, /*ap=*/5});
  EXPECT_THROW(plan.validate(1, 2), std::invalid_argument);
  plan.blockage[0].ap = -1;  // "every AP" needs no range check
  EXPECT_NO_THROW(plan.validate(1, 2));
}

TEST(FaultPlanValidate, RejectsBadSectorsAndRelayChurn) {
  FaultPlan plan;
  plan.ap_outage.push_back(
      {0, 2, 0, /*total=*/false, /*center=*/0.0, /*width=*/0.0});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.ap_outage[0].sector_width_deg = 361.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.ap_outage[0].sector_width_deg = 90.0;
  plan.ap_outage[0].sector_center_deg = std::nan("");
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.ap_outage[0].sector_center_deg = 0.0;
  EXPECT_NO_THROW(plan.validate());
  plan.ap_outage[0].n_frames = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.ap_outage.clear();

  plan.relay_churn.push_back({0, 0, 1});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.relay_churn[0].n_frames = 2;
  EXPECT_NO_THROW(plan.validate(4));
  plan.relay_churn[0].user = 9;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
}

// --- Seeded generation ---------------------------------------------------

TEST(FaultPlanRandom, DeterministicPerSeed) {
  const FaultPlan a = FaultPlan::random(99, 32, 4);
  const FaultPlan b = FaultPlan::random(99, 32, 4);
  ASSERT_EQ(a.feedback.size(), b.feedback.size());
  for (std::size_t i = 0; i < a.feedback.size(); ++i) {
    EXPECT_EQ(a.feedback[i].frame, b.feedback[i].frame);
    EXPECT_EQ(a.feedback[i].user, b.feedback[i].user);
    EXPECT_EQ(a.feedback[i].delay_frames, b.feedback[i].delay_frames);
  }
  ASSERT_EQ(a.blockage.size(), b.blockage.size());
  for (std::size_t i = 0; i < a.blockage.size(); ++i)
    EXPECT_EQ(a.blockage[i].extra_loss_db, b.blockage[i].extra_loss_db);
  const FaultPlan c = FaultPlan::random(100, 32, 4);
  EXPECT_FALSE(c.empty());
}

TEST(FaultPlanRandom, GeneratedPlansAlwaysValidate) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, 16, 3);
    EXPECT_NO_THROW(plan.validate(3)) << "seed " << seed;
  }
}

TEST(FaultPlanRandom, DefaultConfigEmitsNoMultiApEvents) {
  // Backward-compat: a default RandomPlanConfig must generate exactly the
  // plans it did before the multi-AP kinds existed — no new event types,
  // and bit-identical text per seed across calls.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, 32, 4);
    EXPECT_TRUE(plan.ap_outage.empty()) << "seed " << seed;
    EXPECT_TRUE(plan.handoff_beacon.empty()) << "seed " << seed;
    EXPECT_TRUE(plan.relay_churn.empty()) << "seed " << seed;
    for (const auto& b : plan.blockage)
      EXPECT_EQ(b.ap, -1) << "seed " << seed;
    EXPECT_EQ(to_text(plan), to_text(FaultPlan::random(seed, 32, 4)));
  }
}

TEST(FaultPlanRandom, MultiApKnobsGenerateValidatingPlans) {
  RandomPlanConfig cfg;
  cfg.ap_outages = 2;
  cfg.handoff_beacon_losses = 2;
  cfg.relay_churns = 2;
  cfg.n_aps = 3;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, 24, 4, cfg);
    EXPECT_EQ(plan.ap_outage.size(), 2u) << "seed " << seed;
    EXPECT_EQ(plan.handoff_beacon.size(), 2u) << "seed " << seed;
    EXPECT_EQ(plan.relay_churn.size(), 2u) << "seed " << seed;
    EXPECT_NO_THROW(plan.validate(4, 3)) << "seed " << seed;
    for (const auto& o : plan.ap_outage)
      EXPECT_LT(o.ap, 3u) << "seed " << seed;
    // Deterministic per seed, including the new kinds.
    EXPECT_EQ(to_text(plan), to_text(FaultPlan::random(seed, 24, 4, cfg)));
  }
}

TEST(FaultPlanRandom, NeverChurnsOutUserZero) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, 16, 3);
    for (const auto& c : plan.churn) EXPECT_NE(c.user, 0u) << "seed " << seed;
  }
}

// --- FrameFaults resolution ----------------------------------------------

using Stacks = std::vector<std::vector<linalg::CVector>>;

/// One AP stack of unit channels (amplitude 1 on one antenna), so an
/// applied blockage of `db` reads back as amplitude 10^(-db/20).
Stacks unit_stack(std::size_t n_users) {
  return Stacks{std::vector<linalg::CVector>(n_users,
                                             linalg::CVector{{1.0, 0.0}})};
}

double blockage_amplitude(double db) { return std::pow(10.0, -db / 20.0); }

TEST(FaultInjectorTest, ResolvesPerFrameState) {
  FaultPlan plan;
  plan.feedback.push_back({2, 1, -1});
  plan.feedback.push_back({2, 0, 3});
  plan.csi.push_back({2, false});
  plan.budget.push_back({1, 3, 0.4});
  plan.blockage.push_back({2, 2, 1, 12.0});
  plan.churn.push_back({1, 2, false});
  plan.churn.push_back({3, 2, true});
  const FaultInjector inj(plan, 3);

  // Frame 0: nothing resolves, and apply leaves the channels untouched.
  // One FrameFaults is reused across the frames below, as the runner does.
  FrameFaults f;
  inj.at_into(0, f);
  EXPECT_FALSE(f.csi_stale);
  EXPECT_FALSE(f.handoff_beacon_lost);
  EXPECT_DOUBLE_EQ(f.budget_scale, 1.0);
  EXPECT_EQ(f.feedback_lost, std::vector<std::uint8_t>(3, 0));
  EXPECT_EQ(f.feedback_delayed, std::vector<std::uint8_t>(3, 0));
  EXPECT_EQ(f.user_active, std::vector<std::uint8_t>(3, 1));
  EXPECT_TRUE(f.relay_down.empty());
  Stacks decision = unit_stack(3);
  Stacks truth = unit_stack(3);
  inj.apply(0, decision, truth);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(decision[0][u][0], linalg::Complex(1.0, 0.0)) << "user " << u;
    EXPECT_EQ(truth[0][u][0], linalg::Complex(1.0, 0.0)) << "user " << u;
  }

  inj.at_into(2, f);
  EXPECT_EQ(f.frame, 2u);
  EXPECT_TRUE(f.csi_stale);
  EXPECT_DOUBLE_EQ(f.budget_scale, 0.4);
  EXPECT_EQ(f.feedback_lost[1], 1);
  EXPECT_EQ(f.feedback_lost[0], 1);        // delayed = missing this frame
  EXPECT_EQ(f.feedback_delayed[0], 1);     // ...but known-alive
  EXPECT_EQ(f.feedback_delayed[1], 0);
  EXPECT_EQ(f.user_active[2], 0);          // left at frame 1
  EXPECT_EQ(f.user_active[0], 1);
  // The burst on user 1 starts at frame 2: its true ray loses 12 dB, user
  // 0's does not, and a missed (not corrupt) beacon poisons nothing.
  decision = unit_stack(3);
  truth = unit_stack(3);
  inj.apply(2, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][1][0].real(), blockage_amplitude(12.0));
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(), 1.0);
  for (const auto& h : decision[0]) EXPECT_FALSE(std::isnan(h[0].real()));

  // Frame 4 overwrites everything frame 2 set.
  inj.at_into(4, f);
  EXPECT_EQ(f.user_active[2], 1);          // rejoined at frame 3
  EXPECT_DOUBLE_EQ(f.budget_scale, 1.0);   // collapse covered frames 1-3
  EXPECT_FALSE(f.csi_stale);
  EXPECT_EQ(f.feedback_lost, std::vector<std::uint8_t>(3, 0));
  EXPECT_EQ(f.feedback_delayed, std::vector<std::uint8_t>(3, 0));
  decision = unit_stack(3);
  truth = unit_stack(3);
  inj.apply(4, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][1][0].real(), 1.0);  // burst covered 2-3
}

TEST(FaultInjectorTest, OverlappingBurstsStackAndCollapseTakesMin) {
  FaultPlan plan;
  plan.blockage.push_back({0, 4, 0, 10.0});
  plan.blockage.push_back({2, 4, 0, 5.0});
  plan.budget.push_back({0, 4, 0.5});
  plan.budget.push_back({2, 4, 0.2});
  const FaultInjector inj(plan, 1);
  Stacks decision = unit_stack(1);
  Stacks truth = unit_stack(1);
  inj.apply(1, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(), blockage_amplitude(10.0));
  decision = unit_stack(1);
  truth = unit_stack(1);
  inj.apply(3, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(),
                   blockage_amplitude(15.0));  // additive overlap
  FrameFaults f;
  inj.at_into(1, f);
  EXPECT_DOUBLE_EQ(f.budget_scale, 0.5);
  inj.at_into(3, f);
  EXPECT_DOUBLE_EQ(f.budget_scale, 0.2);  // worst stall wins
}

TEST(FaultInjectorTest, AtIntoOverwritesAReusedRecord) {
  // A record last filled by a busier plan (more users, relay churn, a lost
  // handoff beacon) must read exactly as a fresh one after at_into.
  FaultPlan busy;
  busy.relay_churn.push_back({0, 4, 1});
  busy.handoff_beacon.push_back({2});
  busy.csi.push_back({2, false});
  busy.budget.push_back({2, 1, 0.3});
  FrameFaults f;
  FaultInjector(busy, 5).at_into(2, f);
  ASSERT_EQ(f.relay_down.size(), 5u);
  ASSERT_TRUE(f.handoff_beacon_lost);

  FaultPlan quiet;
  quiet.churn.push_back({0, 1, false});
  FaultInjector(quiet, 2).at_into(3, f);
  EXPECT_EQ(f.frame, 3u);
  EXPECT_FALSE(f.csi_stale);
  EXPECT_FALSE(f.handoff_beacon_lost);
  EXPECT_DOUBLE_EQ(f.budget_scale, 1.0);
  EXPECT_EQ(f.feedback_lost, std::vector<std::uint8_t>(2, 0));
  EXPECT_EQ(f.feedback_delayed, std::vector<std::uint8_t>(2, 0));
  EXPECT_EQ(f.user_active, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_TRUE(f.relay_down.empty());
}

TEST(FaultInjectorTest, ApplyAttenuatesTruthNowAndDecisionLate) {
  FaultPlan plan;
  plan.blockage.push_back({/*start=*/5, /*n=*/2, /*user=*/0,
                           /*db=*/20.0});
  const FaultInjector inj(plan, 1);
  const linalg::CVector h{{1.0, 0.0}, {0.0, -2.0}};

  // First burst frame: the truth is attenuated 20 dB (x0.1 amplitude),
  // the decision CSI still looks clean (beacon predates the burst).
  Stacks decision{{h}};
  Stacks truth{{h}};
  inj.apply(5, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(), 0.1);
  EXPECT_DOUBLE_EQ(truth[0][0][1].imag(), -0.2);
  EXPECT_DOUBLE_EQ(decision[0][0][0].real(), 1.0);

  // Next frame the beacon has caught up: both are attenuated.
  decision = Stacks{{h}};
  truth = Stacks{{h}};
  inj.apply(6, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(), 0.1);
  EXPECT_DOUBLE_EQ(decision[0][0][0].real(), 0.1);

  // One frame past the burst: truth is clean again, the decision still
  // sees the last burst frame.
  decision = Stacks{{h}};
  truth = Stacks{{h}};
  inj.apply(7, decision, truth);
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(), 1.0);
  EXPECT_DOUBLE_EQ(decision[0][0][0].real(), 0.1);
}

TEST(FaultInjectorTest, CorruptBeaconPoisonsDecisionOnly) {
  FaultPlan plan;
  plan.csi.push_back({3, /*corrupt=*/true});
  const FaultInjector inj(plan, 1);
  const linalg::CVector h{{1.0, 0.5}};
  Stacks decision{{h}};
  Stacks truth{{h}};
  inj.apply(3, decision, truth);
  EXPECT_TRUE(std::isnan(decision[0][0][0].real()));
  EXPECT_DOUBLE_EQ(truth[0][0][0].real(), 1.0);
  // A corrupt beacon is not a missed one: the session detects it from the
  // NaN decision CSI, not from the resolved fault state.
  FrameFaults f;
  inj.at_into(3, f);
  EXPECT_FALSE(f.csi_stale);
}

TEST(FaultInjectorTest, ConstructionValidatesAgainstUserCount) {
  FaultPlan plan;
  plan.feedback.push_back({0, 7, -1});
  EXPECT_THROW(FaultInjector(plan, 3), std::invalid_argument);
  EXPECT_NO_THROW(FaultInjector(plan, 8));
}

}  // namespace
}  // namespace w4k::fault
