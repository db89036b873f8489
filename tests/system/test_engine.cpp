#include "emu/engine.h"

#include "support/masks.h"

#include <gtest/gtest.h>

#include <numeric>

namespace w4k::emu {
namespace {

/// Builds a synthetic unit list: `n` units of `k` symbols each, all layer 0.
std::vector<sched::UnitSpec> make_units(std::size_t n, std::size_t k,
                                        std::size_t symbol = 100) {
  std::vector<sched::UnitSpec> units;
  for (std::size_t i = 0; i < n; ++i) {
    sched::UnitSpec u;
    u.id.layer = 0;
    u.id.sublayer = static_cast<std::uint16_t>(i);
    u.sublayer_k = 0;
    u.offset = i * k * symbol;
    u.source_bytes = k * symbol;
    u.k_symbols = k;
    units.push_back(u);
  }
  return units;
}

std::vector<sched::UnitAssignment> full_assignments(
    const std::vector<sched::UnitSpec>& units, std::size_t group = 0) {
  std::vector<sched::UnitAssignment> a;
  for (std::size_t i = 0; i < units.size(); ++i)
    a.push_back({group, i, units[i].k_symbols});
  return a;
}

GroupTx perfect_group(std::vector<std::size_t> members, double mbps = 50.0) {
  GroupTx g;
  g.mask = test::mask_of(members);
  g.mcs = *channel::mcs_by_index(12);
  g.drain_rate = Mbps{mbps};
  g.bucket_rate = Mbps{mbps};
  g.member_loss.assign(members.size(), 0.0);
  return g;
}

EngineConfig fast_config() {
  EngineConfig cfg;
  cfg.symbol_size = 100;
  cfg.header_bytes = 0;
  return cfg;
}

/// A frame that ends `budget` seconds in: set it between the end of the
/// schedule and the first feedback report (the schedule's airtime plus
/// the 0.8 ms feedback latency), and no makeup round ever starts.
FrameFaultState no_feedback_frame(Seconds budget) {
  FrameFaultState f;
  f.budget_scale = budget / kFrameBudget;
  return f;
}

TEST(Engine, PerfectLinkDeliversEverything) {
  const auto units = make_units(10, 20);
  TxEngine engine(fast_config());
  Rng rng(1);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units), {perfect_group({0, 1})},
                        2, rng, {}, {}, res);
  for (std::size_t u = 0; u < 2; ++u)
    for (std::size_t i = 0; i < units.size(); ++i)
      EXPECT_TRUE(res.user_decoded[u][i]) << u << "," << i;
  EXPECT_EQ(res.stats.packets_dropped_queue, 0u);
  EXPECT_EQ(res.stats.packets_sent, 200u + res.stats.makeup_packets);
}

TEST(Engine, LossRecoveredByMakeupRounds) {
  const auto units = make_units(10, 20);
  TxEngine engine(fast_config());
  GroupTx g = perfect_group({0, 1});
  g.member_loss = {0.1, 0.15};  // heavy but recoverable
  Rng rng(2);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units), {g}, 2, rng, {}, {},
                        res);
  EXPECT_GT(res.stats.makeup_packets, 0u);
  std::size_t decoded = 0;
  for (std::size_t u = 0; u < 2; ++u)
    for (std::size_t i = 0; i < units.size(); ++i)
      decoded += res.user_decoded[u][i] ? 1 : 0;
  EXPECT_EQ(decoded, 20u);  // everything recovered within the budget
}

TEST(Engine, NoFeedbackMeansLossesStick) {
  const auto units = make_units(10, 20);
  TxEngine engine(fast_config());
  GroupTx g = perfect_group({0});
  g.member_loss = {0.2};
  Rng rng(3);
  FrameTxResult res;
  // 200 packets of 100 B at 50 Mbps take 3.2 ms; the report would land
  // at 4.0 ms.
  engine.run_frame_into(units, full_assignments(units), {g}, 1, rng,
                        no_feedback_frame(3.6e-3), {}, res);
  EXPECT_EQ(res.stats.makeup_packets, 0u);
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < units.size(); ++i)
    decoded += res.user_decoded[0][i] ? 1 : 0;
  EXPECT_LT(decoded, 4u);  // with exactly k sent and 20% loss, most fail
}

TEST(Engine, BudgetLimitsDelivery) {
  // 100 units x 20 symbols x 100 B = 200 kB, but at 10 Mbps only
  // ~41 kB fit in 33 ms.
  const auto units = make_units(100, 20);
  TxEngine engine(fast_config());
  Rng rng(4);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 10.0)}, 1, rng, {}, {}, res);
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < units.size(); ++i)
    decoded += res.user_decoded[0][i] ? 1 : 0;
  EXPECT_GT(decoded, 15u);
  EXPECT_LT(decoded, 25u);  // ~ 41kB / 2kB per unit
  // Earlier units decode first (priority order).
  for (std::size_t i = 0; i + 1 < units.size(); ++i)
    EXPECT_GE(res.user_decoded[0][i], res.user_decoded[0][i + 1]);
}

TEST(Engine, SourceCodingOffDuplicatesAcrossGroups) {
  // User 0 sits in two groups that both send the same unit. With fountain
  // coding every symbol is fresh -> unit decodes from combined halves.
  // Without it, both groups send the same systematic prefix -> user 0
  // cannot decode.
  const auto units = make_units(1, 20);
  std::vector<sched::UnitAssignment> a{{0, 0, 10}, {1, 0, 10}};
  const std::vector<GroupTx> groups{perfect_group({0, 1}),
                                    perfect_group({0, 2})};
  const EngineConfig with = fast_config();
  EngineConfig without = with;
  without.source_coding = false;
  // 20 packets take 0.32 ms; the frame ends before the first report (at
  // 1.12 ms) could ask for makeup.
  const FrameFaultState no_feedback = no_feedback_frame(0.6e-3);

  Rng rng1(5), rng2(5);
  FrameTxResult res_with;
  TxEngine(with).run_frame_into(units, a, groups, 3, rng1, no_feedback, {},
                                res_with);
  FrameTxResult res_without;
  TxEngine(without).run_frame_into(units, a, groups, 3, rng2, no_feedback, {},
                                   res_without);

  EXPECT_TRUE(res_with.user_decoded[0][0]);
  EXPECT_FALSE(res_without.user_decoded[0][0]);
  // Distinct symbols seen by user 0 without coding: only 10 (duplicated).
  EXPECT_EQ(res_without.user_symbols[0][0], 10u);
  EXPECT_EQ(res_with.user_symbols[0][0], 20u);
}

TEST(Engine, SourceCodingOffStillDecodesDisjointIndices) {
  // A single group sending exactly k systematic symbols decodes fine.
  const auto units = make_units(5, 20);
  EngineConfig cfg = fast_config();
  cfg.source_coding = false;
  TxEngine engine(cfg);
  Rng rng(6);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units), {perfect_group({0})}, 1,
                        rng, {}, {}, res);
  for (std::size_t i = 0; i < units.size(); ++i)
    EXPECT_TRUE(res.user_decoded[0][i]);
}

TEST(Engine, RateControlOffOverflowsQueueOnHugeBurst) {
  // Frame data far beyond queue capacity, dumped at t=0 without pacing.
  const auto units = make_units(400, 20);  // 800 kB
  EngineConfig cfg = fast_config();
  cfg.rate_control = false;
  cfg.queue_capacity_bytes = 100'000;
  TxEngine engine(cfg);
  Rng rng(7);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 50.0)}, 1, rng, {}, {}, res);
  EXPECT_GT(res.stats.packets_dropped_queue, 0u);
}

TEST(Engine, RateControlOnAvoidsQueueDrops) {
  const auto units = make_units(400, 20);
  EngineConfig cfg = fast_config();
  cfg.queue_capacity_bytes = 100'000;
  TxEngine engine(cfg);
  Rng rng(8);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 50.0)}, 1, rng, {}, {}, res);
  EXPECT_EQ(res.stats.packets_dropped_queue, 0u);
}

TEST(Engine, BacklogCarriesAcrossFramesWithoutRateControl) {
  const auto units = make_units(300, 20);  // 600 kB >> 33 ms at 50 Mbps
  EngineConfig cfg = fast_config();
  cfg.rate_control = false;
  cfg.queue_capacity_bytes = 10'000'000;
  TxEngine engine(cfg);
  Rng rng(9);
  FrameTxResult res1;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 50.0)}, 1, rng, {}, {}, res1);
  EXPECT_GT(engine.backlog_bytes(), 0.0);
  EXPECT_GT(res1.stats.backlog_packets_after, 0u);
  // Second frame: stale backlog eats into the budget, so fewer fresh
  // packets make it than in frame 1.
  FrameTxResult res2;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 50.0)}, 1, rng, {}, {}, res2);
  EXPECT_LT(res2.stats.packets_sent, res1.stats.packets_sent);
}

TEST(Engine, ClearBacklogResets) {
  const auto units = make_units(300, 20);
  EngineConfig cfg = fast_config();
  cfg.rate_control = false;
  TxEngine engine(cfg);
  Rng rng(10);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 50.0)}, 1, rng, {}, {}, res);
  ASSERT_GT(engine.backlog_bytes(), 0.0);
  engine.clear_backlog();
  EXPECT_DOUBLE_EQ(engine.backlog_bytes(), 0.0);
}

TEST(Engine, MeasuredRateReflectsWorstMemberLoss) {
  const auto units = make_units(5, 20);
  TxEngine engine(fast_config());
  GroupTx g = perfect_group({0, 1}, 40.0);
  g.member_loss = {0.0, 0.25};
  Rng rng(11);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units), {g}, 2, rng, {}, {},
                        res);
  ASSERT_EQ(res.measured_rate.size(), 1u);
  EXPECT_NEAR(res.measured_rate[0].value, 40.0 * 0.75, 40.0 * 0.07);
}

TEST(Engine, ZeroRateGroupDropsItsPackets) {
  const auto units = make_units(3, 20);
  TxEngine engine(fast_config());
  GroupTx dead;
  dead.mask = 0b1;
  dead.member_loss = {0.0};  // drain_rate stays 0
  Rng rng(12);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units), {dead}, 1, rng, {}, {},
                        res);
  EXPECT_EQ(res.stats.packets_sent, 0u);
  EXPECT_EQ(res.stats.packets_dropped_queue, 60u);
  for (std::size_t i = 0; i < units.size(); ++i)
    EXPECT_FALSE(res.user_decoded[0][i]);
}

TEST(Engine, UnknownGroupIndexThrows) {
  const auto units = make_units(1, 2);
  TxEngine engine(fast_config());
  std::vector<sched::UnitAssignment> a{{5, 0, 2}};  // group 5 doesn't exist
  Rng rng(13);
  FrameTxResult res;
  EXPECT_THROW(engine.run_frame_into(units, a, {perfect_group({0})}, 1, rng,
                                     {}, {}, res),
               std::invalid_argument);
}

TEST(Engine, MaskLimitsThrow) {
  const auto units = make_units(1, 2);
  TxEngine engine(fast_config());
  Rng rng(14);
  FrameTxResult res;
  // User 1 is past n_users = 1.
  EXPECT_THROW(engine.run_frame_into(units, full_assignments(units),
                                     {perfect_group({0, 1})}, 1, rng, {}, {},
                                     res),
               std::invalid_argument);
  // More users than a group mask can name.
  EXPECT_THROW(engine.run_frame_into(units, full_assignments(units),
                                     {perfect_group({0})}, 65, rng, {}, {},
                                     res),
               std::invalid_argument);
}

TEST(Engine, ResidualDecodeFailureRecoveredByFeedback) {
  // Send exactly k with zero loss over many units: ~1/256 of them hit the
  // rank-deficiency, and the makeup round must fix every one.
  const auto units = make_units(300, 20);
  EngineConfig cfg = fast_config();
  TxEngine engine(cfg);
  Rng rng(14);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units),
                        {perfect_group({0}, 10000.0)}, 1, rng, {}, {}, res);
  for (std::size_t i = 0; i < units.size(); ++i)
    EXPECT_TRUE(res.user_decoded[0][i]) << i;
}

TEST(Engine, StatsAreInternallyConsistent) {
  const auto units = make_units(20, 20);
  TxEngine engine(fast_config());
  GroupTx g = perfect_group({0}, 30.0);
  g.member_loss = {0.05};
  Rng rng(15);
  FrameTxResult res;
  engine.run_frame_into(units, full_assignments(units), {g}, 1, rng, {}, {},
                        res);
  EXPECT_GE(res.stats.packets_offered,
            res.stats.packets_sent + res.stats.packets_dropped_queue);
  EXPECT_GT(res.stats.airtime, 0.0);
  EXPECT_LE(res.stats.airtime, kFrameBudget + 1e-9);
}

}  // namespace
}  // namespace w4k::emu
