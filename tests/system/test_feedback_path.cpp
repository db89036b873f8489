// The engine's feedback path: makeup accounting when a report never
// arrives at all, and the round-start report every makeup round sizes its
// groups from.
#include "emu/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace w4k::emu {
namespace {

// Engine-level makeup accounting when a report never arrives: the silent
// user gets a blind worst-case budget, and the backoff fraction shrinks it.
class EngineFeedbackFaultTest : public ::testing::Test {
 protected:
  static std::vector<sched::UnitSpec> units() {
    sched::UnitSpec u;
    u.id.layer = 0;
    u.id.sublayer = 0;
    u.sublayer_k = 0;
    u.offset = 0;
    u.source_bytes = 8 * 1024;
    u.k_symbols = 8;
    return {u};
  }

  static FrameTxResult run(const FrameFaultState& faults, double loss,
                           std::uint64_t seed = 21) {
    EngineConfig cfg;
    cfg.symbol_size = 1024;
    cfg.header_bytes = 0;
    TxEngine engine(cfg);
    GroupTx g;
    g.mask = 0b11;
    g.mcs = channel::mcs_table().front();
    g.drain_rate = Mbps{500.0};
    g.bucket_rate = g.drain_rate;
    g.member_loss = {0.0, loss};
    sched::UnitAssignment a;
    a.group = 0;
    a.unit_index = 0;
    a.symbols = 8;
    Rng rng(seed);
    FrameTxResult res;
    engine.run_frame_into(units(), {a}, {g}, 2, rng, faults, {}, res);
    return res;
  }
};

TEST_F(EngineFeedbackFaultTest, SilentUserGetsBlindMakeup) {
  // User 1 loses half its packets and its report vanishes: without
  // feedback the sender cannot know the deficit, so it must spend the
  // blind budget anyway.
  FrameFaultState faults;
  faults.feedback_lost = {0, 1};
  const FrameTxResult res = run(faults, /*loss=*/0.5);
  EXPECT_GT(res.blind_makeup_packets, 0u);
  EXPECT_GT(res.stats.makeup_packets, 0u);
}

TEST_F(EngineFeedbackFaultTest, BackoffFractionShrinksBlindBudget) {
  FrameFaultState full;
  full.feedback_lost = {0, 1};
  full.blind_fraction = {0.5, 0.5};
  FrameFaultState backed_off = full;
  backed_off.blind_fraction = {0.5, 0.5 / 16.0};
  // Lossless link: every blind symbol is pure overhead, so the counts
  // compare the budgets directly.
  const FrameTxResult a = run(full, /*loss=*/0.0);
  const FrameTxResult b = run(backed_off, /*loss=*/0.0);
  EXPECT_GT(a.blind_makeup_packets, 0u);
  EXPECT_GT(b.blind_makeup_packets, 0u);
  EXPECT_LT(b.blind_makeup_packets, a.blind_makeup_packets);
}

TEST_F(EngineFeedbackFaultTest, NoFaultsMeansNoBlindPackets) {
  const FrameTxResult res = run(FrameFaultState{}, /*loss=*/0.5);
  EXPECT_EQ(res.blind_makeup_packets, 0u);
}

TEST_F(EngineFeedbackFaultTest, AllReportsLostStillBounded) {
  FrameFaultState faults;
  faults.feedback_lost = {1, 1};
  const FrameTxResult res = run(faults, /*loss=*/0.3);
  // Blind makeup is capped by the worst-case fraction, not unbounded.
  EXPECT_GT(res.blind_makeup_packets, 0u);
  EXPECT_LE(res.stats.packets_sent, res.stats.packets_offered);
}

// One user in two groups that both carry the same unit. Group 0's makeup
// completes the user in round 0, yet group 1's makeup in that round is
// still sized from the report the round started with: a round's report is
// a snapshot, not the live reception state. The sequence is fixed by
// lossless links, so the counts hold whichever way the decode attempt at
// exactly k goes (the live state would give 3 or 4 makeup symbols).
TEST(EngineRoundStartReport, SharedUnitMakeupSizedFromRoundStart) {
  sched::UnitSpec unit;
  unit.source_bytes = 8 * 1024;
  unit.k_symbols = 8;
  EngineConfig cfg;
  cfg.symbol_size = 1024;
  cfg.header_bytes = 0;
  TxEngine engine(cfg);
  GroupTx g;
  g.mask = 0b1;
  g.mcs = channel::mcs_table().front();
  g.drain_rate = Mbps{500.0};
  g.bucket_rate = g.drain_rate;
  g.member_loss = {0.0};
  // Both groups send unit 0: 3 + 2 = 5 of k = 8 symbols, need 3.
  sched::UnitAssignment a0;
  a0.group = 0;
  a0.symbols = 3;
  sched::UnitAssignment a1 = a0;
  a1.group = 1;
  a1.symbols = 2;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    FrameTxResult res;
    engine.run_frame_into({unit}, {a0, a1}, {g, g}, 1, rng,
                          FrameFaultState{}, {}, res);
    EXPECT_EQ(res.stats.makeup_packets, 6u) << "seed " << seed;
    EXPECT_EQ(res.user_symbols[0][0], 11u) << "seed " << seed;
    EXPECT_TRUE(res.user_decoded[0][0]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace w4k::emu
