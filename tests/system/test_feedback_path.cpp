// The feedback path under hostile delivery: serialization round-trips,
// malformed wire bytes, and a sender-side collector facing dropped,
// duplicated, and reordered reports — plus the engine-level makeup
// accounting when a report never arrives at all.
#include "emu/engine.h"
#include "transport/feedback.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace w4k::transport {
namespace {

ReceptionReport sample_report(std::uint32_t frame, std::size_t user) {
  ReceptionReport r;
  r.frame_id = frame;
  r.user = user;
  r.symbols_received = {4, 0, 7};
  r.unit_decoded = {1, 0, 1};
  r.measured_bandwidth = Mbps{812.5};
  return r;
}

TEST(FeedbackWire, RoundTripPreservesEverything) {
  const ReceptionReport r = sample_report(9, 2);
  const auto bytes = serialize_report(r);
  const auto back = parse_report(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->frame_id, 9u);
  EXPECT_EQ(back->user, 2u);
  EXPECT_EQ(back->symbols_received, r.symbols_received);
  EXPECT_EQ(back->unit_decoded, r.unit_decoded);
  ASSERT_TRUE(back->measured_bandwidth.has_value());
  EXPECT_DOUBLE_EQ(back->measured_bandwidth->value, 812.5);
}

TEST(FeedbackWire, RoundTripWithoutBandwidthOrDecodedMask) {
  ReceptionReport r = sample_report(1, 0);
  r.unit_decoded.clear();
  r.measured_bandwidth.reset();
  const auto bytes = serialize_report(r);
  const auto back = parse_report(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->unit_decoded.empty());
  EXPECT_FALSE(back->measured_bandwidth.has_value());
}

TEST(FeedbackWire, TruncationAtEveryLengthRejected) {
  const auto bytes = serialize_report(sample_report(3, 1));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_FALSE(parse_report(bytes.data(), cut).has_value())
        << "cut at " << cut;
}

TEST(FeedbackWire, BadTagAndTrailingGarbageRejected) {
  auto bytes = serialize_report(sample_report(3, 1));
  auto bad_tag = bytes;
  bad_tag[0] ^= 0xFF;
  EXPECT_FALSE(parse_report(bad_tag.data(), bad_tag.size()).has_value());
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_FALSE(parse_report(trailing.data(), trailing.size()).has_value());
}

TEST(FeedbackWire, ImplausibleUnitCountRejected) {
  // A corrupt length prefix must not trigger a giant allocation.
  auto bytes = serialize_report(sample_report(3, 1));
  // n_units is the u32 right after tag + frame_id(u32) + user(u32).
  const std::size_t off = 1 + 4 + 4;
  bytes[off + 3] = 0xFF;
  EXPECT_FALSE(parse_report(bytes.data(), bytes.size()).has_value());
}

TEST(ReportCollectorTest, OutOfOrderAndDuplicateDelivery) {
  ReportCollector c(/*frame_id=*/5, /*n_users=*/3, /*n_units=*/3);
  EXPECT_FALSE(c.complete());

  // Reports arrive reordered: user 2, then 0, then a duplicate of 2.
  EXPECT_TRUE(c.accept(sample_report(5, 2)));
  EXPECT_TRUE(c.accept(sample_report(5, 0)));
  ReceptionReport dup = sample_report(5, 2);
  dup.symbols_received = {0, 0, 0};  // the duplicate must NOT overwrite
  EXPECT_FALSE(c.accept(dup));
  EXPECT_EQ(c.reported(), 2u);
  ASSERT_NE(c.report(2), nullptr);
  EXPECT_EQ(c.report(2)->symbols_received[0], 4u);

  const auto missing = c.missing_users();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], 1u);

  EXPECT_TRUE(c.accept(sample_report(5, 1)));
  EXPECT_TRUE(c.complete());
  EXPECT_TRUE(c.missing_users().empty());
}

TEST(ReportCollectorTest, RejectsWrongFrameUserAndShape) {
  ReportCollector c(5, 2, 3);
  EXPECT_FALSE(c.accept(sample_report(4, 0)));   // stale frame
  EXPECT_FALSE(c.accept(sample_report(6, 0)));   // future frame
  EXPECT_FALSE(c.accept(sample_report(5, 2)));   // user out of range
  ReceptionReport short_units = sample_report(5, 0);
  short_units.symbols_received.pop_back();
  short_units.unit_decoded.pop_back();
  EXPECT_FALSE(c.accept(short_units));           // wrong unit count
  EXPECT_EQ(c.reported(), 0u);
}

TEST(ReportCollectorTest, DeficitAccounting) {
  ReportCollector c(0, 2, 3);
  ReceptionReport r = sample_report(0, 0);
  r.symbols_received = {4, 2, 7};  // k = 7: unit 2 holds exactly k
  r.unit_decoded = {1, 0, 0};      // ...but its decode was rank-deficient
  ASSERT_TRUE(c.accept(r));

  EXPECT_EQ(c.deficit(0, 0, 7), std::optional<std::size_t>(0));  // decoded
  EXPECT_EQ(c.deficit(0, 1, 7), std::optional<std::size_t>(5));  // shortfall
  EXPECT_EQ(c.deficit(0, 2, 7), std::optional<std::size_t>(1));  // rank-def
  // User 1 never reported: the caller must choose a blind budget.
  EXPECT_FALSE(c.deficit(1, 0, 7).has_value());
}

}  // namespace
}  // namespace w4k::transport

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
    g.members = {0, 1};
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

}  // namespace
}  // namespace w4k::emu
