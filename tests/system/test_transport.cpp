#include "transport/leaky_bucket.h"
#include "transport/packet.h"

#include <gtest/gtest.h>

namespace w4k::transport {
namespace {

TEST(LeakyBucket, StartsFull) {
  LeakyBucket b(Mbps{100.0}, 10000);
  EXPECT_TRUE(b.can_send(10000));
  EXPECT_FALSE(b.can_send(10001));
}

TEST(LeakyBucket, SendConsumesCredit) {
  LeakyBucket b(Mbps{100.0}, 10000);
  b.on_send(6000);
  EXPECT_DOUBLE_EQ(b.credit_bytes(), 4000.0);
  EXPECT_TRUE(b.can_send(4000));
  EXPECT_FALSE(b.can_send(4001));
}

TEST(LeakyBucket, AdvanceRefillsAtRate) {
  LeakyBucket b(Mbps{8.0}, 1'000'000);  // 1 MB/s fill
  b.on_send(1'000'000);
  b.advance(0.5);
  EXPECT_NEAR(b.credit_bytes(), 500'000.0, 1.0);
}

TEST(LeakyBucket, CreditCappedAtDepth) {
  LeakyBucket b(Mbps{8.0}, 1000);
  b.advance(100.0);  // would accrue 100 MB
  EXPECT_DOUBLE_EQ(b.credit_bytes(), 1000.0);
}

TEST(LeakyBucket, CapBoundsBurstAndThusDelay) {
  // The paper sets the cap to ~10 packets to bound driver queueing: after
  // an idle period the largest possible burst is the cap.
  LeakyBucket b(Mbps{1000.0}, 10 * 6016);
  b.advance(10.0);  // long idle
  std::size_t burst = 0;
  while (b.can_send(6016)) {
    b.on_send(6016);
    ++burst;
  }
  EXPECT_EQ(burst, 10u);
}

TEST(LeakyBucket, TimeUntilComputesWait) {
  LeakyBucket b(Mbps{8.0}, 2000);  // 1 MB/s
  b.on_send(2000);
  EXPECT_NEAR(b.time_until(1000), 1e-3, 1e-9);
  EXPECT_DOUBLE_EQ(b.time_until(0), 0.0);
}

TEST(LeakyBucket, ZeroRateNeverRefills) {
  LeakyBucket b(Mbps{0.0}, 1000);
  b.on_send(1000);
  EXPECT_GT(b.time_until(1), 1e17);
  b.advance(100.0);
  EXPECT_FALSE(b.can_send(1));
}

TEST(LeakyBucket, SetRateTakesEffect) {
  LeakyBucket b(Mbps{8.0}, 10000);
  b.on_send(10000);
  b.set_rate(Mbps{80.0});
  b.advance(0.001);  // 10 MB/s * 1 ms = 10 kB
  EXPECT_NEAR(b.credit_bytes(), 10000.0, 1.0);
}

TEST(LeakyBucket, NegativeAdvanceIgnored) {
  LeakyBucket b(Mbps{8.0}, 1000);
  b.on_send(500);
  b.advance(-1.0);
  EXPECT_DOUBLE_EQ(b.credit_bytes(), 500.0);
}

TEST(LeakyBucket, ZeroCapacityThrows) {
  EXPECT_THROW(LeakyBucket(Mbps{1.0}, 0), std::invalid_argument);
}

// --- Serial-number arithmetic for the wrapping sequence fields -----------
//
// frame_id (u32) and group_id (u16) both wrap on a long-lived sender;
// ordering via plain `<` inverts at the boundary. These regression tests
// pin the RFC 1982 semantics at the exact wrap points.

TEST(SeqArith, U32OrderingAcrossWrap) {
  const std::uint32_t max = 0xffffffffu;
  EXPECT_TRUE(seq_less<std::uint32_t>(max, 0u));       // 0 is newer
  EXPECT_FALSE(seq_less<std::uint32_t>(0u, max));
  EXPECT_TRUE(seq_less<std::uint32_t>(max - 1, max));
  EXPECT_TRUE(seq_less<std::uint32_t>(max, 5u));
  EXPECT_FALSE(seq_less<std::uint32_t>(5u, max));
  EXPECT_FALSE(seq_less<std::uint32_t>(7u, 7u));
  EXPECT_TRUE(seq_less_eq<std::uint32_t>(7u, 7u));
  // Plain `<` gets every one of the cross-wrap cases above backwards.
  EXPECT_LT(0u, max);
}

TEST(SeqArith, U16OrderingAcrossWrap) {
  const std::uint16_t max = 0xffff;
  EXPECT_TRUE(seq_less<std::uint16_t>(max, std::uint16_t{0}));
  EXPECT_FALSE(seq_less<std::uint16_t>(std::uint16_t{0}, max));
  EXPECT_TRUE(
      seq_less<std::uint16_t>(std::uint16_t{0xfff0}, std::uint16_t{0x0010}));
}

TEST(SeqArith, HalfRangeIsUnordered) {
  // Exactly 2^(N-1) apart is ambiguous by construction: neither precedes.
  EXPECT_FALSE(seq_less<std::uint32_t>(0u, 0x80000000u));
  EXPECT_FALSE(seq_less<std::uint32_t>(0x80000000u, 0u));
  EXPECT_FALSE(
      seq_less<std::uint16_t>(std::uint16_t{0}, std::uint16_t{0x8000}));
}

TEST(SeqArith, DistanceWrapsForward) {
  EXPECT_EQ(seq_distance<std::uint32_t>(0xfffffffeu, 3u), 5u);
  EXPECT_EQ(seq_distance<std::uint32_t>(3u, 3u), 0u);
  EXPECT_EQ(seq_distance<std::uint16_t>(std::uint16_t{0xfffe},
                                        std::uint16_t{1}),
            std::uint16_t{3});
}

}  // namespace
}  // namespace w4k::transport
