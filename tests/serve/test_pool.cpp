// BufferPool refcounting and the publisher/worker FrameRing: the two
// lock-free pieces the zero-copy fan-out stands on.
#include "serve/buffer_pool.h"
#include "serve/source.h"
#include "serve/wire.h"
#include "serve/worker.h"
#include "verify/invariants.h"

#include <gtest/gtest.h>

#include <cstring>

namespace w4k::serve {
namespace {

TEST(ServePool, AcquireReleaseCycles) {
  BufferPool pool(128, 4);
  EXPECT_EQ(pool.free_slots(), 4u);
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  ASSERT_NE(a, BufferPool::kNoSlot);
  ASSERT_NE(b, BufferPool::kNoSlot);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.free_slots(), 2u);
  EXPECT_EQ(pool.refs(a), 1u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.free_slots(), 4u);
}

TEST(ServePool, LastReferenceFrees) {
  BufferPool pool(128, 2);
  const auto s = pool.acquire();
  pool.add_refs(s, 2);  // two workers
  EXPECT_EQ(pool.refs(s), 3u);
  pool.release(s);  // publisher
  pool.release(s);  // worker 1
  EXPECT_EQ(pool.free_slots(), 1u);
  pool.release(s);  // worker 2: last
  EXPECT_EQ(pool.free_slots(), 2u);
}

TEST(ServePool, ExhaustionReturnsNoSlot) {
  BufferPool pool(64, 1);
  const auto s = pool.acquire();
  ASSERT_NE(s, BufferPool::kNoSlot);
  EXPECT_EQ(pool.acquire(), BufferPool::kNoSlot);
  pool.release(s);
  EXPECT_NE(pool.acquire(), BufferPool::kNoSlot);
}

TEST(ServePool, DoubleReleaseTripsInvariant) {
  verify::set_mode(verify::Mode::kThrow);
  BufferPool pool(64, 2);
  const auto s = pool.acquire();
  pool.release(s);
  EXPECT_THROW(pool.release(s), verify::InvariantViolation);
  verify::reset_violations();
}

TEST(ServePool, SlotSpansAreDisjoint) {
  BufferPool pool(32, 3);
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  auto sa = pool.slot(a);
  auto sb = pool.slot(b);
  ASSERT_EQ(sa.size(), 32u);
  EXPECT_TRUE(sa.data() + 32 <= sb.data() || sb.data() + 32 <= sa.data());
}

TEST(ServeFrameRing, PushPopOrderAndCapacity) {
  FrameRing ring;
  FrameDesc descs[FrameRing::kCap + 1];
  EXPECT_EQ(ring.front(), nullptr);
  for (std::uint32_t i = 0; i < FrameRing::kCap; ++i)
    EXPECT_TRUE(ring.push(&descs[i]));
  EXPECT_FALSE(ring.push(&descs[FrameRing::kCap]));  // full
  EXPECT_EQ(ring.size(), FrameRing::kCap);
  for (std::uint32_t i = 0; i < FrameRing::kCap; ++i) {
    ASSERT_EQ(ring.front(), &descs[i]);  // FIFO
    ring.pop();
  }
  EXPECT_EQ(ring.front(), nullptr);
  // Wrapped reuse after a full cycle.
  EXPECT_TRUE(ring.push(&descs[0]));
  EXPECT_EQ(ring.front(), &descs[0]);
}

TEST(ServeSource, EmitsFreshEsisAcrossFrames) {
  SourceConfig cfg;
  cfg.symbol_bytes = 64;
  cfg.layers = {{0, 0, 4, 2}, {1, 0, 2, 1}};
  FountainSource src(cfg);
  EXPECT_EQ(src.symbols_per_frame(), 3u);
  BufferPool pool(wire::kSymbolHeaderBytes + cfg.symbol_bytes, 16);

  FrameDesc f0, f1;
  ASSERT_TRUE(src.next_frame(pool, f0));
  ASSERT_TRUE(src.next_frame(pool, f1));
  EXPECT_EQ(f0.frame_id, 0u);
  EXPECT_EQ(f1.frame_id, 1u);
  ASSERT_EQ(f0.n_symbols, 3u);

  // Parse the records back: layer/sublayer as configured, ESIs advancing
  // across frames (never repeated), headers self-consistent.
  auto header_of = [&](const FrameDesc& f, std::uint32_t i) {
    wire::SymbolHeader h;
    const auto s = pool.slot(f.slots[i]);
    std::uint8_t pkt[512];
    wire::serialize_prefix(1, pkt);
    std::memcpy(pkt + wire::kPrefixBytes, s.data(), f.bytes[i]);
    const auto parsed =
        wire::parse_data(pkt, wire::kPrefixBytes + f.bytes[i]);
    EXPECT_TRUE(parsed.has_value());
    return parsed ? parsed->header : h;
  };
  const auto h00 = header_of(f0, 0);
  const auto h01 = header_of(f0, 1);
  const auto h02 = header_of(f0, 2);
  const auto h10 = header_of(f1, 0);
  EXPECT_EQ(h00.layer, 0);
  EXPECT_EQ(h02.layer, 1);
  EXPECT_EQ(h00.esi, 0u);
  EXPECT_EQ(h01.esi, 1u);
  EXPECT_EQ(h10.esi, 2u);  // continues after frame 0's base-layer pair
  EXPECT_EQ(h00.n_frame_symbols, 3);
  EXPECT_EQ(h00.k, 4);

  for (std::uint32_t i = 0; i < f0.n_symbols; ++i) pool.release(f0.slots[i]);
  for (std::uint32_t i = 0; i < f1.n_symbols; ++i) pool.release(f1.slots[i]);
  EXPECT_EQ(pool.free_slots(), 16u);
}

TEST(ServeSource, PoolExhaustionRollsBackCleanly) {
  SourceConfig cfg;
  cfg.symbol_bytes = 64;
  cfg.layers = {{0, 0, 4, 4}};
  FountainSource src(cfg);
  BufferPool pool(wire::kSymbolHeaderBytes + cfg.symbol_bytes, 6);  // 1.5 frames worth

  FrameDesc a, b;
  ASSERT_TRUE(src.next_frame(pool, a));
  EXPECT_FALSE(src.next_frame(pool, b));  // only 2 slots left
  // The failed frame must have released everything it grabbed and not
  // consumed the frame id.
  EXPECT_EQ(pool.free_slots(), 2u);
  EXPECT_EQ(src.next_frame_id(), 1u);
  for (std::uint32_t i = 0; i < a.n_symbols; ++i) pool.release(a.slots[i]);
  ASSERT_TRUE(src.next_frame(pool, b));
  EXPECT_EQ(b.frame_id, 1u);
}

}  // namespace
}  // namespace w4k::serve
