// ThreadPool semantics plus the determinism contract the compute substrate
// promises: parallel SSIM is bit-identical to the serial path for any pool
// size, because chunk boundaries depend only on the range and per-chunk
// partials reduce in chunk order.
#include "common/thread_pool.h"

#include "quality/metrics.h"
#include "video/synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace w4k {
namespace {

/// Restores the default shared pool however a test exits.
struct SharedPoolGuard {
  ~SharedPoolGuard() { ThreadPool::reset_shared(0); }
};

TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeAndZeroGrain) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // grain 0 is promoted to 1.
  std::atomic<int> n{0};
  pool.parallel_for(0, 3, 0, [&](std::size_t b, std::size_t e) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 3);
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 57)
                                     throw std::runtime_error("chunk 57");
                                 }),
               std::runtime_error);
  // The pool survives and runs the next job.
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, 2, [&](std::size_t b, std::size_t e) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // Must not deadlock; nested bodies run inline on this worker.
    ThreadPool::shared().parallel_for(0, 4, 1,
                                      [&](std::size_t b, std::size_t e) {
                                        inner_total +=
                                            static_cast<int>(e - b);
                                      });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

// --- Determinism across pool sizes -----------------------------------------

video::Frame test_frame(std::uint64_t seed_frame) {
  video::VideoSpec spec;
  spec.width = 256;
  spec.height = 160;
  spec.frames = 2;
  spec.richness = video::Richness::kHigh;
  return video::SyntheticVideo(spec).frame(static_cast<int>(seed_frame));
}

TEST(ThreadPoolDeterminism, SsimBitIdenticalAcrossPoolSizes) {
  SharedPoolGuard guard;
  const video::Frame a = test_frame(0);
  const video::Frame b = test_frame(1);

  ThreadPool::reset_shared(1);  // serial reference
  const double ssim_ref = quality::ssim(a, b);
  const double psnr_ref = quality::psnr(a.y, b.y);

  for (std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    ThreadPool::reset_shared(threads);
    EXPECT_EQ(quality::ssim(a, b), ssim_ref) << "pool=" << threads;
    EXPECT_EQ(quality::psnr(a.y, b.y), psnr_ref) << "pool=" << threads;
  }
}

}  // namespace
}  // namespace w4k
