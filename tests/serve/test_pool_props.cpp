// Property suite for serve::BufferPool: random interleavings of acquire,
// add_refs and release checked step by step against a reference refcount
// model, plus a two-thread acquire/release run.
#include "serve/buffer_pool.h"
#include "support/proptest.h"
#include "verify/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace w4k::serve {
namespace {

using proptest::prop_assert;
using proptest::prop_assert_eq;

/// The pool's observable state equals the model: every slot's refcount,
/// and free_slots() == capacity minus the live slots.
void expect_matches(const BufferPool& pool,
                    const std::vector<std::uint32_t>& model,
                    const std::string& when) {
  std::size_t live = 0;
  for (std::uint32_t s = 0; s < model.size(); ++s) {
    prop_assert_eq(pool.refs(s), model[s],
                   when + ": refs of slot " + std::to_string(s));
    live += model[s] != 0 ? 1 : 0;
  }
  prop_assert_eq(pool.free_slots(), model.size() - live,
                 when + ": free_slots");
}

/// A uniformly drawn live slot (nonzero model refcount); kNoSlot when
/// there is none.
std::uint32_t pick_live(Rng& rng, const std::vector<std::uint32_t>& model) {
  std::vector<std::uint32_t> live;
  for (std::uint32_t s = 0; s < model.size(); ++s)
    if (model[s] != 0) live.push_back(s);
  if (live.empty()) return BufferPool::kNoSlot;
  return live[rng.below(live.size())];
}

TEST(PropsBufferPool, RandomInterleavingsMatchRefcountModel) {
  verify::set_mode(verify::Mode::kThrow);
  W4K_PROP("serve.pool-refcount-model", [](Rng& rng) {
    const std::size_t capacity = 1 + rng.below(12);
    BufferPool pool(16, capacity);
    std::vector<std::uint32_t> model(capacity, 0);
    expect_matches(pool, model, "fresh pool");
    const std::size_t steps = 50 + rng.below(250);
    for (std::size_t step = 0; step < steps; ++step) {
      const std::string when = "step " + std::to_string(step);
      const std::uint64_t op = rng.below(3);
      const std::uint32_t live = pick_live(rng, model);
      if (op == 0 || live == BufferPool::kNoSlot) {
        const bool exhausted =
            std::count(model.begin(), model.end(), 0u) == 0;
        const std::uint32_t s = pool.acquire();
        if (exhausted) {
          // Exhausted: no slot, and nothing changes.
          prop_assert(s == BufferPool::kNoSlot,
                      when + ": exhausted pool handed out a slot");
        } else {
          prop_assert(s < capacity, when + ": acquire returned no slot");
          prop_assert(model[s] == 0, when + ": live slot " +
                                         std::to_string(s) +
                                         " handed out twice");
          model[s] = 1;
        }
      } else if (op == 1) {
        const auto n = static_cast<std::uint32_t>(1 + rng.below(4));
        pool.add_refs(live, n);
        model[live] += n;
      } else {
        pool.release(live);
        --model[live];
      }
      expect_matches(pool, model, when);
    }
    // Releasing every remaining reference frees every slot, each on its
    // last release.
    for (std::uint32_t s = 0; s < capacity; ++s) {
      while (model[s] > 0) {
        const std::size_t free_before = pool.free_slots();
        pool.release(s);
        --model[s];
        prop_assert_eq(pool.free_slots(),
                       free_before + (model[s] == 0 ? 1 : 0),
                       "drain of slot " + std::to_string(s));
      }
    }
    expect_matches(pool, model, "drained");
    // A release of a free slot trips the invariant.
    const auto victim = static_cast<std::uint32_t>(rng.below(capacity));
    verify::reset_violations();
    bool tripped = false;
    try {
      pool.release(victim);
    } catch (const verify::InvariantViolation&) {
      tripped = true;
    }
    prop_assert(tripped, "double release of slot " + std::to_string(victim) +
                             " did not throw");
    prop_assert(verify::last_violation().find("serve.pool-double-release") !=
                    std::string::npos,
                "double release tripped " + verify::last_violation());
    verify::reset_violations();
  });
}

TEST(PropsBufferPool, TwoThreadsEndWithEverySlotFree) {
  W4K_PROP("serve.pool-two-threads", [](Rng& rng) {
    const std::size_t capacity = 2 + rng.below(6);
    BufferPool pool(16, capacity);
    // owned[s] != 0 while a thread holds slot s: a second acquire of a
    // held slot would find it set.
    std::vector<std::atomic<std::uint8_t>> owned(capacity);
    std::atomic<bool> handed_twice{false};
    const std::uint64_t seeds[2] = {rng.next(), rng.next()};
    const auto worker = [&](std::uint64_t seed) {
      Rng local(seed);
      std::vector<std::uint32_t> held;
      for (int i = 0; i < 400; ++i) {
        if (held.empty() || local.chance(0.5)) {
          const std::uint32_t s = pool.acquire();
          if (s == BufferPool::kNoSlot) continue;
          if (owned[s].exchange(1) != 0) handed_twice = true;
          const auto extra = static_cast<std::uint32_t>(local.below(3));
          if (extra > 0) pool.add_refs(s, extra);
          for (std::uint32_t r = 0; r < extra; ++r) pool.release(s);
          held.push_back(s);
        } else {
          const std::size_t k = local.below(held.size());
          const std::uint32_t s = held[k];
          held[k] = held.back();
          held.pop_back();
          owned[s] = 0;  // cleared before the last release frees it
          pool.release(s);
        }
      }
      for (std::uint32_t s : held) {
        owned[s] = 0;
        pool.release(s);
      }
    };
    std::thread a(worker, seeds[0]);
    std::thread b(worker, seeds[1]);
    a.join();
    b.join();
    prop_assert(!handed_twice, "a held slot was handed out twice");
    prop_assert_eq(pool.free_slots(), capacity, "free_slots after both");
    for (std::uint32_t s = 0; s < capacity; ++s)
      prop_assert_eq(pool.refs(s), std::uint32_t{0},
                     "refs of slot " + std::to_string(s));
  });
}

}  // namespace
}  // namespace w4k::serve
