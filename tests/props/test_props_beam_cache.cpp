// Property suite: per-subset beam determinism — the PR 5 contract.
//
// (a) Every subset's beam derives its RNG from (session seed, member
//     bitmask), so surviving groups' beams are bit-identical under ANY
//     rate_threshold / max_group_size / exclude / AP partition
//     combination, and the BeamCache (with any dirty pattern, serial or
//     pooled, and on the passes it reuses whole) reproduces the stateless
//     enumeration exactly.
// (b) At the session level, W4K_THREADS 1/4 produce byte-identical
//     SessionReport JSON on a mobility trace (the session always runs
//     through the cache; (a) pins the cache to the stateless enumeration).

#include "channel/mobility.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "obs/metrics.h"
#include "sched/beam_cache.h"
#include "sched/workspace.h"
#include "support/proptest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>
#include <sstream>
#include <vector>

namespace w4k {
namespace {

using proptest::prop_assert;

std::vector<linalg::CVector> random_channels(Rng& rng, std::size_t n) {
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(channel::make_channel(
        prop, channel::Position::from_polar(rng.uniform(2.5, 10.0),
                                            rng.uniform(-0.8, 0.8))));
  return out;
}

/// The filter knobs and this frame's membership vectors.
struct Filter {
  sched::GroupEnumConfig cfg;
  std::vector<std::uint8_t> exclude, partition;
  sched::Membership who() const { return {exclude, partition}; }
};

Filter random_filter(Rng& rng, std::size_t n) {
  Filter f;
  if (rng.chance(0.5))
    f.cfg.rate_threshold = Mbps{rng.uniform(0.0, 1500.0)};
  if (rng.chance(0.5))
    f.cfg.max_group_size = 1 + rng.below(n);
  if (rng.chance(0.5)) {
    f.exclude.assign(n, 0);
    for (auto& e : f.exclude) e = rng.chance(0.3) ? 1 : 0;
  }
  if (rng.chance(0.5)) {
    // Users spread over 2-3 APs: only partition-pure groups survive.
    const std::size_t aps = 2 + rng.below(2);
    f.partition.assign(n, 0);
    for (auto& ap : f.partition)
      ap = static_cast<std::uint8_t>(rng.below(aps));
  }
  return f;
}

bool same_beam(const beamforming::GroupBeam& a,
               const beamforming::GroupBeam& b) {
  if (a.beam.size() != b.beam.size() || a.rate.value != b.rate.value ||
      a.min_rss.value != b.min_rss.value)
    return false;
  for (std::size_t i = 0; i < a.beam.size(); ++i)
    if (a.beam[i] != b.beam[i]) return false;
  return true;
}

void expect_same_groups(std::span<const sched::GroupSpec> a,
                        std::span<const sched::GroupSpec> b,
                        const std::string& what) {
  prop_assert(a.size() == b.size(),
              what + ": group count " + std::to_string(a.size()) + " vs " +
                  std::to_string(b.size()));
  for (std::size_t i = 0; i < a.size(); ++i) {
    prop_assert(a[i].mask == b[i].mask, what + ": member mismatch");
    prop_assert(same_beam(a[i].beam, b[i].beam),
                what + ": beam bits differ at group " + std::to_string(i));
  }
}

// (a) Filter knobs only gate which subsets are emitted; they must never
// perturb the beam of any subset that survives the filter.
TEST(PropsBeamCache, FilterKnobsNeverPerturbSurvivingBeams) {
  W4K_PROP("sched.filter-decoupling", [](Rng& rng) {
    const std::size_t n = 2 + rng.below(4);  // 2..5 users
    const auto channels = random_channels(rng, n);
    const std::uint64_t seed = rng.next();
    const auto scheme = beamforming::Scheme::kOptimizedMulticast;
    sched::SchedWorkspace ws_full, ws_filtered;
    const auto full =
        sched::enumerate_groups(scheme, channels, beamforming::Codebook{},
                                seed, {}, nullptr, ws_full);
    const Filter f = random_filter(rng, n);
    const auto filtered =
        sched::enumerate_groups(scheme, channels, beamforming::Codebook{},
                                seed, f.cfg, nullptr, ws_filtered, f.who());
    for (const auto& g : filtered) {
      const sched::GroupSpec* match = nullptr;
      for (const auto& f : full)
        if (f.mask == g.mask) match = &f;
      prop_assert(match != nullptr, "filtered group missing from full set");
      prop_assert(same_beam(g.beam, match->beam),
                  "filter combination perturbed a surviving beam");
    }
  });
}

// (a) The cache, fed any history of channel perturbations and filter
// changes (serial or on a 3-thread pool), reproduces the stateless
// enumeration bit-for-bit on every call.
TEST(PropsBeamCache, CacheBitIdenticalToStatelessUnderChurn) {
  // The cache's traffic shows in its telemetry counters.
  obs::set_enabled(true);
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& hit = reg.counter("sched.beam_cache.hit");
  obs::Counter& miss = reg.counter("sched.beam_cache.miss");
  W4K_PROP("sched.beam-cache-identity", [&](Rng& rng) {
    const std::uint64_t traffic0 = hit.value() + miss.value();
    const std::size_t n = 2 + rng.below(4);
    const std::uint64_t seed = rng.next();
    const auto scheme = beamforming::Scheme::kOptimizedMulticast;
    sched::BeamCache cache(scheme, seed);
    ThreadPool pool(3);
    // The stateless side reuses one workspace across steps like a
    // session's; the cache owns its own.
    sched::SchedWorkspace ws_fresh;
    std::vector<sched::GroupSpec> cached;
    auto channels = random_channels(rng, n);
    for (int step = 0; step < 4; ++step) {
      // Perturb a random subset of users (possibly none: the all-hit case).
      for (std::size_t u = 0; u < n; ++u)
        if (rng.chance(0.4)) {
          channel::PropagationConfig prop;
          channels[u] = channel::make_channel(
              prop, channel::Position::from_polar(rng.uniform(2.5, 10.0),
                                                  rng.uniform(-0.8, 0.8)));
        }
      const Filter f = random_filter(rng, n);
      ThreadPool* p = rng.chance(0.5) ? &pool : nullptr;
      cache.enumerate_into(channels, beamforming::Codebook{}, f.cfg, f.who(),
                           {}, p, cached);
      const auto fresh =
          sched::enumerate_groups(scheme, channels, beamforming::Codebook{},
                                  seed, f.cfg, nullptr, ws_fresh, f.who());
      expect_same_groups(cached, fresh,
                         "step " + std::to_string(step));
    }
    prop_assert(hit.value() + miss.value() > traffic0,
                "cache recorded no traffic");
  });
  obs::set_enabled(false);
}

// (a) The reuse path. A call whose inputs repeat the last pass's re-emits
// that pass instead of rebuilding it. Repeats interleave with one change
// each: one user's channel, exclude, partition, rate_threshold,
// max_group_size, the user count, clear(), and a deadline that defers
// (with one user's channel changed, so there are merges to defer). It runs
// on the lattice (2-12 users) and the cluster tree (13-20), serial and
// pooled. Every call must match the stateless enumeration bit for bit,
// except that a deferring call may lack the merges it missed.
// Every call must also move the counters as a full pass would: the plan's
// anytime counts (a fresh cache's), hit + miss + deferred = plan size and
// beamformed = miss. A repeat of a pass that deferred nothing must reuse
// it (all hits, nothing beamformed); every other call must not.
TEST(PropsBeamCache, ReusedPassesMatchStateless) {
  obs::set_enabled(true);
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter* counters[] = {
      &reg.counter("sched.beam_cache.hit"),
      &reg.counter("sched.beam_cache.miss"),
      &reg.counter("sched.beam_cache.reused"),
      &reg.counter("sched.anytime.candidates_generated"),
      &reg.counter("sched.anytime.pruned_by_bound"),
      &reg.counter("sched.anytime.capped_by_budget"),
      &reg.counter("sched.anytime.beamformed"),
      &reg.counter("sched.anytime.deferred"),
      &reg.counter("sched.anytime.deadline_hits")};
  enum { kHit, kMiss, kReused, kGenerated, kPruned, kCapped, kBeamformed,
         kDeferred, kDeadlineHits, kCounters };
  std::size_t reused_calls = 0, deferring_calls = 0;
  W4K_PROP("sched.beam-cache-reuse", [&](Rng& rng) {
    const bool tree = rng.chance(0.5);
    const std::size_t lo = tree ? 13 : 2, hi = tree ? 20 : 12;
    std::size_t n = lo + rng.below(hi - lo + 1);
    const std::uint64_t seed = rng.next();
    const auto scheme = beamforming::Scheme::kOptimizedMulticast;
    const beamforming::Codebook codebook{};
    sched::BeamCache cache(scheme, seed);
    ThreadPool pool(3);
    sched::SchedWorkspace ws_fresh, ws_plan;
    std::vector<sched::GroupSpec> cached;
    std::vector<sched::GroupMask> emitted;  // the last call's masks
    auto channels = random_channels(rng, n);
    Filter f;
    bool last_deferred = true;  // nothing to reuse before the first pass
    for (int step = 0; step < 9; ++step) {
      // Odd steps make one change; even steps (but the first) repeat.
      const bool repeat = step > 0 && step % 2 == 0;
      const int change = step % 2 == 1 ? static_cast<int>(rng.below(8)) : -1;
      std::size_t changed_user = n;  // n = none
      sched::Deadline deadline;
      switch (change) {
        case 7:  // a deadline already past: every merge miss is deferred
          deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
          [[fallthrough]];
        case 0:
          changed_user = rng.below(n);
          channels[changed_user] = random_channels(rng, 1)[0];
          break;
        case 1: {
          if (f.exclude.empty()) f.exclude.assign(n, 0);
          auto& e = f.exclude[rng.below(n)];
          e = e ? 0 : 1;
          break;
        }
        case 2:
          if (!f.partition.empty()) {
            f.partition.clear();
          } else {
            f.partition.assign(n, 0);
            for (auto& ap : f.partition)
              ap = static_cast<std::uint8_t>(rng.below(2));
            f.partition[0] = 0;
            f.partition[1] = 1;  // at least one merge spans APs
          }
          break;
        case 3:
          f.cfg.rate_threshold = Mbps{f.cfg.rate_threshold.value > 0.0
                                          ? 0.0
                                          : rng.uniform(200.0, 1500.0)};
          break;
        case 4: {
          // Below the current cap (some merges drop) or back to the default.
          const std::size_t cap = std::min(f.cfg.max_group_size, n);
          f.cfg.max_group_size = cap > 1 ? 1 + rng.below(cap - 1) : 8;
          break;
        }
        case 5: {
          // One user joins or leaves, staying on the same generator.
          const bool grow = n == lo || (n < hi && rng.chance(0.5));
          n = grow ? n + 1 : n - 1;
          if (grow) {
            channels.push_back(random_channels(rng, 1)[0]);
          } else {
            channels.pop_back();
          }
          if (!f.exclude.empty()) f.exclude.resize(n, 0);
          if (!f.partition.empty()) f.partition.resize(n, 0);
          break;
        }
        case 6:
          cache.clear();
          break;
        default:
          break;
      }
      const std::string what = "step " + std::to_string(step) + " (change " +
                               std::to_string(change) + ", " +
                               std::to_string(n) + " users)";

      std::uint64_t before[kCounters];
      for (int c = 0; c < kCounters; ++c) before[c] = counters[c]->value();
      cache.enumerate_into(channels, codebook, f.cfg, f.who(), deadline,
                           rng.chance(0.5) ? &pool : nullptr, cached);
      std::uint64_t d[kCounters];
      for (int c = 0; c < kCounters; ++c)
        d[c] = counters[c]->value() - before[c];

      // The stateless reference (it bumps the anytime counters itself, so
      // it runs after the deltas are taken).
      const auto fresh = sched::enumerate_groups(
          scheme, channels, codebook, seed, f.cfg, nullptr, ws_fresh, f.who());
      if (d[kDeferred] == 0) {
        expect_same_groups(cached, fresh, what);
      } else {
        std::size_t c = 0;
        for (const sched::GroupSpec& g : fresh) {
          if (c < cached.size() && cached[c].mask == g.mask) {
            prop_assert(same_beam(cached[c].beam, g.beam),
                        what + ": beam bits differ");
            ++c;
            continue;
          }
          // Only merges miss the cache: those holding the changed user,
          // and (on the cluster tree, whose plan follows the channels)
          // ones the last call did not emit.
          prop_assert(std::popcount(g.mask) > 1 &&
                          (g.contains(changed_user) ||
                           !std::ranges::binary_search(emitted, g.mask)),
                      what + ": deferred a group the deadline cannot cut");
        }
        prop_assert(c == cached.size(), what + ": emitted an unknown group");
      }

      // What a full pass reads: the plan's counts, as a fresh cache's.
      sched::plan_candidates_into(scheme, channels, f.cfg, f.who(), ws_plan);
      const sched::CandidatePlan& plan = ws_plan.plan;
      prop_assert(d[kGenerated] == plan.generated &&
                      d[kPruned] == plan.pruned && d[kCapped] == plan.capped,
                  what + ": plan counters differ from a fresh pass");
      prop_assert(d[kHit] + d[kMiss] + d[kDeferred] == plan.masks.size(),
                  what + ": hit + miss + deferred != plan size");
      prop_assert(d[kBeamformed] == d[kMiss],
                  what + ": beamformed != cache misses");
      prop_assert(d[kDeadlineHits] == (d[kDeferred] > 0 ? 1u : 0u),
                  what + ": deadline hit count");
      const bool reuse = repeat && !last_deferred;
      prop_assert(d[kReused] == (reuse ? 1u : 0u),
                  what + (reuse ? ": a repeat was not reused"
                                : ": a changed pass was reused"));
      if (reuse)
        prop_assert(d[kMiss] == 0 && d[kHit] == plan.masks.size(),
                    what + ": a reused pass is not all hits");
      emitted.clear();
      for (const sched::GroupSpec& g : cached) emitted.push_back(g.mask);
      reused_calls += reuse ? 1 : 0;
      deferring_calls += d[kDeferred] > 0 ? 1 : 0;
      last_deferred = d[kDeferred] > 0;
    }
  });
  obs::set_enabled(false);
  EXPECT_GT(reused_calls, 0u) << "no pass was reused; property is vacuous";
  EXPECT_GT(deferring_calls, 0u) << "no pass deferred; property is vacuous";
}

// --- (b) Session-level bit-identity on a mobility trace ------------------

class BeamCacheSessionTest : public ::testing::Test {
 protected:
  static constexpr int kW = 256;
  static constexpr int kH = 144;

  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    core::PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    core::ensure_trained(*quality_, opts);
    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 3;
    spec.seed = 11;
    contexts_ = new std::vector<core::FrameContext>(core::make_contexts(
        video::SyntheticVideo(spec), 2, core::scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }

  static std::string run_json(std::size_t threads) {
    channel::MovingReceiverConfig mc;
    mc.n_users = 3;
    mc.moving = {true, true, false};  // two walkers, one static receiver
    mc.duration = 0.5;                // 5 beacons -> 15 frames
    mc.seed = 9;
    const channel::CsiTrace trace = channel::moving_receiver_trace(mc);

    core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
    cfg.seed = 17;
    cfg.mcs_margin_db = 1.0;
    ThreadPool::reset_shared(threads);
    core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
    const core::SessionReport report =
        core::run_trace(session, trace, *contexts_);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  }

  static model::QualityModel* quality_;
  static std::vector<core::FrameContext>* contexts_;
};

model::QualityModel* BeamCacheSessionTest::quality_ = nullptr;
std::vector<core::FrameContext>* BeamCacheSessionTest::contexts_ = nullptr;

TEST_F(BeamCacheSessionTest, CacheAndThreadsNeverChangeTheReport) {
  EXPECT_EQ(run_json(4), run_json(1)) << "threads changed the report";
  ThreadPool::reset_shared(0);  // restore the W4K_THREADS/default pool
}

}  // namespace
}  // namespace w4k
