// Property suite: the Eq. 1 optimizer's incremental refine against the
// full-recompute oracle (tests/support/alloc_oracle.h), bit for bit.
//
// Problems have 2-12 users: small random group sets, and crowd-shaped ones
// with ~1k groups of up to 8 members. Rates include zero-rate groups and
// layers so small that every member saturates them. Each problem runs cold
// and then from one warm start of three kinds: a perturbed optimum (the
// accepted fast path), a plan that leaves a user unserved (falls back to
// the multi-start), and a top-layer-only plan with a frozen step schedule
// (loses to the round-robin floor, falls back).
#include "core/frame_context.h"
#include "core/pretrained.h"
#include "obs/metrics.h"
#include "sched/allocate.h"
#include "support/alloc_oracle.h"
#include "support/proptest.h"
#include "video/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

namespace w4k {
namespace {

using proptest::prop_assert;

template <typename T>
void assert_same_bits(const T& got, const T& want, const std::string& what) {
  if (std::memcmp(&got, &want, sizeof got) != 0)
    throw proptest::PropertyFailure(what + ": differs from the oracle");
}

void assert_same_allocation(const sched::Allocation& got,
                            const sched::Allocation& want,
                            const std::string& what) {
  prop_assert(got.group_count() == want.group_count() &&
                  got.user_count() == want.user_count(),
              what + ": shape differs from the oracle");
  for (std::size_t g = 0; g < got.group_count(); ++g) {
    assert_same_bits(got.time(g), want.time(g),
                     what + " time[" + std::to_string(g) + "]");
    assert_same_bits(got.bytes(g), want.bytes(g),
                     what + " bytes[" + std::to_string(g) + "]");
  }
  for (std::size_t u = 0; u < got.user_count(); ++u)
    assert_same_bits(got.user_bytes(u), want.user_bytes(u),
                     what + " user_bytes[" + std::to_string(u) + "]");
  prop_assert(got.predicted_ssim.size() == want.predicted_ssim.size(),
              what + ": predicted_ssim size differs from the oracle");
  for (std::size_t u = 0; u < got.predicted_ssim.size(); ++u)
    assert_same_bits(got.predicted_ssim[u], want.predicted_ssim[u],
                     what + " predicted_ssim[" + std::to_string(u) + "]");
  assert_same_bits(got.objective, want.objective, what + " objective");
  if (got.iterations != want.iterations) {
    std::ostringstream os;
    os << what << " iterations: " << got.iterations << " != oracle "
       << want.iterations;
    throw proptest::PropertyFailure(os.str());
  }
}

/// A problem with its own group storage (AllocProblem::groups is a span).
struct OwnedProblem {
  std::vector<sched::GroupSpec> groups;
  sched::AllocProblem p;
};

/// `size` distinct users out of `n_users`, ascending.
sched::GroupMask random_mask(Rng& rng, std::size_t n_users,
                             std::size_t size) {
  std::vector<std::size_t> pool(n_users);
  for (std::size_t u = 0; u < n_users; ++u) pool[u] = u;
  for (std::size_t k = 0; k < size; ++k)
    std::swap(pool[k], pool[k + rng.below(n_users - k)]);
  sched::GroupMask mask = 0;
  for (std::size_t k = 0; k < size; ++k) mask |= sched::GroupMask{1} << pool[k];
  return mask;
}

std::unique_ptr<OwnedProblem> random_problem(
    Rng& rng, const sched::FrameContent& content) {
  auto out = std::make_unique<OwnedProblem>();
  const bool crowd = rng.chance(0.12);
  const std::size_t n_users = crowd ? 12 : 2 + rng.below(11);
  const std::size_t n_groups =
      crowd ? 900 + rng.below(200) : 1 + rng.below(40);
  sched::AllocProblem& p = out->p;
  p.n_users = n_users;
  p.content = content;
  // Saturated layers: a layer small enough that any airtime fills it.
  for (std::size_t j = 0; j < video::kNumLayers; ++j)
    if (rng.chance(0.15))
      p.content.layer_bytes[j] = rng.chance(0.3) ? 0.0 : rng.uniform(1, 2000);
  if (rng.chance(0.2)) p.lambda = rng.chance(0.5) ? 0.0 : 1e-6;
  double total_bytes = 0.0;
  for (double b : p.content.layer_bytes) total_bytes += b;
  // Rates around the one that fills every layer in one budget.
  const double fill_mbps =
      std::max(1.0, total_bytes) * 8.0 / 1e6 / p.time_budget;
  for (std::size_t g = 0; g < n_groups; ++g) {
    sched::GroupSpec spec;
    const std::size_t size =
        1 + rng.below(std::min<std::size_t>(8, n_users));
    spec.mask = random_mask(rng, n_users, size);
    spec.beam.rate =
        Mbps{rng.chance(0.08) ? 0.0 : fill_mbps * rng.uniform(0.05, 2.0)};
    spec.beam.min_rss = Dbm{-50.0};
    out->groups.push_back(std::move(spec));
  }
  p.groups = out->groups;
  return out;
}

std::vector<double> flatten(const sched::Allocation& a) {
  std::vector<double> t;
  for (const auto& row : a.time_rows())
    t.insert(t.end(), row.begin(), row.end());
  return t;
}

class PropsAllocOracle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    core::PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    core::ensure_trained(*quality_, opts);
    video::VideoSpec spec;
    spec.width = 256;
    spec.height = 144;
    spec.frames = 1;
    spec.seed = 7;
    const video::SyntheticVideo clip(spec);
    content_ = new sched::FrameContent(
        core::make_frame_context(clip.frame(0), nullptr,
                                 core::scaled_symbol_size(256, 144))
            .content);
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete content_;
    quality_ = nullptr;
    content_ = nullptr;
  }

  static model::QualityModel* quality_;
  static sched::FrameContent* content_;
};

model::QualityModel* PropsAllocOracle::quality_ = nullptr;
sched::FrameContent* PropsAllocOracle::content_ = nullptr;

TEST_F(PropsAllocOracle, ColdAndRoundRobinMatchOracleBitForBit) {
  // One scratch across every case, as a frame loop keeps it: what one
  // call leaves in it must never reach the next call's result.
  sched::AllocScratch scratch;
  W4K_PROP("sched.alloc-oracle-cold", [&](Rng& rng) {
    const auto owned = random_problem(rng, *content_);
    const sched::AllocProblem& p = owned->p;
    sched::OptimizerConfig cfg;
    if (rng.chance(0.3))
      cfg.max_iterations = 20 + static_cast<int>(rng.below(200));
    if (rng.chance(0.3)) cfg.initial_step = rng.uniform(1e-4, 5e-3);
    sched::Allocation got;
    sched::optimize_allocation_into(p, *quality_, scratch, got, cfg);
    assert_same_allocation(
        got, oracle::optimize_allocation_full(p, *quality_, cfg), "cold");
    sched::round_robin_allocation_into(p, *quality_, scratch, got);
    assert_same_allocation(
        got, oracle::round_robin_allocation_full(p, *quality_), "round robin");
  });
}

TEST_F(PropsAllocOracle, WarmStartsMatchOracleBitForBit) {
  // The warm-start counters tell which path each case took; every kind
  // must actually exercise its path somewhere in the run.
  obs::set_enabled(true);
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& hits = reg.counter("sched.warm_start.hits");
  obs::Counter& fallbacks = reg.counter("sched.warm_start.fallbacks");
  int accepted = 0, unserved = 0, floor_lost = 0;
  sched::AllocScratch scratch;
  W4K_PROP("sched.alloc-oracle-warm", [&](Rng& rng) {
    const auto owned = random_problem(rng, *content_);
    const sched::AllocProblem& p = owned->p;
    const std::size_t dims = p.groups.size() * video::kNumLayers;
    sched::OptimizerConfig cfg;
    sched::Allocation cold;
    sched::optimize_allocation_into(p, *quality_, scratch, cold, cfg);
    std::vector<double> warm = flatten(cold);
    const std::uint64_t kind = rng.below(3);
    if (kind == 0) {
      // The previous frame's optimum, moved a little.
      for (double& x : warm)
        x = rng.chance(0.1) ? 0.0 : x * rng.uniform(0.5, 1.5);
    } else if (kind == 1) {
      // Every group of some grouped user at zero airtime.
      for (double& x : warm) x = rng.uniform(0.0, 1e-3);
      const auto u = static_cast<std::size_t>(
          std::countr_zero(p.groups[rng.below(p.groups.size())].mask));
      for (std::size_t g = 0; g < p.groups.size(); ++g)
        if (p.groups[g].contains(u))
          for (std::size_t j = 0; j < video::kNumLayers; ++j)
            warm[g * video::kNumLayers + j] = 0.0;
    } else {
      // Top layer only, and a step schedule that barely moves it.
      std::fill(warm.begin(), warm.end(), 0.0);
      for (std::size_t i = video::kNumLayers - 1; i < dims;
           i += video::kNumLayers)
        warm[i] = p.time_budget / static_cast<double>(p.groups.size());
      cfg.initial_step = 1e-7;
      cfg.min_step = 1e-7;
    }
    const std::uint64_t hits0 = hits.value(), fallbacks0 = fallbacks.value();
    sched::Allocation got;
    sched::optimize_allocation_into(p, *quality_, scratch, got, cfg, &warm);
    const bool hit = hits.value() > hits0;
    const bool fell_back = fallbacks.value() > fallbacks0;
    if (kind == 0 && hit) ++accepted;
    if (kind == 1) {
      prop_assert(fell_back && !hit, "unserved warm start was not rejected");
      ++unserved;
    }
    if (kind == 2 && fell_back) ++floor_lost;
    assert_same_allocation(
        got, oracle::optimize_allocation_full(p, *quality_, cfg, &warm),
        "warm kind " + std::to_string(kind));
  });
  obs::set_enabled(false);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(unserved, 0);
  EXPECT_GT(floor_lost, 0);
}

}  // namespace
}  // namespace w4k
