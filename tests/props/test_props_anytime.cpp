// Property suite: the anytime scheduler's two contracts.
//
// (a) Feasibility under any deadline: with decide_deadline_ms set to
//     anything >= 1 ms, decide_into() still yields a plan in which every
//     reachable user is a member of some candidate group AND receives
//     positive airtime — the singleton prefix and coverage repair
//     guarantee base-layer service no matter how hard the clock cuts.
// (b) Purity of the hierarchical path: past the cluster-tree threshold
//     (N > 12) the candidate plan is still a pure function of the inputs,
//     so stateless/pooled/cached enumeration stay bit-identical, and the
//     full session report is byte-stable across thread counts.
#include "channel/mobility.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "sched/beam_cache.h"
#include "sched/workspace.h"
#include "support/proptest.h"

#include <gtest/gtest.h>

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

// (b) Hierarchical candidate generation is pure: for any N past the
// threshold, stateless serial, stateless pooled, and cached enumeration
// (under CSI churn) produce bit-identical group sets.
TEST(PropsAnytime, HierarchicalEnumerationPureAcrossCacheAndPool) {
  W4K_PROP("sched.anytime.hierarchical-purity", [](Rng& rng) {
    const std::size_t n = 13 + rng.below(8);  // 13..20: cluster-tree path
    const std::uint64_t seed = rng.next();
    const auto scheme = beamforming::Scheme::kOptimizedMulticast;
    sched::BeamCache cache(scheme, seed);
    ThreadPool pool(3);
    auto channels = random_channels(rng, n);
    for (int step = 0; step < 3; ++step) {
      for (std::size_t u = 0; u < n; ++u)
        if (rng.chance(0.3)) {
          channel::PropagationConfig prop;
          channels[u] = channel::make_channel(
              prop, channel::Position::from_polar(rng.uniform(2.5, 10.0),
                                                  rng.uniform(-0.8, 0.8)));
        }
      const sched::GroupEnumConfig cfg;  // threshold 12 -> hierarchical
      // Two separate workspaces: each span stays valid until the next
      // enumeration on its own workspace, so both can be compared with the
      // cache's output.
      sched::SchedWorkspace ws_serial, ws_pooled;
      std::vector<sched::GroupSpec> cached;
      const auto serial =
          sched::enumerate_groups(scheme, channels, beamforming::Codebook{},
                                  seed, cfg, nullptr, ws_serial);
      const auto pooled =
          sched::enumerate_groups(scheme, channels, beamforming::Codebook{},
                                  seed, cfg, &pool, ws_pooled);
      cache.enumerate_into(channels, beamforming::Codebook{}, cfg, {}, {},
                           rng.chance(0.5) ? &pool : nullptr, cached);
      expect_same_groups(serial, pooled,
                         "pooled, step " + std::to_string(step));
      expect_same_groups(serial, cached,
                         "cached, step " + std::to_string(step));
      prop_assert(!serial.empty(), "hierarchical path emitted nothing");
    }
  });
}

// --- Session-level fixture (shared trained model + contexts) -------------

class AnytimeSessionTest : public ::testing::Test {
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

  static model::QualityModel* quality_;
  static std::vector<core::FrameContext>* contexts_;
};

model::QualityModel* AnytimeSessionTest::quality_ = nullptr;
std::vector<core::FrameContext>* AnytimeSessionTest::contexts_ = nullptr;

// (a) Any deadline >= 1 ms still yields a feasible, covering plan: the
// schedule fits the frame budget, every user sits in at least one emitted
// group, and every grouped user gets positive airtime (coverage repair).
TEST_F(AnytimeSessionTest, DeadlineBoundedDecideAlwaysServesEveryUser) {
  W4K_PROP("sched.anytime.deadline-feasibility", [](Rng& rng) {
    const std::size_t n = 2 + rng.below(23);  // 2..24 users
    core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
    cfg.seed = rng.next();
    cfg.mcs_margin_db = 1.0;
    cfg.decide_deadline_ms = rng.uniform(1.0, 5.0);
    core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
    const auto channels = random_channels(rng, n);
    const std::vector<std::uint8_t> exclude(n, 0);
    core::MulticastSession::Decision d;
    session.decide_into(channels, contexts_->front(), exclude, d);

    prop_assert(!d.groups.empty(), "deadline produced an empty plan");
    double total_time = 0.0;
    for (const auto& layers : d.allocation.time_rows())
      for (double t : layers) {
        prop_assert(t >= 0.0, "negative airtime");
        total_time += t;
      }
    prop_assert(total_time <= 33.4e-3, "schedule exceeds the frame budget");

    for (std::size_t u = 0; u < n; ++u) {
      bool grouped = false;
      for (const auto& g : d.groups) grouped |= g.contains(u);
      prop_assert(grouped, "user " + std::to_string(u) +
                               " in no group under deadline");
      double served = 0.0;
      for (double b : d.allocation.user_bytes(u)) served += b;
      prop_assert(served > 0.0, "user " + std::to_string(u) +
                                    " got zero airtime under deadline");
    }
  });
}

// (b) With the deadline disabled, the full session report at N=14 (deep in
// hierarchical territory) is byte-identical across 1/4 worker threads —
// the purity contract survives the new generator.
TEST_F(AnytimeSessionTest, HierarchicalSessionReportByteStable) {
  const auto run_json = [](model::QualityModel& quality,
                           const std::vector<core::FrameContext>& contexts,
                           std::size_t threads) {
    channel::MovingReceiverConfig mc;
    mc.n_users = 14;
    mc.moving.assign(14, false);
    mc.moving[0] = true;  // one walker
    mc.duration = 0.3;    // 3 beacons -> 9 frames
    mc.seed = 23;
    const channel::CsiTrace trace = channel::moving_receiver_trace(mc);

    core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
    cfg.seed = 29;
    cfg.mcs_margin_db = 1.0;
    ThreadPool::reset_shared(threads);
    core::MulticastSession session(cfg, quality, beamforming::Codebook{});
    const core::SessionReport report =
        core::run_trace(session, trace, contexts);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  EXPECT_EQ(run_json(*quality_, *contexts_, 4),
            run_json(*quality_, *contexts_, 1))
      << "threads changed the hierarchical report";
  ThreadPool::reset_shared(0);
}

}  // namespace
}  // namespace w4k
