// The zero-allocation frame-path gate (DESIGN.md Sec. 4g).
//
// Under `cmake -DW4K_COUNT_ALLOCS=ON` the global operator new/delete are
// counted (all threads, including ThreadPool workers). These tests pin the
// contract: after a 3-frame warmup has sized every workspace,
// MulticastSession::step_into performs ZERO heap allocations per frame —
// on the pinned static 4-user placement, on a mobility trace whose
// channels churn every beacon, and through the fault paths. In a normal build the counters
// are inert, so the gate skips instead of reporting a vacuous pass.
#include "common/alloc_count.h"

#include "channel/mobility.h"
#include "channel/multi_ap.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "linalg/decompose.h"
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;
constexpr int kWarmupFrames = 3;

class AllocGateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    ensure_trained(*quality_, opts);

    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 4;
    spec.richness = video::Richness::kHigh;
    spec.seed = 11;
    contexts_ = new std::vector<FrameContext>(make_contexts(
        video::SyntheticVideo(spec), 3, scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }

  static model::QualityModel* quality_;
  static std::vector<FrameContext>* contexts_;
};

model::QualityModel* AllocGateTest::quality_ = nullptr;
std::vector<FrameContext>* AllocGateTest::contexts_ = nullptr;

// Sanity check of the instrument itself: a deliberate heap allocation
// inside a Scope must trip the counter. Without this, a broken counter
// (say, an operator-new override that never got linked) would make every
// zero-allocation assertion below pass vacuously.
TEST(AllocCount, GateTripsOnDeliberateAllocation) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";
  const alloc_count::Scope scope;
  auto* p = new std::vector<double>(1024, 0.5);
  EXPECT_GT(scope.taken(), 0u) << "operator-new override not counting";
  const std::uint64_t before_delete = alloc_count::deallocations();
  delete p;
  EXPECT_GT(alloc_count::deallocations(), before_delete);
}

// Static 4-user scenario: pinned placement (the Fig. 4a testbed geometry),
// fresh CSI every frame. After warmup, every step must be allocation-free.
TEST_F(AllocGateTest, StaticFourUsersZeroAllocsPerFrameAfterWarmup) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";

  Rng rng(5);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(4, 3.0, 1.047, rng));
  MulticastSession session(SessionConfig::scaled(kW, kH), *quality_,
                           beamforming::Codebook{});
  const fault::FrameFaults no_faults;
  FrameOutcome outcome;
  for (int f = 0; f < 12; ++f) {
    const FrameContext& ctx =
        (*contexts_)[static_cast<std::size_t>(f) % contexts_->size()];
    const alloc_count::Scope scope;
    session.step_into(channels, channels, ctx, no_faults, outcome);
    if (f >= kWarmupFrames) {
      EXPECT_EQ(scope.taken(), 0u)
          << "frame " << f << " of the static4 scenario hit the heap";
    }
  }
}

// Mobility scenario: two walkers, CSI changing every beacon — the
// decide_into() path re-beamforms on each beacon frame, reuses the cached
// pass on the two frames that share its CSI (the sched.beam_cache.reused
// counter shows it), where the session keeps each group's air parameters
// (session.air.kept), and re-optimizes each frame, and the engine sees
// different loss patterns. Still zero heap traffic after warmup.
// Telemetry is on (aggregation only) for those counters.
TEST_F(AllocGateTest, MobileTraceZeroAllocsPerFrameAfterWarmup) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";

  channel::MovingReceiverConfig mc;
  mc.n_users = 2;
  mc.duration = 0.5;  // 5 beacons -> 15 frames at 3 frames/beacon
  mc.seed = 9;
  const channel::CsiTrace trace = channel::moving_receiver_trace(mc);
  ASSERT_GT(trace.steps(), 1u);

  obs::set_enabled(true);
  obs::Counter& reused =
      obs::MetricsRegistry::global().counter("sched.beam_cache.reused");
  obs::Counter& kept =
      obs::MetricsRegistry::global().counter("session.air.kept");
  MulticastSession session(SessionConfig::scaled(kW, kH), *quality_,
                           beamforming::Codebook{});
  const fault::FrameFaults no_faults;
  FrameOutcome outcome;
  int frame = 0;
  std::uint64_t measured_reuses = 0;
  std::uint64_t measured_kept = 0;
  for (std::size_t t = 0; t < trace.steps(); ++t) {
    // One-beacon CSI staleness, exactly like run_trace.
    const auto& truth = trace.snapshots[t];
    const auto& decision = trace.snapshots[t > 0 ? t - 1 : 0];
    for (int k = 0; k < 3; ++k, ++frame) {
      const FrameContext& ctx =
          (*contexts_)[static_cast<std::size_t>(frame) % contexts_->size()];
      const std::uint64_t reused_before = reused.value();
      const std::uint64_t kept_before = kept.value();
      const alloc_count::Scope scope;
      session.step_into(decision, truth, ctx, no_faults, outcome);
      if (frame >= kWarmupFrames) {
        EXPECT_EQ(scope.taken(), 0u)
            << "frame " << frame << " of the mobile scenario hit the heap";
        measured_reuses += reused.value() - reused_before;
        measured_kept += kept.value() - kept_before;
      }
    }
  }
  obs::set_enabled(false);
  EXPECT_GT(measured_reuses, 0u)
      << "no measured frame reused the beam cache's pass; gate is vacuous";
  EXPECT_GT(measured_kept, 0u)
      << "no measured frame kept a group's air parameters; gate is vacuous";
}

// Crowd scenario: 12 users (the hierarchy threshold, so the exhaustive
// lattice of ~3.8k subsets runs), two of them walking. Each beacon
// re-beamforms every subset holding a walker through the subset-lane
// kernel — lanes bucketed by member count, refilled as they converge —
// and that must stay off the heap too. As the walkers move, the number of
// groups that clear the rate filter reaches new highs, and the group pool,
// beam cache and allocator grow to each new high. So warmup here is one
// pass over the walk, and the gate measures a second pass of the same
// walk: every beacon again re-beamforms the walkers' subsets, and the two
// frames after it re-emit the cached pass. Telemetry is on (aggregation
// only) so the sched.beamform.lane_subsets counter can show that the
// measured beacons really ran on lanes, and sched.beam_cache.reused and
// session.air.kept that the measured non-beacon frames really took the
// reuse path and kept the groups' air parameters.
TEST_F(AllocGateTest, CrowdTwoWalkersZeroAllocsPerFrameAfterWarmup) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";

  channel::MovingReceiverConfig mc;
  mc.n_users = 12;
  mc.moving.assign(mc.n_users, false);
  mc.moving[0] = mc.moving[1] = true;
  mc.min_distance = 2.5;
  mc.max_distance = 7.5;
  mc.duration = 0.4;  // 4 beacons -> 12 frames at 3 frames/beacon
  mc.seed = 4;
  const channel::CsiTrace trace = channel::moving_receiver_trace(mc);
  ASSERT_GT(trace.steps(), 3u);

  obs::set_enabled(true);
  obs::Counter& lanes =
      obs::MetricsRegistry::global().counter("sched.beamform.lane_subsets");
  obs::Counter& reused =
      obs::MetricsRegistry::global().counter("sched.beam_cache.reused");
  obs::Counter& kept =
      obs::MetricsRegistry::global().counter("session.air.kept");
  MulticastSession session(SessionConfig::scaled(kW, kH), *quality_,
                           beamforming::Codebook{});
  const fault::FrameFaults no_faults;
  FrameOutcome outcome;
  int frame = 0;
  std::uint64_t measured_lanes = 0;
  std::uint64_t measured_reuses = 0;
  std::uint64_t measured_kept = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t t = 0; t < trace.steps(); ++t) {
      const auto& truth = trace.snapshots[t];
      const auto& decision = trace.snapshots[t > 0 ? t - 1 : 0];
      for (int k = 0; k < 3; ++k, ++frame) {
        const FrameContext& ctx =
            (*contexts_)[static_cast<std::size_t>(frame) % contexts_->size()];
        const std::uint64_t lanes_before = lanes.value();
        const std::uint64_t reused_before = reused.value();
        const std::uint64_t kept_before = kept.value();
        const alloc_count::Scope scope;
        session.step_into(decision, truth, ctx, no_faults, outcome);
        if (pass == 1) {
          EXPECT_EQ(scope.taken(), 0u)
              << "frame " << frame << " of the crowd scenario hit the heap";
          measured_lanes += lanes.value() - lanes_before;
          measured_reuses += reused.value() - reused_before;
          measured_kept += kept.value() - kept_before;
        }
      }
    }
  }
  obs::set_enabled(false);
  if (linalg::subset_lane_width(gf256::active_tier()) > 1) {
    EXPECT_GT(measured_lanes, 0u)
        << "no measured beacon ran on the subset lanes; gate is vacuous";
  }
  EXPECT_GT(measured_reuses, 0u)
      << "no measured frame reused the beam cache's pass; gate is vacuous";
  EXPECT_GT(measured_kept, 0u)
      << "no measured frame kept a group's air parameters; gate is vacuous";
}

// Fault-path scenario: one AP, four users, and a hand-built plan in which
// a lost feedback report, a user leaving and rejoining, and a budget
// collapse each fire once inside the warmup window and once more inside
// the measured window. The engine fault state (feedback-lost mask, blind
// makeup fractions) and the shed plan are sized on the first occurrence,
// so the second must be heap-free. Telemetry is on (aggregation only) so
// the session's silent-user counter can show that the measured loss was
// really seen.
TEST_F(AllocGateTest, FaultPathZeroAllocsPerFrameAfterWarmup) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";

  constexpr std::size_t kUsers = 4;
  constexpr int kFrames = 18;
  constexpr int kFaultWarmup = 8;
  constexpr std::uint32_t kLossFrames[] = {2, 10};
  constexpr std::uint32_t kCollapseFrames[] = {3, 11};
  constexpr std::uint32_t kLeaveFrames[] = {5, 13};

  Rng rng(5);
  channel::PropagationConfig prop;
  const auto channels =
      channels_for(prop, place_users_fixed(kUsers, 3.0, 1.047, rng));
  fault::FaultPlan plan;
  for (std::uint32_t f : kLossFrames) plan.feedback.push_back({f, 1, -1});
  for (std::uint32_t f : kCollapseFrames) plan.budget.push_back({f, 1, 0.2});
  for (std::uint32_t f : kLeaveFrames) {
    plan.churn.push_back({f, 2, /*join=*/false});
    plan.churn.push_back({f + 1, 2, /*join=*/true});
  }
  const fault::FaultInjector injector(plan, kUsers);

  obs::set_enabled(true);
  obs::Counter& silent = obs::MetricsRegistry::global().counter(
      "session.feedback_silent_users");
  MulticastSession session(SessionConfig::scaled(kW, kH), *quality_,
                           beamforming::Codebook{});
  FrameOutcome outcome;
  fault::FrameFaults faults;
  std::uint64_t measured_silent = 0;
  std::size_t measured_shed = 0;
  std::size_t measured_absent = 0;
  for (int f = 0; f < kFrames; ++f) {
    const FrameContext& ctx =
        (*contexts_)[static_cast<std::size_t>(f) % contexts_->size()];
    const auto frame_id = static_cast<std::uint32_t>(f);
    const std::uint64_t silent_before = silent.value();
    const alloc_count::Scope scope;
    injector.at_into(frame_id, faults);
    session.step_into(channels, channels, ctx, faults, outcome);
    if (f < kFaultWarmup) continue;
    EXPECT_EQ(scope.taken(), 0u)
        << "frame " << f << " of the fault-path scenario hit the heap";
    if (frame_id == kLossFrames[1])
      measured_silent += silent.value() - silent_before;
    measured_shed += outcome.shed_symbols;
    if (!outcome.user_present.empty() && !outcome.user_present[2])
      ++measured_absent;
  }
  obs::set_enabled(false);
  EXPECT_GT(measured_silent, 0u) << "no measured feedback loss; gate is vacuous";
  EXPECT_GT(measured_shed, 0u) << "no measured shedding; gate is vacuous";
  EXPECT_GT(measured_absent, 0u) << "no measured churn; gate is vacuous";
}

// Multi-AP + relay scenario: 2-AP stacks through step_into, with a
// fault plan that lights up every new subsystem inside the warmup window
// and the measured window — a persistent unseen blockage quarantines user
// 3 (peer relay starts forwarding base-layer symbols by frame ~4), then a
// total AP-0 outage walks every user through the attachment ladder to a
// committed handoff mid-measurement. The attachment vectors, the per-AP
// RSS table, the effective-channel views, the relay link list, and the
// engine's relay ledger are all sized during warmup; after that, frames
// with active relaying AND an in-flight handoff must still be
// allocation-free.
TEST_F(AllocGateTest, MultiApRelayZeroAllocsPerFrameAfterWarmup) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";

  constexpr std::size_t kUsers = 4;
  constexpr int kFrames = 20;
  // Warmup covers the first relay-active frames (quarantine engages at
  // frame ~3), which size the relay ledger; the handoff beginning at
  // frame ~10 must then stay heap-free.
  constexpr int kMultiWarmup = 6;

  Rng rng(5);
  channel::PropagationConfig prop;
  channel::MultiApGeometry geo;
  geo.prop = prop;
  geo.aps = channel::default_ap_layout(2, prop.room);
  const auto users = place_users_fixed(kUsers, 3.0, 1.047, rng);
  const auto stacks = channel::ap_channel_stacks(geo, users);
  const auto azimuths = channel::ap_user_azimuths(geo, users);

  fault::FaultPlan plan;
  fault::BlockageBurst burst;
  burst.start_frame = 1;
  burst.n_frames = kFrames;
  burst.user = 3;
  burst.extra_loss_db = 35.0;
  plan.blockage.push_back(burst);
  for (std::uint32_t f = 1; f <= 8; ++f)
    plan.csi.push_back({f, /*corrupt=*/false});
  fault::ApOutage outage;
  outage.start_frame = 9;
  outage.n_frames = 8;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);

  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.handoff.n_aps = 2;
  cfg.handoff.min_dwell_frames = 4;
  cfg.relay.enabled = true;
  cfg.quarantine_after = 2;
  cfg.quarantine_reprobe_period = 4;
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});

  FrameOutcome outcome;
  fault::FrameFaults faults;
  std::vector<std::vector<linalg::CVector>> decision;
  std::vector<std::vector<linalg::CVector>> truth;
  std::size_t relay_frames = 0;
  std::size_t handoffs = 0;
  for (int f = 0; f < kFrames; ++f) {
    const FrameContext& ctx =
        (*contexts_)[static_cast<std::size_t>(f) % contexts_->size()];
    // The driver's stack copies and channel faults are outside the gate:
    // the contract covers resolving the frame's faults and the session
    // step.
    const auto frame_id = static_cast<std::uint32_t>(f);
    decision = stacks;
    truth = stacks;
    injector.apply(frame_id, decision, truth, azimuths);
    const alloc_count::Scope scope;
    injector.at_into(frame_id, faults);
    session.step_into(decision, truth, ctx, faults, outcome);
    if (f >= kMultiWarmup) {
      EXPECT_EQ(scope.taken(), 0u)
          << "frame " << f << " of the multi-AP relay scenario hit the heap";
    }
    if (outcome.relayed_symbols > 0) ++relay_frames;
    handoffs += outcome.handoffs;
  }
  // The gate is only meaningful if the scenario actually exercised both
  // new paths.
  EXPECT_GT(relay_frames, 0u) << "relay never engaged; gate is vacuous";
  EXPECT_GT(handoffs, 0u) << "no handoff committed; gate is vacuous";
}

}  // namespace
}  // namespace w4k::core
