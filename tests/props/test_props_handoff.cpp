// Property suite for multi-AP attachment and handoff.
//
// Handoff never breaks the books: on a 2-AP session with an arbitrary
// dwell, arbitrary AP outages and beacon losses, every pipeline
// invariant (airtime budget, exclusion, partition-pure grouping) still
// holds — the InvariantChecker runs in kThrow mode so any violation fails
// the property — and the report stays byte-identical across thread
// counts.
#include "channel/multi_ap.h"
#include "common/thread_pool.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "support/proptest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

namespace w4k {
namespace {

using proptest::prop_assert;

class HandoffPropertyTest : public ::testing::Test {
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

model::QualityModel* HandoffPropertyTest::quality_ = nullptr;
std::vector<core::FrameContext>* HandoffPropertyTest::contexts_ = nullptr;

constexpr int kFrames = 12;

struct Room {
  channel::MultiApGeometry geo;
  std::vector<std::vector<linalg::CVector>> stacks;
  std::vector<std::vector<double>> azimuths;
};

Room make_room(std::size_t n_aps, std::size_t n_users, Rng& rng) {
  Room room;
  channel::PropagationConfig prop;
  room.geo.prop = prop;
  room.geo.aps = channel::default_ap_layout(n_aps, prop.room);
  const auto users = core::place_users_fixed(
      n_users, rng.uniform(2.5, 4.5), 1.047, rng);
  room.stacks = channel::ap_channel_stacks(room.geo, users);
  room.azimuths = channel::ap_user_azimuths(room.geo, users);
  return room;
}

/// A plan that actually stresses attachment: total/sector AP outages plus
/// handoff-beacon losses, drawn from the extended random generator.
fault::FaultPlan stress_plan(std::uint64_t seed, std::size_t n_users) {
  fault::RandomPlanConfig rcfg;
  rcfg.n_aps = 2;
  rcfg.ap_outages = 2;
  rcfg.handoff_beacon_losses = 2;
  return fault::FaultPlan::random(seed, kFrames, n_users, rcfg);
}

std::string run_json(model::QualityModel& quality,
                     const std::vector<core::FrameContext>& contexts,
                     const Room& room, const core::SessionConfig& cfg,
                     const fault::FaultPlan& plan, std::size_t n_users) {
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  const fault::FaultInjector injector(plan, n_users, room.geo.n_aps());
  const core::SessionReport report = core::run_static(
      session, room.stacks, contexts, kFrames, &injector, room.azimuths);
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

core::SessionConfig base_config(std::uint64_t seed) {
  core::SessionConfig cfg = core::SessionConfig::scaled(256, 144);
  cfg.seed = seed;
  cfg.handoff.n_aps = 2;
  return cfg;
}

TEST_F(HandoffPropertyTest, InvariantsHoldAtAnyKnobSetting) {
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(3, opts.iterations / 10);
  const auto res = proptest::check_property(
      "core.handoff.invariants-any-knobs",
      [](Rng& rng) {
        const std::size_t n = 2 + rng.below(4);
        const std::uint64_t seed = rng.next();
        Room room = make_room(2, n, rng);
        fault::FaultPlan plan = stress_plan(rng.next(), n);
        // A blockage burst on top so handoff interacts with the ladder.
        fault::BlockageBurst burst;
        burst.start_frame = 1 + static_cast<std::uint32_t>(rng.below(4));
        burst.n_frames = 1 + static_cast<std::uint32_t>(rng.below(6));
        burst.user = rng.below(n);
        burst.extra_loss_db = rng.uniform(10.0, 40.0);
        plan.blockage.push_back(burst);

        core::SessionConfig cfg = base_config(seed);
        cfg.handoff.min_dwell_frames = 1 + static_cast<int>(rng.below(16));
        // kThrow is the test-build default: any invariant violation
        // (airtime budget, cross-AP group, scheduled-while-excluded)
        // throws out of run_static and fails the property.
        ThreadPool::reset_shared(1);
        const std::string got_1t =
            run_json(*quality_, *contexts_, room, cfg, plan, n);
        ThreadPool::reset_shared(4);
        const std::string got_4t =
            run_json(*quality_, *contexts_, room, cfg, plan, n);
        ThreadPool::reset_shared(0);
        prop_assert(got_1t == got_4t,
                    "thread count changed a handoff-enabled report");
      },
      opts);
  if (!res.passed) ADD_FAILURE() << res.message;
}

}  // namespace
}  // namespace w4k
