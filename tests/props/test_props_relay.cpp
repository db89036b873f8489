// Property suite for D2D peer relay.
//
// Two laws relaying must obey under ANY blockage / churn pattern:
//
//   1. The relay slot is not free airtime: relayed base-layer symbols are
//      charged against the same Eq. 1 frame budget as the AP's own
//      transmissions. Per frame, relay_airtime is a share of airtime and
//      total airtime never exceeds the frame budget (the engine's
//      emu.airtime-budget invariant also asserts this in kThrow mode —
//      the direct checks here pin the accounting shape, not just the
//      bound). Delivered symbols never exceed transmitted relay packets.
//   2. Relay removal is safe mid-stream: a relay_churn window silencing
//      the current relayer (or every candidate) at any frame must never
//      crash, violate an invariant, or change the report across thread
//      counts — the scheduler just picks another relayer or skips the
//      slot for the window.
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

class RelayPropertyTest : public ::testing::Test {
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

model::QualityModel* RelayPropertyTest::quality_ = nullptr;
std::vector<core::FrameContext>* RelayPropertyTest::contexts_ = nullptr;

constexpr int kFrames = 16;

core::SessionConfig relay_config(std::uint64_t seed) {
  core::SessionConfig cfg = core::SessionConfig::scaled(256, 144);
  cfg.seed = seed;
  cfg.relay.enabled = true;
  cfg.quarantine_after = 2;
  cfg.quarantine_reprobe_period = 4;
  return cfg;
}

/// Persistent unseen blockage of one user — the pattern that drives
/// quarantine (scheduled at full MCS off held CSI, decodes nothing) and
/// thereby makes the user a relay target — plus random relay churn.
fault::FaultPlan relay_plan(Rng& rng, std::size_t n_users,
                            std::size_t churn_events) {
  fault::FaultPlan plan;
  fault::BlockageBurst burst;
  burst.start_frame = 1 + static_cast<std::uint32_t>(rng.below(2));
  burst.n_frames = static_cast<std::uint32_t>(kFrames);  // never lifts
  burst.user = rng.below(n_users);
  burst.extra_loss_db = rng.uniform(32.0, 45.0);
  plan.blockage.push_back(burst);
  for (std::uint32_t f = burst.start_frame; f < kFrames; ++f)
    plan.csi.push_back({f, /*corrupt=*/false});
  for (std::size_t i = 0; i < churn_events; ++i) {
    fault::RelayChurn churn;
    churn.start_frame = static_cast<std::uint32_t>(rng.below(kFrames));
    churn.n_frames = 1 + static_cast<std::uint32_t>(rng.below(6));
    churn.user = rng.below(n_users);
    plan.relay_churn.push_back(churn);
  }
  return plan;
}

core::SessionReport run_report(model::QualityModel& quality,
                               const std::vector<core::FrameContext>& contexts,
                               const std::vector<linalg::CVector>& channels,
                               const core::SessionConfig& cfg,
                               const fault::FaultPlan& plan,
                               std::size_t n_users) {
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  const fault::FaultInjector injector(plan, n_users);
  return core::run_static(session, {channels}, contexts, kFrames, &injector);
}

std::string to_json(const core::SessionReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

TEST_F(RelayPropertyTest, RelayedSymbolsRespectAirtimeBudget) {
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(3, opts.iterations / 10);
  std::size_t total_relayed = 0;
  const auto res = proptest::check_property(
      "core.relay.airtime-budget",
      [&total_relayed](Rng& rng) {
        const std::size_t n = 3 + rng.below(3);  // 3..5 users
        const core::SessionConfig cfg = relay_config(rng.next());
        channel::PropagationConfig prop;
        const auto channels = core::channels_for(
            prop,
            core::place_users_fixed(n, rng.uniform(2.5, 4.0), 1.047, rng));
        const fault::FaultPlan plan = relay_plan(rng, n, /*churn_events=*/0);
        const core::SessionReport report =
            run_report(*quality_, *contexts_, channels, cfg, plan, n);
        for (std::size_t f = 0; f < report.frames(); ++f) {
          const auto& st = report.frame(f).stats;
          prop_assert(st.relay_airtime >= 0.0,
                      "negative relay airtime");
          prop_assert(st.relay_airtime <= st.airtime + 1e-12,
                      "relay airtime exceeds total charged airtime");
          prop_assert(st.airtime <= kFrameBudget + 1e-12,
                      "airtime (incl. relay slots) exceeds frame budget");
          prop_assert(
              report.frame(f).relayed_symbols <= st.relay_packets,
              "more symbols delivered via relay than relay packets sent");
          total_relayed += report.frame(f).relayed_symbols;
        }
      },
      opts);
  if (!res.passed) ADD_FAILURE() << res.message;
  // Non-vacuity, in aggregate: relaying may legitimately be squeezed out
  // of an individual draw (a fully-packed schedule leaves no budget slack
  // for relay slots), but across the sweep it must have happened — else
  // every bound above was checked against zeros. Skipped on single-seed
  // replay, where one budget-packed draw is expected.
  if (!opts.has_replay_seed) {
    EXPECT_GT(total_relayed, 0u)
        << "no iteration of the sweep ever relayed a symbol";
  }
}

TEST_F(RelayPropertyTest, RelayChurnNeverCrashesAndStaysDeterministic) {
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(3, opts.iterations / 10);
  const auto res = proptest::check_property(
      "core.relay.churn-safe",
      [](Rng& rng) {
        const std::size_t n = 3 + rng.below(3);
        const core::SessionConfig cfg = relay_config(rng.next());
        channel::PropagationConfig prop;
        const auto channels = core::channels_for(
            prop,
            core::place_users_fixed(n, rng.uniform(2.5, 4.0), 1.047, rng));
        // 1..4 churn windows, any of which may silence the active relayer
        // mid-stream (kThrow invariants catch any bookkeeping damage).
        const fault::FaultPlan plan =
            relay_plan(rng, n, 1 + rng.below(4));
        ThreadPool::reset_shared(1);
        const std::string got_1t = to_json(
            run_report(*quality_, *contexts_, channels, cfg, plan, n));
        ThreadPool::reset_shared(4);
        const std::string got_4t = to_json(
            run_report(*quality_, *contexts_, channels, cfg, plan, n));
        ThreadPool::reset_shared(0);
        prop_assert(got_1t == got_4t,
                    "thread count changed a relay-churn report");
      },
      opts);
  if (!res.passed) ADD_FAILURE() << res.message;
}

}  // namespace
}  // namespace w4k
