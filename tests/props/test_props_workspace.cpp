// Property suite: the zero-allocation frame path is an implementation
// detail, not a behavior change.
//
// Reusing one FrameOutcome across every frame (as the session's own frame
// loop does, together with its internal workspaces) must produce a
// byte-identical SessionReport to handing step_into a fresh FrameOutcome
// every frame — i.e. a reused outcome carries nothing over from the
// previous frame — for any placement, across W4K_THREADS 1 and 4, and
// with the decide deadline off (single-batch enumeration, zero clock
// reads) and on (batched enumeration with clock checks between batches;
// the bound is generous so no candidate is ever cut and the output stays
// deterministic). Two sessions interleaved on one thread must not see
// each other either.
#include "common/thread_pool.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "support/proptest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

namespace w4k {
namespace {

using proptest::prop_assert;

class WorkspaceEquivalenceTest : public ::testing::Test {
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

model::QualityModel* WorkspaceEquivalenceTest::quality_ = nullptr;
std::vector<core::FrameContext>* WorkspaceEquivalenceTest::contexts_ = nullptr;

constexpr int kFrames = 4;

core::SessionConfig make_config(std::uint64_t seed, double deadline_ms) {
  core::SessionConfig cfg = core::SessionConfig::scaled(256, 144);
  cfg.seed = seed;
  cfg.decide_deadline_ms = deadline_ms;
  return cfg;
}

// Reuse path: run_static drives step_into with one hoisted FrameOutcome,
// so every session workspace and scratch buffer is recycled across frames.
std::string run_reused(model::QualityModel& quality,
                       const std::vector<core::FrameContext>& contexts,
                       const std::vector<linalg::CVector>& channels,
                       const core::SessionConfig& cfg) {
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  const core::SessionReport report =
      core::run_static(session, {channels}, contexts, kFrames);
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

// Fresh path: step_into writes every frame into a newly constructed
// FrameOutcome, so nothing can leak from the previous frame's outcome.
std::string run_fresh(model::QualityModel& quality,
                      const std::vector<core::FrameContext>& contexts,
                      const std::vector<linalg::CVector>& channels,
                      const core::SessionConfig& cfg) {
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  core::SessionReport report;
  for (int f = 0; f < kFrames; ++f) {
    const core::FrameContext& ctx =
        contexts[static_cast<std::size_t>(f) % contexts.size()];
    core::FrameOutcome out;
    session.step_into(channels, channels, ctx, fault::FrameFaults{}, out);
    report.add(out);
  }
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

TEST_F(WorkspaceEquivalenceTest, ReusedAndFreshPathsByteIdentical) {
  // Each iteration runs eight full sessions (2 deadlines x 2 thread counts
  // x reused/fresh outcome), so scale the iteration count down by 10x from the
  // W4K_PROP_ITERS baseline — the env knob still raises it proportionally.
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(3, opts.iterations / 10);
  const auto res = proptest::check_property(
      "core.workspace.report-equivalence",
      [](Rng& rng) {
        const std::size_t n = 2 + rng.below(4);  // 2..5 users
        const std::uint64_t seed = rng.next();
        channel::PropagationConfig prop;
        const auto channels = core::channels_for(
            prop,
            core::place_users_fixed(n, rng.uniform(2.5, 5.0), 1.047, rng));
        // 0 = deadline off; 10 s = deadline machinery on but never
        // cutting, which keeps the batched path deterministic.
        for (double deadline_ms : {0.0, 10'000.0}) {
          const core::SessionConfig cfg = make_config(seed, deadline_ms);
          ThreadPool::reset_shared(1);
          const std::string reused_1t =
              run_reused(*quality_, *contexts_, channels, cfg);
          const std::string fresh_1t =
              run_fresh(*quality_, *contexts_, channels, cfg);
          ThreadPool::reset_shared(4);
          const std::string reused_4t =
              run_reused(*quality_, *contexts_, channels, cfg);
          const std::string fresh_4t =
              run_fresh(*quality_, *contexts_, channels, cfg);
          ThreadPool::reset_shared(0);
          const std::string what =
              deadline_ms > 0.0 ? " (deadline on)" : " (deadline off)";
          prop_assert(reused_1t == fresh_1t,
                      "reused outcome diverged from fresh outcomes "
                      "at 1 thread" + what);
          prop_assert(reused_4t == fresh_4t,
                      "reused outcome diverged from fresh outcomes "
                      "at 4 threads" + what);
          prop_assert(reused_1t == reused_4t,
                      "thread count changed the workspace-path report" +
                          what);
        }
      },
      opts);
  if (!res.passed) ADD_FAILURE() << res.message;
}

// Two sessions with different user counts, stepped alternately on one
// thread (and through one shared FrameOutcome), write byte-identical
// reports to each session run alone: the scheduler's scratch belongs to
// each session's planner, so nothing carries from one session's frame
// into the other's.
TEST_F(WorkspaceEquivalenceTest, InterleavedSessionsMatchSoloRuns) {
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(3, opts.iterations / 10);
  const auto res = proptest::check_property(
      "core.workspace.interleaved-sessions",
      [](Rng& rng) {
        const std::size_t n_a = 2 + rng.below(2);  // 2..3 users
        const std::size_t n_b = 4 + rng.below(2);  // 4..5 users
        const std::uint64_t seed = rng.next();
        channel::PropagationConfig prop;
        const auto ch_a = core::channels_for(
            prop,
            core::place_users_fixed(n_a, rng.uniform(2.5, 5.0), 1.047, rng));
        const auto ch_b = core::channels_for(
            prop,
            core::place_users_fixed(n_b, rng.uniform(2.5, 5.0), 1.047, rng));
        const core::SessionConfig cfg = make_config(seed, 0.0);
        ThreadPool::reset_shared(1);
        core::MulticastSession a(cfg, *quality_, beamforming::Codebook{});
        core::MulticastSession b(cfg, *quality_, beamforming::Codebook{});
        core::SessionReport report_a, report_b;
        core::FrameOutcome out;
        for (int f = 0; f < kFrames; ++f) {
          const core::FrameContext& ctx =
              (*contexts_)[static_cast<std::size_t>(f) % contexts_->size()];
          a.step_into(ch_a, ch_a, ctx, fault::FrameFaults{}, out);
          report_a.add(out);
          b.step_into(ch_b, ch_b, ctx, fault::FrameFaults{}, out);
          report_b.add(out);
        }
        const auto json = [](const core::SessionReport& r) {
          std::ostringstream os;
          r.write_json(os);
          return os.str();
        };
        const std::string solo_a = run_reused(*quality_, *contexts_, ch_a, cfg);
        const std::string solo_b = run_reused(*quality_, *contexts_, ch_b, cfg);
        ThreadPool::reset_shared(0);
        prop_assert(json(report_a) == solo_a,
                    "interleaving changed the " + std::to_string(n_a) +
                        "-user session's report");
        prop_assert(json(report_b) == solo_b,
                    "interleaving changed the " + std::to_string(n_b) +
                        "-user session's report");
      },
      opts);
  if (!res.passed) ADD_FAILURE() << res.message;
}

}  // namespace
}  // namespace w4k
