// Failure injection: the system must degrade gracefully, never crash or
// hang, under hostile conditions — deep outage mid-trace, pathological
// queue sizes, total feedback loss, near-total packet loss, and abrupt
// channel collapse between decision and transmission.
#include "common/stats.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "fault/plan.h"

#include <gtest/gtest.h>

#include <sstream>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

class FailureInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    ensure_trained(*quality_, opts);
    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 3;
    spec.seed = 11;
    contexts_ = new std::vector<FrameContext>(make_contexts(
        video::SyntheticVideo(spec), 2, scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }

  static std::vector<linalg::CVector> channels_at(double distance) {
    Rng rng(5);
    channel::PropagationConfig prop;
    return channels_for(prop, place_users_fixed(2, distance, 0.6, rng));
  }

  static model::QualityModel* quality_;
  static std::vector<FrameContext>* contexts_;
};

model::QualityModel* FailureInjectionTest::quality_ = nullptr;
std::vector<FrameContext>* FailureInjectionTest::contexts_ = nullptr;

TEST_F(FailureInjectionTest, ChannelCollapseBetweenBeaconAndFrame) {
  // Decision made on a 3 m channel; by transmit time the user is at 25 m.
  // The frame must complete (no hang), deliver almost nothing, and the
  // next adapted frame must recover.
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const auto good = channels_at(3.0);
  const auto collapsed = channels_at(25.0);

  FrameOutcome crashed;
  session.step_into(good, collapsed, contexts_->front(), {}, crashed);
  EXPECT_LT(crashed.ssim[0], 0.9);

  FrameOutcome recovered;
  session.step_into(collapsed, collapsed, contexts_->front(), {}, recovered);
  EXPECT_GE(recovered.ssim[0], crashed.ssim[0]);
}

TEST_F(FailureInjectionTest, DeepOutageMidTraceAndRecovery) {
  // Splice an outage (users at 40 m: below MCS 1) into an otherwise good
  // trace. Outage frames render ~blank; recovery is immediate.
  channel::CsiTrace trace;
  const auto good = channels_at(3.0);
  const auto dead = channels_at(40.0);
  for (int t = 0; t < 9; ++t) {
    trace.snapshots.push_back(t >= 3 && t < 6 ? dead : good);
    trace.positions.push_back(
        {channel::Position{3, 0}, channel::Position{3, 1}});
  }
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const SessionReport run = run_trace(session, trace, *contexts_, 1);
  ASSERT_EQ(run.frames(), 9u);
  const double blank = contexts_->front().content.blank_ssim;
  EXPECT_NEAR(run.frame(4).ssim[0], blank, 0.05);   // outage ~ blank
  EXPECT_GT(run.frame(8).ssim[0], 0.9);             // recovered
}

TEST_F(FailureInjectionTest, NoFeedbackChannel) {
  // Every user's report is lost on every frame, so the makeup rounds
  // have nothing to size repairs from and only blind makeup remains.
  constexpr int kFrames = 5;
  const auto chans = channels_at(6.0);
  fault::FaultPlan plan;
  for (int f = 0; f < kFrames; ++f)
    for (std::size_t u = 0; u < chans.size(); ++u)
      plan.feedback.push_back({static_cast<std::uint32_t>(f), u, -1});
  const fault::FaultInjector injector(plan, chans.size());
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const SessionReport run =
      run_static(session, {chans}, *contexts_, kFrames, &injector);
  // Quality suffers but every frame completes with sane outputs.
  for (double s : run.all_ssim()) {
    EXPECT_GT(s, 0.3);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(FailureInjectionTest, PathologicalQueueOfOnePacket) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.engine.queue_capacity_bytes = cfg.engine.symbol_size + 1;
  cfg.engine.rate_control = false;  // dump the burst at the tiny queue
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const auto chans = channels_at(3.0);
  const SessionReport run = run_static(session, {chans}, *contexts_, 4);
  // Nearly everything drops; the receiver sees ~blank frames. No crash.
  for (const auto& f : run.frame_outcomes())
    EXPECT_GT(f.stats.packets_dropped_queue, 0u);
}

TEST_F(FailureInjectionTest, NearTotalLoss) {
  // A deep blockage on both users that the sender never sees: every
  // beacon after frame 0's is missed, so it keeps deciding on the clear
  // 3 m channel while nearly every packet vanishes.
  constexpr int kFrames = 3;
  const auto chans = channels_at(3.0);
  fault::FaultPlan plan;
  for (std::size_t u = 0; u < chans.size(); ++u)
    plan.blockage.push_back({0, kFrames, u, 30.0, -1});
  for (int f = 1; f < kFrames; ++f)
    plan.csi.push_back({static_cast<std::uint32_t>(f), /*corrupt=*/false});
  const fault::FaultInjector injector(plan, chans.size());
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const SessionReport run =
      run_static(session, {chans}, *contexts_, kFrames, &injector);
  const double blank = contexts_->front().content.blank_ssim;
  for (double s : run.all_ssim()) EXPECT_GE(s, blank - 0.05);
}

TEST_F(FailureInjectionTest, ZeroFrameBudget) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const auto chans = channels_at(3.0);
  fault::FrameFaults faults;
  faults.budget_scale = 1e-9 / kFrameBudget;  // effectively no airtime
  FrameOutcome out;
  session.step_into(chans, chans, contexts_->front(), faults, out);
  EXPECT_LE(out.stats.packets_sent, 1u);
  EXPECT_NEAR(out.ssim[0], contexts_->front().content.blank_ssim, 0.05);
}

TEST_F(FailureInjectionTest, BacklogStormWithoutRateControlDrains) {
  // Several frames of over-subscription must not accumulate unbounded
  // state: the backlog is capped by the queue capacity.
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.engine.rate_control = false;
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const auto chans = channels_at(16.0);  // slow link, big frames
  const SessionReport run = run_static(session, {chans}, *contexts_, 8);
  for (const auto& f : run.frame_outcomes())
    EXPECT_LE(f.stats.backlog_packets_after,
              cfg.engine.queue_capacity_bytes / cfg.engine.symbol_size + 1);
}

TEST_F(FailureInjectionTest, SingleApOutageSilencesTheOnlyAp) {
  // `ap_outage S N 0 total` on a one-AP run: the AP's rays go dark on
  // frames [S, S+N) and the one-beacon-stale decision CSI sees it from
  // S+1, so on [S+1, S+N) nothing can be scheduled and nothing decodes.
  // Before and after the outage the link delivers.
  constexpr std::uint32_t kStart = 2;
  constexpr std::uint32_t kLen = 4;
  std::istringstream text("ap_outage 2 4 0 total\n");
  const fault::FaultPlan plan = fault::parse_fault_plan(text);
  const auto chans = channels_at(3.0);
  const fault::FaultInjector injector(plan, chans.size());
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const SessionReport run =
      run_static(session, {chans}, *contexts_, 10, &injector);
  ASSERT_EQ(run.frames(), 10u);
  for (std::uint32_t f = 0; f < run.frames(); ++f) {
    const auto& decoded = run.frame(f).decoded_fraction;
    double total = 0.0;
    for (double d : decoded) total += d;
    if (f > kStart && f < kStart + kLen) {
      EXPECT_EQ(total, 0.0) << "frame " << f << " decoded through the outage";
    } else if (f < kStart || f > kStart + kLen) {
      EXPECT_GT(total, 0.0) << "frame " << f;
    }
  }
}

}  // namespace
}  // namespace w4k::core
