#include "core/session.h"

#include "beamforming/codebook.h"
#include "common/stats.h"

#include "core/pretrained.h"
#include "core/runner.h"
#include "support/session_access.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

/// Shared expensive state: trained model + frame contexts.
class SessionTest : public ::testing::Test {
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

  static MulticastSession make_session(SessionConfig cfg = SessionConfig::scaled(kW, kH)) {
    return MulticastSession(cfg, *quality_, beamforming::Codebook{});
  }

  static std::vector<linalg::CVector> channels(std::size_t n,
                                               double distance = 3.0) {
    Rng rng(5);
    channel::PropagationConfig prop;
    return channels_for(prop,
                        place_users_fixed(n, distance, 1.047, rng));
  }

  static model::QualityModel* quality_;
  static std::vector<FrameContext>* contexts_;
};

model::QualityModel* SessionTest::quality_ = nullptr;
std::vector<FrameContext>* SessionTest::contexts_ = nullptr;

TEST_F(SessionTest, TwoUsersAtThreeMetersHitPaperQuality) {
  auto session = make_session();
  const auto run = run_static(session, {channels(2)}, *contexts_, 10);
  const w4k::Summary s = run.ssim_summary();
  EXPECT_GT(s.mean, 0.94);   // paper: ~0.975 at 3 m / 2 users
  EXPECT_GT(s.min, 0.85);
  const w4k::Summary p = run.psnr_summary();
  EXPECT_GT(p.mean, 38.0);   // paper: ~43 dB
}

TEST_F(SessionTest, PerUserOutputsShapedCorrectly) {
  auto session = make_session();
  const auto& ctx = contexts_->front();
  const auto chans = channels(3);
  FrameOutcome out;
  session.step_into(chans, chans, ctx, {}, out);
  EXPECT_EQ(out.ssim.size(), 3u);
  EXPECT_EQ(out.psnr.size(), 3u);
  EXPECT_EQ(out.decoded_fraction.size(), 3u);
  for (double s : out.ssim) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(SessionTest, QualityDegradesWithDistance) {
  auto near_session = make_session();
  auto far_session = make_session();
  const auto near_run =
      run_static(near_session, {channels(2, 3.0)}, *contexts_, 6);
  const auto far_run =
      run_static(far_session, {channels(2, 14.0)}, *contexts_, 6);
  EXPECT_GT(near_run.ssim_summary().mean, far_run.ssim_summary().mean);
}

TEST_F(SessionTest, MulticastSchemeBeatsUnicastWithThreeUsers) {
  SessionConfig multi_cfg = SessionConfig::scaled(kW, kH);
  SessionConfig uni_cfg = multi_cfg;
  uni_cfg.scheme = beamforming::Scheme::kOptimizedUnicast;
  auto multi = make_session(multi_cfg);
  auto uni = make_session(uni_cfg);
  const auto chans = channels(3, 6.0);
  const auto multi_run = run_static(multi, {chans}, *contexts_, 8);
  const auto uni_run = run_static(uni, {chans}, *contexts_, 8);
  EXPECT_GT(multi_run.ssim_summary().mean, uni_run.ssim_summary().mean);
}

TEST_F(SessionTest, SourceCodingOnBeatsOff) {
  SessionConfig on_cfg = SessionConfig::scaled(kW, kH);
  SessionConfig off_cfg = on_cfg;
  off_cfg.engine.source_coding = false;
  auto on = make_session(on_cfg);
  auto off = make_session(off_cfg);
  const auto chans = channels(3, 6.0);
  const auto on_run = run_static(on, {chans}, *contexts_, 8);
  const auto off_run = run_static(off, {chans}, *contexts_, 8);
  EXPECT_GE(on_run.ssim_summary().mean, off_run.ssim_summary().mean);
}

TEST_F(SessionTest, OutageRendersBlankFrame) {
  auto session = make_session();
  const auto chans = channels(1, 500.0);  // unreachable
  FrameOutcome out;
  session.step_into(chans, chans, contexts_->front(), {}, out);
  EXPECT_NEAR(out.ssim[0], contexts_->front().content.blank_ssim, 1e-9);
  EXPECT_DOUBLE_EQ(out.decoded_fraction[0], 0.0);
}

TEST_F(SessionTest, NoUpdateFreezesDecision) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.adapt = false;
  auto session = make_session(cfg);
  const auto good = channels(1, 3.0);
  const auto bad = channels(1, 18.0);
  // Decide on the good channel, then the true channel degrades: the
  // frozen decision keeps the old MCS, which the degraded channel cannot
  // sustain -> severe loss.
  FrameOutcome first;
  session.step_into(good, good, contexts_->front(), {}, first);
  FrameOutcome degraded;
  session.step_into(good, bad, contexts_->front(), {}, degraded);
  EXPECT_LT(degraded.ssim[0], first.ssim[0] - 0.05);

  // An adapting session re-decides on the (now bad) CSI and does better.
  SessionConfig adapt_cfg = SessionConfig::scaled(kW, kH);
  auto adaptive = make_session(adapt_cfg);
  FrameOutcome warm;
  adaptive.step_into(good, good, contexts_->front(), {}, warm);
  FrameOutcome adapted;
  adaptive.step_into(bad, bad, contexts_->front(), {}, adapted);
  EXPECT_GT(adapted.ssim[0], degraded.ssim[0]);
}

TEST_F(SessionTest, NoUpdateRedecidesOnceWhenAUserLeaves) {
  // No Update on firmware sectors (a non-empty codebook). The frozen
  // decision names the users of the room it was made for, so when one
  // leaves the session decides once for the smaller room and freezes that
  // decision instead.
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.adapt = false;
  MulticastSession session(
      cfg, *quality_,
      beamforming::make_sector_codebook(beamforming::CodebookConfig{32, 64}));
  const auto three = channels(3);
  FrameOutcome out;
  session.step_into(three, three, contexts_->front(), {}, out);

  const std::vector<linalg::CVector> two(three.begin(), three.begin() + 2);
  session.step_into(two, two, contexts_->front(), {}, out);
  ASSERT_EQ(out.ssim.size(), 2u);
  const sched::Decision& d = SessionTestAccess::decision(session);
  ASSERT_FALSE(d.groups.empty());
  std::vector<sched::GroupMask> masks;
  for (const auto& g : d.groups) {
    EXPECT_EQ(g.mask & ~sched::GroupMask{0b11}, 0u) << "names a departed user";
    masks.push_back(g.mask);
  }
  const auto& tx = SessionTestAccess::groups_tx(session);
  ASSERT_EQ(tx.size(), d.groups.size());
  for (const auto& g : tx) {
    if (g.drain_rate.value > 0.0) {
      EXPECT_EQ(g.member_loss.size(),
                static_cast<std::size_t>(std::popcount(g.mask)));
    }
  }

  // Frozen again: a later frame on other CSI keeps the two-user decision.
  const std::uint64_t pass = d.pass;
  const auto far = channels(2, 6.0);
  session.step_into(far, far, contexts_->front(), {}, out);
  EXPECT_EQ(d.pass, pass);
  ASSERT_EQ(d.groups.size(), masks.size());
  for (std::size_t g = 0; g < masks.size(); ++g)
    EXPECT_EQ(d.groups[g].mask, masks[g]);
}

TEST_F(SessionTest, ResetRestoresDeterminism) {
  auto session = make_session();
  const auto chans = channels(2);
  const auto r1 = run_static(session, {chans}, *contexts_, 4);
  session.reset();
  const auto r2 = run_static(session, {chans}, *contexts_, 4);
  const auto s1 = r1.all_ssim();
  const auto s2 = r2.all_ssim();
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i)
    EXPECT_DOUBLE_EQ(s1[i], s2[i]);
}

TEST_F(SessionTest, UserCountChangePreservesSurvivingQuarantineState) {
  // Drive user 1 into quarantine (decision CSI looks healthy, the true
  // channel is unreachable, so every attempted frame decodes nothing),
  // then grow the session by one user. The surviving indices' recovery
  // state must carry over — a join must not amnesty a blocked user.
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.quarantine_after = 3;
  cfg.quarantine_reprobe_period = 100;  // no re-probe inside this test
  auto session = make_session(cfg);

  const auto decision3 = channels(3);
  auto true3 = decision3;
  {
    channel::PropagationConfig prop;
    true3[1] = channel::make_channel(
        prop, channel::Position::from_polar(500.0, 0.0));  // unreachable
  }
  FrameOutcome out;
  for (int f = 0; f < 5; ++f)
    session.step_into(decision3, true3, contexts_->front(), {}, out);
  ASSERT_EQ(out.user_quarantined.size(), 3u);
  EXPECT_TRUE(out.user_quarantined[1]);

  // A 4th user joins; users 0-2 keep their channels (and their state).
  auto decision4 = decision3;
  auto true4 = true3;
  {
    channel::PropagationConfig prop;
    const auto extra = channel::make_channel(
        prop, channel::Position::from_polar(3.0, 0.9));
    decision4.push_back(extra);
    true4.push_back(extra);
  }
  session.step_into(decision4, true4, contexts_->front(), {}, out);
  ASSERT_EQ(out.user_quarantined.size(), 4u);
  EXPECT_TRUE(out.user_quarantined[1]) << "join reset quarantine state";
  EXPECT_FALSE(out.user_quarantined[3]);

  // Shrinking back keeps the surviving prefix too.
  session.step_into(decision3, true3, contexts_->front(), {}, out);
  ASSERT_EQ(out.user_quarantined.size(), 3u);
  EXPECT_TRUE(out.user_quarantined[1]) << "leave reset quarantine state";
}

TEST_F(SessionTest, BlindMakeupHalvesPerSilentFrameAndFloorsAfterFourHalvings) {
  // User 1's feedback report is lost frame after frame. The session hands
  // the engine a blind budget of 0.5 x k for it on the first silent frame,
  // halves it for every further consecutive one, and stops halving after
  // four. User 0 keeps reporting and keeps the full fraction.
  auto session = make_session();
  const auto chans = channels(2);
  fault::FrameFaults faults;
  faults.feedback_lost = {0, 1};
  FrameOutcome out;
  const double expect[] = {0.5, 0.25, 0.125, 0.0625, 0.03125, 0.03125};
  for (const double want : expect) {
    session.step_into(chans, chans, contexts_->front(), faults, out);
    const emu::FrameFaultState& efs = SessionTestAccess::engine_faults(session);
    ASSERT_EQ(efs.feedback_lost, (std::vector<std::uint8_t>{0, 1}));
    ASSERT_EQ(efs.blind_fraction.size(), 2u);
    EXPECT_EQ(efs.blind_fraction[0], 0.5);
    EXPECT_EQ(efs.blind_fraction[1], want);
  }
  // A report that arrives ends the streak: the next loss starts at 0.5.
  session.step_into(chans, chans, contexts_->front(), {}, out);
  session.step_into(chans, chans, contexts_->front(), faults, out);
  EXPECT_EQ(SessionTestAccess::engine_faults(session).blind_fraction[1], 0.5);
}

TEST_F(SessionTest, BucketRateFollowsGroupMembersWhenGroupsShift) {
  // Frame 1 serves users 0-2; in frame 2 user 0 has left, so every group
  // index shifts. Each frame-2 group's leaky bucket must start at the rate
  // measured for the same member set in frame 1, not at whatever group
  // held its index.
  auto session = make_session();
  const auto chans = channels(3);
  FrameOutcome out;
  session.step_into(chans, chans, contexts_->front(), {}, out);
  std::vector<sched::GroupMask> members1;
  std::map<sched::GroupMask, Mbps> measured;
  const auto& groups1 = SessionTestAccess::decision(session).groups;
  const auto& rates1 = SessionTestAccess::tx_result(session).measured_rate;
  ASSERT_EQ(rates1.size(), groups1.size());
  for (std::size_t g = 0; g < groups1.size(); ++g) {
    members1.push_back(groups1[g].mask);
    measured[groups1[g].mask] = rates1[g];
  }

  fault::FrameFaults faults;
  faults.user_active = {0, 1, 1};
  session.step_into(chans, chans, contexts_->front(), faults, out);
  const auto& groups2 = SessionTestAccess::decision(session).groups;
  const auto& tx2 = SessionTestAccess::groups_tx(session);
  ASSERT_EQ(tx2.size(), groups2.size());
  std::size_t shifted = 0, seeded = 0;
  for (std::size_t g = 0; g < groups2.size(); ++g) {
    if (g >= members1.size() || members1[g] != groups2[g].mask) ++shifted;
    if (tx2[g].drain_rate.value <= 0.0) continue;
    const auto it = measured.find(groups2[g].mask);
    const bool noted = it != measured.end() && it->second.value > 0.0;
    if (noted) ++seeded;
    EXPECT_EQ(tx2[g].bucket_rate.value,
              noted ? it->second.value : tx2[g].drain_rate.value)
        << "group " << g;
  }
  ASSERT_GT(shifted, 0u) << "the group list did not shift";
  ASSERT_GT(seeded, 0u) << "no group carried feedback";
}

TEST_F(SessionTest, MismatchedChannelVectorsThrow) {
  auto session = make_session();
  FrameOutcome out;
  EXPECT_THROW(session.step_into(channels(2), channels(3), contexts_->front(),
                                 {}, out),
               std::invalid_argument);
}

TEST_F(SessionTest, BadRateScaleThrows) {
  SessionConfig cfg = SessionConfig::scaled(kW, kH);
  cfg.rate_scale = 0.0;
  EXPECT_THROW(make_session(cfg), std::invalid_argument);
}

TEST_F(SessionTest, RunTraceProducesPerFrameOutcomes) {
  channel::MovingReceiverConfig mcfg;
  mcfg.n_users = 1;
  mcfg.duration = 1.0;  // 10 snapshots
  const auto trace = channel::moving_receiver_trace(mcfg);
  auto session = make_session();
  const auto run = run_trace(session, trace, *contexts_, 3);
  EXPECT_EQ(run.frames(), 30u);  // 10 snapshots x 3 frames
  EXPECT_EQ(run.all_ssim().size(), 30u);
}

TEST_F(SessionTest, PlacementHelpersRespectGeometry) {
  Rng rng(1);
  const auto fixed = place_users_fixed(4, 5.0, 0.8, rng);
  ASSERT_EQ(fixed.size(), 4u);
  double min_az = 1e9, max_az = -1e9;
  for (const auto& p : fixed) {
    EXPECT_NEAR(p.distance(), 5.0, 1e-9);
    min_az = std::min(min_az, p.azimuth());
    max_az = std::max(max_az, p.azimuth());
  }
  EXPECT_NEAR(max_az - min_az, 0.8, 1e-9);  // exact MAS

  const auto random = place_users_random(6, 8.0, 16.0, 2.1, rng);
  for (const auto& p : random) {
    EXPECT_GE(p.distance(), 8.0 - 1e-9);
    EXPECT_LE(p.distance(), 16.0 + 1e-9);
  }
}

TEST_F(SessionTest, SingleUserPlacementWorks) {
  Rng rng(2);
  EXPECT_EQ(place_users_fixed(1, 3.0, 0.5, rng).size(), 1u);
  EXPECT_THROW(place_users_fixed(0, 3.0, 0.5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace w4k::core
