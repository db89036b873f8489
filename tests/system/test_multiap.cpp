// Multi-AP attachment, handoff, and peer-relay behavior against the full
// session loop: the single-AP case of the one step (the attachment
// machine stays inert at one AP, and one default-layout AP stack is
// exactly channels_for), the attachment state machine walking degraded ->
// probing -> handing-off -> attached under a total AP outage,
// partition-pure grouping, config/stack shape validation (a rejected call
// changes nothing), and the headline robustness claim — a
// quarantined-but-relayable user's base-layer delivery is strictly better
// with peer relay on than off, averaged over many seeded blockage
// patterns.
#include "channel/multi_ap.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "fault/injector.h"
#include "fault/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

namespace w4k {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;
constexpr std::size_t kUsers = 4;
constexpr int kFrames = 16;

class MultiApTest : public ::testing::Test {
 protected:
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

model::QualityModel* MultiApTest::quality_ = nullptr;
std::vector<core::FrameContext>* MultiApTest::contexts_ = nullptr;

std::string report_json(const core::SessionReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

struct Room {
  channel::MultiApGeometry geo;
  std::vector<std::vector<linalg::CVector>> stacks;
  std::vector<std::vector<double>> azimuths;
};

Room two_ap_room(std::size_t n_users) {
  Room room;
  channel::PropagationConfig prop;
  room.geo.prop = prop;
  room.geo.aps = channel::default_ap_layout(2, prop.room);
  Rng rng(5);
  const auto users = core::place_users_fixed(n_users, 3.0, 1.047, rng);
  room.stacks = channel::ap_channel_stacks(room.geo, users);
  room.azimuths = channel::ap_user_azimuths(room.geo, users);
  return room;
}

// --- Single AP: the n_aps = 1 case of the one step ---------------------

TEST(MultiAp, OneLegacyApStackMatchesChannelsFor) {
  // A one-AP default layout is the legacy pose, so its only stack is
  // channels_for, bit for bit: plain single-AP runs that now build their
  // channels through the geometry see the same numbers.
  Rng rng(5);
  channel::PropagationConfig prop;
  prop.room.length = 9.0;
  prop.room.width = 7.0;
  const auto users = core::place_users_random(6, 1.5, 8.0, 2.5, rng);
  channel::MultiApGeometry geo;
  geo.prop = prop;
  geo.aps = channel::default_ap_layout(1, prop.room);
  const auto stacks = channel::ap_channel_stacks(geo, users);
  const auto channels = core::channels_for(prop, users);
  ASSERT_EQ(stacks.size(), 1u);
  ASSERT_EQ(stacks[0].size(), channels.size());
  for (std::size_t u = 0; u < channels.size(); ++u) {
    const auto& got = stacks[0][u].raw();
    const auto& want = channels[u].raw();
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(want[0])),
              0)
        << "user " << u;
  }
}

TEST_F(MultiApTest, SingleApHandoffKnobsAreInert) {
  // With one AP the attachment machine runs every frame, but there is no
  // alternate to probe: the shortest dwell is byte-identical to the
  // default one, and the report carries no attachment columns.
  Rng rng(5);
  channel::PropagationConfig prop;
  const auto channels = core::channels_for(
      prop, core::place_users_fixed(kUsers, 3.0, 1.047, rng));

  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  core::MulticastSession plain(cfg, *quality_, beamforming::Codebook{});
  const core::SessionReport want_report =
      core::run_static(plain, {channels}, *contexts_, kFrames);

  cfg.handoff.min_dwell_frames = 1;
  core::MulticastSession knobs(cfg, *quality_, beamforming::Codebook{});
  const core::SessionReport got_report =
      core::run_static(knobs, {channels}, *contexts_, kFrames);

  EXPECT_EQ(report_json(want_report), report_json(got_report))
      << "the one-AP attachment machine changed the stream";
  for (std::size_t f = 0; f < got_report.frames(); ++f) {
    EXPECT_TRUE(got_report.frame(f).user_ap.empty()) << "frame " << f;
    EXPECT_EQ(got_report.frame(f).handoffs, 0u) << "frame " << f;
  }
}

// --- Shape / config validation ----------------------------------------

TEST_F(MultiApTest, MismatchedStackCountThrows) {
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.handoff.n_aps = 2;  // but pass 1 stack below
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  EXPECT_THROW(core::run_static(session, {room.stacks[0]}, *contexts_, 2),
               std::invalid_argument);
  // The single-AP form is the same one-stack call.
  core::FrameOutcome out;
  EXPECT_THROW(session.step_into(room.stacks[0], room.stacks[0],
                                 contexts_->front(), {}, out),
               std::invalid_argument);
}

TEST_F(MultiApTest, RejectedCallLeavesSessionUntouched) {
  // The 2-AP total-outage scenario below walks every user through
  // degraded -> probing -> handing-off. Before each of its frames (the
  // probe frames included) the session also gets one malformed call,
  // which must be rejected before anything moves: no weak streak, probe
  // countdown, frame id or quarantine state may advance, so every frame
  // matches a session that never saw the bad calls.
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.min_dwell_frames = 4;
  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);

  core::MulticastSession clean(cfg, *quality_, beamforming::Codebook{});
  core::MulticastSession poked(cfg, *quality_, beamforming::Codebook{});
  core::SessionReport want;
  core::SessionReport got;
  core::FrameOutcome out;
  std::vector<std::vector<linalg::CVector>> decision;
  std::vector<std::vector<linalg::CVector>> truth;
  for (int f = 0; f < kFrames; ++f) {
    const core::FrameContext& ctx =
        (*contexts_)[static_cast<std::size_t>(f) % contexts_->size()];
    const auto frame_id = static_cast<std::uint32_t>(f);
    fault::FrameFaults faults;
    injector.at_into(frame_id, faults);
    decision = room.stacks;
    truth = room.stacks;
    injector.apply(frame_id, decision, truth, room.azimuths);
    clean.step_into(decision, truth, ctx, faults, out);
    want.add(out);

    // One malformed input per frame, rotating through every check.
    fault::FrameFaults bad = faults;
    switch (f % 6) {
      case 0: bad.feedback_lost.assign(kUsers + 1, 0); break;
      case 1: bad.feedback_delayed.assign(kUsers - 1, 0); break;
      case 2: bad.user_active.assign(kUsers + 2, 1); break;
      case 3: bad.relay_down.assign(1, 0); break;
      case 4: bad.budget_scale = 0.0; break;
      default: break;
    }
    std::vector<std::vector<linalg::CVector>> bad_truth = truth;
    if (f % 6 == 5) bad_truth[1].pop_back();  // ragged per-AP user count
    EXPECT_THROW(poked.step_into(decision, bad_truth, ctx, bad, out),
                 std::invalid_argument)
        << "frame " << f;
    poked.step_into(decision, truth, ctx, faults, out);
    got.add(out);
  }

  std::size_t handoffs = 0;
  for (std::size_t f = 0; f < want.frames(); ++f)
    handoffs += want.frame(f).handoffs;
  ASSERT_EQ(handoffs, kUsers) << "the scenario never probed; test is vacuous";
  EXPECT_EQ(report_json(want), report_json(got));
}

TEST_F(MultiApTest, RelayWithoutTargetsRejectedAtValidate) {
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.relay.enabled = true;
  cfg.quarantine_after = 0;  // single AP + no quarantine: no target exists
  EXPECT_THROW(
      core::MulticastSession(cfg, *quality_, beamforming::Codebook{}),
      std::invalid_argument);
}

// --- Handoff state machine --------------------------------------------

TEST_F(MultiApTest, TotalOutageDrivesHandoffAndSticks) {
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.min_dwell_frames = 4;
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});

  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);
  const core::SessionReport report = core::run_static(
      session, room.stacks, *contexts_, kFrames, &injector, room.azimuths);

  // Everyone starts on the stronger AP 0 and the outage pushes them all
  // to AP 1 exactly once; the dwell window keeps them there even after
  // AP 0 recovers (it recovers at frame 13's decision beacon).
  std::size_t total_handoffs = 0;
  for (std::size_t f = 0; f < report.frames(); ++f) {
    ASSERT_EQ(report.frame(f).user_ap.size(), kUsers) << "frame " << f;
    total_handoffs += report.frame(f).handoffs;
  }
  EXPECT_EQ(report.frame(0).user_ap, std::vector<std::uint8_t>(kUsers, 0));
  EXPECT_EQ(total_handoffs, kUsers);
  EXPECT_EQ(report.frame(kFrames - 1).user_ap,
            std::vector<std::uint8_t>(kUsers, 1));
}

TEST_F(MultiApTest, TwoApSessionHandsOffWithoutAFlag) {
  // Handoff follows from the AP count alone: a session configured with
  // nothing but n_aps = 2 moves every user off a dead AP 0.
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.handoff.n_aps = 2;
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});

  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);
  const core::SessionReport report = core::run_static(
      session, room.stacks, *contexts_, kFrames, &injector, room.azimuths);

  std::size_t total_handoffs = 0;
  for (std::size_t f = 0; f < report.frames(); ++f)
    total_handoffs += report.frame(f).handoffs;
  EXPECT_EQ(report.frame(0).user_ap, std::vector<std::uint8_t>(kUsers, 0));
  EXPECT_EQ(total_handoffs, kUsers);
  EXPECT_EQ(report.frame(kFrames - 1).user_ap,
            std::vector<std::uint8_t>(kUsers, 1));
}

TEST_F(MultiApTest, JoinMidOutageKeepsSurvivorsAttachments) {
  // A user joining mid-run resizes the per-user state. The survivors'
  // attachment (serving AP, ladder state, probe, dwell, last handoff) must
  // carry over untouched, and the joiner must start unattached, so it
  // picks the live AP instead of inheriting a default AP or state. Every
  // later frame's survivor APs and handoff count therefore match a twin
  // session that never saw the join.
  const Room room = two_ap_room(kUsers + 1);
  std::vector<std::vector<linalg::CVector>> survivors = room.stacks;
  for (auto& stack : survivors) stack.pop_back();
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.min_dwell_frames = 4;
  core::MulticastSession joined(cfg, *quality_, beamforming::Codebook{});
  core::MulticastSession twin(cfg, *quality_, beamforming::Codebook{});

  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers + 1, 2);
  // Mid-ladder: the survivors are degraded or probing, not yet handed off.
  constexpr int kJoinFrame = 6;

  const fault::FrameFaults no_faults;
  core::FrameOutcome got;
  core::FrameOutcome want;
  std::size_t handoffs = 0;
  for (int f = 0; f < kFrames; ++f) {
    const auto frame = static_cast<std::uint32_t>(f);
    const core::FrameContext& ctx =
        (*contexts_)[static_cast<std::size_t>(f) % contexts_->size()];
    auto twin_decision = survivors;
    auto twin_truth = survivors;
    injector.apply(frame, twin_decision, twin_truth, room.azimuths);
    twin.step_into(twin_decision, twin_truth, ctx, no_faults, want);
    auto decision = f < kJoinFrame ? survivors : room.stacks;
    auto truth = decision;
    injector.apply(frame, decision, truth, room.azimuths);
    joined.step_into(decision, truth, ctx, no_faults, got);

    handoffs += want.handoffs;
    EXPECT_EQ(got.handoffs, want.handoffs) << "frame " << f;
    ASSERT_EQ(want.user_ap.size(), kUsers) << "frame " << f;
    ASSERT_EQ(got.user_ap.size(), f < kJoinFrame ? kUsers : kUsers + 1)
        << "frame " << f;
    EXPECT_TRUE(
        std::equal(want.user_ap.begin(), want.user_ap.end(),
                   got.user_ap.begin()))
        << "frame " << f << ": a survivor's serving AP changed on the join";
    if (f >= kJoinFrame) {
      EXPECT_EQ(got.user_ap[kUsers], 1u)
          << "frame " << f << ": the joiner is not on the live AP";
    }
  }
  EXPECT_GT(handoffs, 0u) << "no survivor handed off; test is vacuous";
}

TEST_F(MultiApTest, SectorOutageOnlySilencesCoveredUsers) {
  // A sector outage aimed away from every user must not trigger any
  // handoff; aimed at the whole room it behaves like a total outage.
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.min_dwell_frames = 4;

  fault::ApOutage sector;
  sector.start_frame = 3;
  sector.n_frames = 10;
  sector.ap = 0;
  sector.total = false;
  sector.sector_width_deg = 10.0;
  sector.sector_center_deg = 180.0;  // pointing away from the user arc

  fault::FaultPlan miss_plan;
  miss_plan.ap_outage.push_back(sector);
  core::MulticastSession missed(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector miss_inj(miss_plan, kUsers, 2);
  const core::SessionReport miss_report = core::run_static(
      missed, room.stacks, *contexts_, kFrames, &miss_inj, room.azimuths);
  std::size_t miss_handoffs = 0;
  for (std::size_t f = 0; f < miss_report.frames(); ++f)
    miss_handoffs += miss_report.frame(f).handoffs;
  EXPECT_EQ(miss_handoffs, 0u);

  sector.sector_center_deg = 0.0;  // boresight: covers the user arc
  sector.sector_width_deg = 360.0;
  fault::FaultPlan hit_plan;
  hit_plan.ap_outage.push_back(sector);
  core::MulticastSession hit(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector hit_inj(hit_plan, kUsers, 2);
  const core::SessionReport hit_report = core::run_static(
      hit, room.stacks, *contexts_, kFrames, &hit_inj, room.azimuths);
  std::size_t hit_handoffs = 0;
  for (std::size_t f = 0; f < hit_report.frames(); ++f)
    hit_handoffs += hit_report.frame(f).handoffs;
  EXPECT_EQ(hit_handoffs, kUsers);
}

// --- Relay acceptance: quarantined delivery on vs off ------------------

// One seeded single-AP scenario: a persistent blockage the beacon never
// sees drives one user into quarantine; return the mean decoded fraction
// of that user over its quarantined frames (relay delivers base-layer
// symbols, so any decoded unit there came over the side link or a
// re-probe).
double quarantined_delivery(model::QualityModel& quality,
                            const std::vector<core::FrameContext>& contexts,
                            std::uint64_t seed, bool relay_on,
                            bool* saw_quarantine) {
  Rng rng(seed * 2 + 1);
  channel::PropagationConfig prop;
  const auto channels = core::channels_for(
      prop,
      core::place_users_fixed(kUsers, rng.uniform(2.5, 4.0), 1.047, rng));

  fault::FaultPlan plan;
  fault::BlockageBurst burst;
  burst.start_frame = 1 + static_cast<std::uint32_t>(rng.below(2));
  burst.n_frames = static_cast<std::uint32_t>(kFrames);
  burst.user = rng.below(kUsers);
  burst.extra_loss_db = rng.uniform(32.0, 45.0);
  plan.blockage.push_back(burst);
  for (std::uint32_t f = burst.start_frame;
       f < static_cast<std::uint32_t>(kFrames); ++f)
    plan.csi.push_back({f, /*corrupt=*/false});

  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = seed + 1;
  cfg.relay.enabled = relay_on;
  cfg.quarantine_after = 2;
  cfg.quarantine_reprobe_period = 4;
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  const fault::FaultInjector injector(plan, kUsers);
  const core::SessionReport report =
      core::run_static(session, {channels}, contexts, kFrames, &injector);

  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t f = 0; f < report.frames(); ++f) {
    const auto& q = report.frame(f).user_quarantined;
    if (q.size() <= burst.user || !q[burst.user]) continue;
    sum += report.frame(f).decoded_fraction[burst.user];
    ++n;
  }
  if (n > 0) *saw_quarantine = true;
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

TEST_F(MultiApTest, RelayImprovesQuarantinedDelivery) {
  // The acceptance sweep: 50 seeded blockage patterns, each run with peer
  // relay on and off under otherwise identical configs. Relay must help
  // strictly in aggregate (and never require a new decode path — the
  // decoded fractions come from the same fountain decoder either way).
  constexpr std::uint64_t kSeeds = 50;
  double mean_on = 0.0;
  double mean_off = 0.0;
  std::size_t quarantined_runs = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    bool saw = false;
    mean_on +=
        quarantined_delivery(*quality_, *contexts_, seed, true, &saw);
    mean_off +=
        quarantined_delivery(*quality_, *contexts_, seed, false, &saw);
    if (saw) ++quarantined_runs;
  }
  // The construction guarantees quarantine engages in (nearly) every
  // seed; demand it in at least 90% so the comparison is meaningful.
  EXPECT_GE(quarantined_runs, kSeeds * 9 / 10);
  EXPECT_GT(mean_on / kSeeds, mean_off / kSeeds)
      << "peer relay did not improve quarantined users' base-layer "
         "delivery (on="
      << mean_on / kSeeds << ", off=" << mean_off / kSeeds << ")";
}

}  // namespace
}  // namespace w4k
