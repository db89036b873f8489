// Property suite for the frame path's reuse of unchanged work.
//
// A frame whose decision holds the same beam-cache pass as the frame before
// (the two non-beacon frames of a beacon period) skips work whose inputs did
// not change: the planner leaves the decision's groups where they are, the
// session keeps each group's MCS and drain rate and recomputes only the
// losses of members whose in-flight channel moved, and the warm start and
// the measured rates are read by index instead of by member mask. Each of
// these must be invisible:
//
//  * after every step of a random session (2-12 users, 1-2 APs, truth rows
//    that change on non-beacon frames, stale and corrupt beacons that swing
//    the MCS margin, quarantine re-probes, user churn, adapt on and off),
//    the session's per-group air parameters equal a from-scratch
//    recomputation bit for bit;
//  * every planner decision, whichever Decision it is written into (the one
//    that holds the cache's pass, a fresh one, one from another planner),
//    equals a fresh planner replaying the same inputs into fresh Decisions,
//    and the stateless enumeration, Eq. 1 solve and Eq. 4 map it stands for.
#include "channel/array.h"
#include "channel/multi_ap.h"
#include "common/bits.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "emu/loss.h"
#include "obs/metrics.h"
#include "sched/workspace.h"
#include "support/proptest.h"
#include "support/session_access.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

namespace w4k {
namespace {

using proptest::prop_assert;

class AirKeepPropertyTest : public ::testing::Test {
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
    spec.frames = 4;
    spec.seed = 11;
    contexts_ = new std::vector<core::FrameContext>(core::make_contexts(
        video::SyntheticVideo(spec), 3, core::scaled_symbol_size(kW, kH)));
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

model::QualityModel* AirKeepPropertyTest::quality_ = nullptr;
std::vector<core::FrameContext>* AirKeepPropertyTest::contexts_ = nullptr;

constexpr int kFramesPerBeacon = 3;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

using Stacks = std::vector<std::vector<linalg::CVector>>;

/// The rate noted for exactly `mask` on the last transmitted frame.
Mbps noted_rate(const std::vector<sched::GroupMask>& masks,
                const std::vector<Mbps>& rates, sched::GroupMask mask) {
  for (std::size_t g = 0; g < masks.size() && g < rates.size(); ++g)
    if (masks[g] == mask) return rates[g];
  return Mbps{0.0};
}

/// Checks the session's groups_tx against the air parameters recomputed
/// from the decision, the in-flight serving channels, the MCS margin and
/// the last noted measured rates.
void check_air(const core::MulticastSession& session,
               const core::SessionConfig& cfg, const Stacks& truth,
               const core::FrameOutcome& out,
               const std::vector<sched::GroupMask>& noted_masks,
               const std::vector<Mbps>& noted_rates, int frame) {
  const auto& groups = core::SessionTestAccess::decision(session).groups;
  const auto& tx = core::SessionTestAccess::groups_tx(session);
  const std::string at = "frame " + std::to_string(frame);
  prop_assert(tx.size() == groups.size(), at + ": group count");
  const double margin =
      cfg.mcs_margin_db + (out.csi_held ? cfg.stale_csi_backoff_db : 0.0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const sched::GroupSpec& spec = groups[g];
    const emu::GroupTx& got = tx[g];
    const std::string where = at + " group " + std::to_string(g);
    prop_assert(got.mask == spec.mask, where + ": mask");
    const auto mcs = channel::select_mcs(spec.beam.min_rss - margin);
    const channel::McsEntry want_mcs = mcs ? *mcs : channel::McsEntry{};
    prop_assert(got.mcs.mcs == want_mcs.mcs &&
                    same_bits(got.mcs.sensitivity.value,
                              want_mcs.sensitivity.value) &&
                    same_bits(got.mcs.udp_throughput.value,
                              want_mcs.udp_throughput.value),
                where + ": MCS " + std::to_string(got.mcs.mcs) + " != " +
                    std::to_string(want_mcs.mcs));
    const double drain =
        mcs ? mcs->udp_throughput.value * cfg.rate_scale : 0.0;
    prop_assert(same_bits(got.drain_rate.value, drain), where + ": drain");
    double bucket = 0.0;
    if (mcs) {
      const Mbps measured = cfg.adapt
                                ? noted_rate(noted_masks, noted_rates, spec.mask)
                                : Mbps{0.0};
      bucket = measured.value > 0.0 ? measured.value : drain;
    }
    prop_assert(same_bits(got.bucket_rate.value, bucket), where + ": bucket");
    std::vector<double> loss;
    if (mcs)
      for (std::size_t u : SetBits{spec.mask}) {
        const std::size_t ap = out.user_ap.empty() ? 0 : out.user_ap[u];
        const Dbm rss = channel::beam_rss(truth[ap][u], spec.beam.beam);
        loss.push_back(u == 0 ? emu::associated_loss(rss, *mcs)
                              : emu::monitor_loss(rss, *mcs));
      }
    prop_assert(got.member_loss.size() == loss.size(),
                where + ": member count");
    for (std::size_t i = 0; i < loss.size(); ++i)
      prop_assert(same_bits(got.member_loss[i], loss[i]),
                  where + ": loss of member " + std::to_string(i));
  }
}

/// Multiplies user u's ray on every AP by `gain` (a moved truth row).
void scale_user(Stacks& stacks, std::size_t u, linalg::Complex gain) {
  for (auto& stack : stacks) stack[u] *= gain;
}

/// What the session run saw: enough to tell that each fast path ran.
struct Coverage {
  int kept_frames = 0;         ///< a frame kept some group's air parameters
  int kept_moved_frames = 0;   ///< ... while the test moved a truth row
  int margin_swing_frames = 0; ///< same pass as last frame, margin changed
};

void run_session(model::QualityModel& quality,
                 const std::vector<core::FrameContext>& contexts, Rng& rng,
                 obs::Counter& kept, Coverage& cov) {
  const std::size_t n_aps = 1 + rng.below(2);
  std::size_t n = 2 + rng.below(11);
  core::SessionConfig cfg = core::SessionConfig::scaled(256, 144);
  cfg.seed = rng.next();
  cfg.handoff.n_aps = n_aps;
  cfg.adapt = !rng.chance(0.25);
  cfg.mcs_margin_db = rng.chance(0.5) ? 0.0 : 1.5;
  cfg.quarantine_after = 1 + static_cast<int>(rng.below(3));
  cfg.quarantine_reprobe_period = 2 + static_cast<int>(rng.below(4));
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});

  channel::MultiApGeometry geo;
  geo.aps = channel::default_ap_layout(n_aps, geo.prop.room);
  auto users = core::place_users_random(n, 2.5, 7.5, 1.047, rng);
  Stacks beacon = channel::ap_channel_stacks(geo, users);  // this beacon's
  Stacks stale = beacon;  // what the sender knows: the previous beacon's
  const std::size_t blocked = rng.below(n);
  const int block_from = static_cast<int>(rng.below(6));
  const int block_to = block_from + 3 + static_cast<int>(rng.below(8));
  // A user leaving unfreezes No Update: it decides once for the new room.
  const int shrink_at = rng.chance(0.3)
                            ? 6 + static_cast<int>(rng.below(9))
                            : -1;
  const int frames = 21;

  core::FrameOutcome out;
  fault::FrameFaults faults;
  std::vector<sched::GroupMask> noted_masks;
  std::vector<Mbps> noted_rates;
  std::uint64_t last_pass = 0;
  bool last_held = false;
  for (int f = 0; f < frames; ++f) {
    if (f == shrink_at && n > 2) {
      // The last user leaves the room for good: the user count changes.
      --n;
      users.pop_back();
      beacon = channel::ap_channel_stacks(geo, users);
      for (auto& stack : stale) stack.pop_back();
    }
    if (f % kFramesPerBeacon == 0 && f > 0) {
      // A new beacon: the sender learns the last one, some users walk.
      stale = beacon;
      for (std::size_t u = 0; u < n; ++u)
        if (rng.chance(0.3))
          users[u] = core::place_users_random(1, 2.5, 7.5, 1.047, rng)[0];
      beacon = channel::ap_channel_stacks(geo, users);
    }
    // In-flight channel: this beacon's, with rows that move between
    // beacons too, and a blocked user who drops out of reach.
    Stacks truth = beacon;
    bool moved = false;
    for (std::size_t u = 0; u < n; ++u)
      if (rng.chance(0.25)) {
        const double phase = rng.uniform(-3.14, 3.14);
        scale_user(truth, u, std::polar(rng.uniform(0.6, 1.1), phase));
        moved = true;
      }
    if (f >= block_from && f < block_to && blocked < n)
      scale_user(truth, blocked, linalg::Complex(1e-4, 0.0));
    Stacks decision = stale;
    faults = fault::FrameFaults{};
    faults.frame = static_cast<std::uint32_t>(f);
    faults.csi_stale = rng.chance(0.2);
    if (rng.chance(0.1)) {
      // Corrupt beacon: one user's rays read NaN.
      const std::size_t u = rng.below(n);
      for (auto& stack : decision)
        stack[u][0] = linalg::Complex(std::nan(""), 0.0);
    }
    if (rng.chance(0.15)) {
      faults.user_active.assign(n, 1);
      if (rng.chance(0.2))
        faults.user_active.assign(n, 0);  // the room is empty this frame
      else
        faults.user_active[rng.below(n)] = 0;
    }
    if (rng.chance(0.1)) {
      faults.feedback_lost.assign(n, 0);
      faults.feedback_lost[rng.below(n)] = 1;
    }

    const std::uint64_t kept_before = kept.value();
    session.step_into(decision, truth,
                      contexts[static_cast<std::size_t>(f) % contexts.size()],
                      faults, out);
    const auto& d = core::SessionTestAccess::decision(session);
    const bool idle = !out.user_present.empty() &&
                      std::none_of(out.user_present.begin(),
                                   out.user_present.end(),
                                   [](bool p) { return p; });
    if (idle || d.groups.empty()) continue;  // nothing went on the air

    check_air(session, cfg, truth, out, noted_masks, noted_rates, f);
    if (kept.value() > kept_before) {
      ++cov.kept_frames;
      if (moved) ++cov.kept_moved_frames;
    }
    if (d.pass == last_pass && out.csi_held != last_held)
      ++cov.margin_swing_frames;
    last_pass = d.pass;
    last_held = out.csi_held;
    if (cfg.adapt) {
      noted_masks.clear();
      for (const auto& g : d.groups) noted_masks.push_back(g.mask);
      noted_rates = core::SessionTestAccess::tx_result(session).measured_rate;
    }
  }
}

TEST_F(AirKeepPropertyTest, KeptAirParametersMatchRecomputation) {
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(8, opts.iterations / 4);
  obs::set_enabled(true);
  obs::Counter& kept =
      obs::MetricsRegistry::global().counter("session.air.kept");
  Coverage cov;
  const auto res = proptest::check_property(
      "core.air.kept-equals-recomputed",
      [&](Rng& rng) { run_session(*quality_, *contexts_, rng, kept, cov); },
      opts);
  obs::set_enabled(false);
  EXPECT_TRUE(res.passed) << res.message;
  // Vacuity guards: the keep path ran, also with moved truth rows, and the
  // margin swung under an unchanged pass.
  EXPECT_GT(cov.kept_frames, 0);
  EXPECT_GT(cov.kept_moved_frames, 0);
  EXPECT_GT(cov.margin_swing_frames, 0);
}

// --- Planner --------------------------------------------------------------

std::vector<linalg::CVector> random_channels(Rng& rng, std::size_t n) {
  return core::channels_for(channel::PropagationConfig{},
                            core::place_users_random(n, 2.5, 7.5, 1.047, rng));
}

void check_groups_equal(const std::vector<sched::GroupSpec>& got,
                        std::span<const sched::GroupSpec> want,
                        double rate_scale, const std::string& where) {
  prop_assert(got.size() == want.size(), where + ": group count");
  for (std::size_t g = 0; g < got.size(); ++g) {
    const auto& a = got[g];
    const auto& b = want[g];
    const std::string at = where + " group " + std::to_string(g);
    prop_assert(a.mask == b.mask, at + ": mask");
    prop_assert(same_bits(a.beam.rate.value, b.beam.rate.value * rate_scale),
                at + ": rate");
    prop_assert(same_bits(a.beam.min_rss.value, b.beam.min_rss.value),
                at + ": min rss");
    prop_assert(a.beam.beam.size() == b.beam.beam.size(), at + ": beam size");
    for (std::size_t i = 0; i < a.beam.beam.size(); ++i)
      prop_assert(same_bits(a.beam.beam[i].real(), b.beam.beam[i].real()) &&
                      same_bits(a.beam.beam[i].imag(), b.beam.beam[i].imag()),
                  at + ": beam");
  }
}

void check_plan_equal(const sched::Decision& got, const sched::Allocation& alloc,
                      const sched::UnitMapResult& map,
                      const std::string& where) {
  const sched::Allocation& a = got.allocation;
  prop_assert(a.group_count() == alloc.group_count() &&
                  a.user_count() == alloc.user_count(),
              where + ": allocation shape");
  const auto rows_equal = [](std::span<const sched::LayerArray> x,
                             std::span<const sched::LayerArray> y) {
    for (std::size_t g = 0; g < x.size(); ++g)
      for (std::size_t j = 0; j < x[g].size(); ++j)
        if (!same_bits(x[g][j], y[g][j])) return false;
    return true;
  };
  prop_assert(rows_equal(a.time_rows(), alloc.time_rows()), where + ": time");
  prop_assert(rows_equal(a.bytes_rows(), alloc.bytes_rows()), where + ": bytes");
  for (std::size_t u = 0; u < a.user_count(); ++u)
    prop_assert(rows_equal({&a.user_bytes(u), 1}, {&alloc.user_bytes(u), 1}),
                where + ": user bytes");
  prop_assert(same_bits(a.objective, alloc.objective), where + ": objective");
  prop_assert(a.iterations == alloc.iterations, where + ": iterations");
  prop_assert(a.predicted_ssim.size() == alloc.predicted_ssim.size(),
              where + ": predicted users");
  for (std::size_t u = 0; u < a.predicted_ssim.size(); ++u)
    prop_assert(same_bits(a.predicted_ssim[u], alloc.predicted_ssim[u]),
                where + ": predicted ssim");
  const sched::UnitMapResult& m = got.unit_map;
  prop_assert(m.assignments.size() == map.assignments.size(),
              where + ": assignment count");
  for (std::size_t i = 0; i < m.assignments.size(); ++i)
    prop_assert(m.assignments[i].group == map.assignments[i].group &&
                    m.assignments[i].unit_index ==
                        map.assignments[i].unit_index &&
                    m.assignments[i].symbols == map.assignments[i].symbols,
                where + ": assignment " + std::to_string(i));
  prop_assert(m.user_symbols == map.user_symbols, where + ": user symbols");
  prop_assert(m.user_decodes == map.user_decodes, where + ": user decodes");
  prop_assert(m.leftover_symbols == map.leftover_symbols,
              where + ": leftover");
}

TEST_F(AirKeepPropertyTest, ReusedDecisionMatchesFreshPlanner) {
  proptest::Options opts = proptest::options_from_env();
  if (!opts.has_replay_seed)
    opts.iterations = std::max(8, opts.iterations / 2);
  int skipped_emissions = 0;  // steps whose decision held the cache's pass
  int foreign_emissions = 0;  // reused passes into another decision
  const auto res = proptest::check_property(
      "sched.planner.reused-decision-equals-fresh",
      [&](Rng& rng) {
        std::size_t n = 2 + rng.below(7);
        const core::SessionConfig scfg = core::SessionConfig::scaled(kW, kH);
        sched::Planner::Settings settings;
        settings.beam_seed = rng.next();
        settings.rate_scale = scfg.rate_scale;
        settings.time_budget = kFrameBudget * (1.0 - scfg.makeup_margin);
        settings.symbol_size = scfg.engine.symbol_size;
        settings.optimized = !rng.chance(0.2);
        sched::Planner planner(settings);
        sched::Planner replay(settings);  // fresh Decisions only
        sched::Planner other(settings);   // fills the foreign decision
        const beamforming::Codebook codebook;

        std::vector<sched::Decision> held(2);
        sched::Decision foreign;
        auto channels = random_channels(rng, n);
        std::vector<std::uint8_t> exclude(n, 0);
        other.decide_into(random_channels(rng, n), contexts_->front().content,
                          contexts_->front().units, {exclude, {}}, codebook,
                          *quality_, foreign);

        // The previous plan, for the warm-start oracle.
        std::vector<sched::GroupMask> prev_masks;
        std::vector<sched::LayerArray> prev_time;
        std::size_t prev_users = 0;
        sched::SchedWorkspace ws;
        sched::AllocScratch alloc_scratch;
        sched::UnitMapScratch map_scratch;
        sched::Allocation want_alloc;
        sched::UnitMapResult want_map;
        std::uint64_t last_pass = 0;
        for (int step = 0; step < 8; ++step) {
          const std::string where = "step " + std::to_string(step);
          const double change = rng.uniform();
          if (change < 0.25) {
            channels[rng.below(n)] = random_channels(rng, 1)[0];
          } else if (change < 0.35) {
            exclude[rng.below(n)] ^= 1;
          } else if (change < 0.42 && n > 2) {
            --n;  // a user leaves: masks index a new user set
            channels.pop_back();
            exclude.pop_back();
            planner.forget_plan();
            replay.forget_plan();
          }
          if (std::count(exclude.begin(), exclude.end(), 0) == 0)
            exclude[0] = 0;
          const core::FrameContext& ctx =
              (*contexts_)[static_cast<std::size_t>(step) % contexts_->size()];
          const sched::Membership who{exclude, {}};

          // Where the planner writes: a decision holding one of its passes,
          // a fresh one, or one another planner filled.
          const double pick = rng.uniform();
          sched::Decision fresh;
          sched::Decision& d = pick < 0.6   ? held[0]
                               : pick < 0.75 ? held[1]
                               : pick < 0.9  ? fresh
                                             : foreign;
          const bool holds = d.pass != 0 && d.pass == last_pass;
          planner.decide_into(channels, ctx.content, ctx.units, who, codebook,
                              *quality_, d);
          if (d.pass == last_pass) {
            if (holds) ++skipped_emissions;
            else ++foreign_emissions;
          }
          last_pass = d.pass;

          sched::Decision r;
          replay.decide_into(channels, ctx.content, ctx.units, who, codebook,
                             *quality_, r);
          check_groups_equal(d.groups, r.groups, 1.0, where + " vs replay");
          check_plan_equal(d, r.allocation, r.unit_map, where + " vs replay");

          // The stateless path the decision stands for.
          const auto groups = sched::enumerate_groups(
              settings.scheme, channels, codebook, settings.beam_seed,
              settings.group_enum, nullptr, ws, who);
          check_groups_equal(d.groups, groups, settings.rate_scale,
                             where + " vs stateless");
          if (d.groups.empty()) continue;
          sched::AllocProblem problem;
          problem.groups = d.groups;
          problem.n_users = n;
          problem.content = ctx.content;
          problem.time_budget = settings.time_budget;
          if (settings.optimized) {
            // The previous plan remapped by member mask; used when the
            // user count held and it covers half the previous airtime.
            std::vector<double> warm(d.groups.size() * video::kNumLayers,
                                     0.0);
            double total = 0.0, covered = 0.0;
            for (const auto& t : prev_time)
              for (double v : t) total += v;
            for (std::size_t g = 0; g < d.groups.size(); ++g)
              for (std::size_t p = 0; p < prev_masks.size(); ++p)
                if (prev_masks[p] == d.groups[g].mask)
                  for (std::size_t j = 0; j < video::kNumLayers; ++j) {
                    warm[g * video::kNumLayers + j] = prev_time[p][j];
                    covered += prev_time[p][j];
                  }
            const bool use = total > 0.0 && prev_users == n &&
                             covered >= 0.5 * total;
            sched::optimize_allocation_into(problem, *quality_, alloc_scratch,
                                            want_alloc, {},
                                            use ? &warm : nullptr);
            prev_masks.clear();
            prev_time.clear();
            for (std::size_t g = 0; g < d.groups.size(); ++g) {
              prev_masks.push_back(d.groups[g].mask);
              prev_time.push_back(want_alloc.time(g));
            }
            prev_users = n;
          } else {
            sched::round_robin_allocation_into(problem, *quality_,
                                               alloc_scratch, want_alloc);
          }
          sched::map_to_units_into(d.groups, want_alloc.bytes_rows(),
                                   ctx.units, n, settings.symbol_size,
                                   map_scratch, want_map);
          check_plan_equal(d, want_alloc, want_map, where + " vs stateless");
        }
      },
      opts);
  EXPECT_TRUE(res.passed) << res.message;
  EXPECT_GT(skipped_emissions, 0) << "no decision kept its groups";
  EXPECT_GT(foreign_emissions, 0) << "no reused pass went to another decision";
}

}  // namespace
}  // namespace w4k
