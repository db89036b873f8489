#include "core/session.h"

#include "beamforming/csi.h"
#include "beamforming/sls.h"
#include "channel/array.h"
#include "channel/multi_ap.h"
#include "common/bits.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "verify/invariants.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

namespace w4k::core {

SessionConfig SessionConfig::scaled(int width, int height) {
  SessionConfig cfg;
  cfg.rate_scale = rate_scale_for(width, height);
  cfg.engine.symbol_size = scaled_symbol_size(width, height);
  cfg.engine.header_bytes = 0;
  // The kernel/driver queue shrinks with the data volume so the
  // no-rate-control overflow regime (Fig. 9) is preserved at reduced
  // resolution.
  cfg.engine.queue_capacity_bytes = std::max<std::size_t>(
      cfg.engine.symbol_size * 16,
      static_cast<std::size_t>(6'000'000 * cfg.rate_scale));
  return cfg;
}

void SessionConfig::validate(std::size_t codebook_beams) const {
  auto bad = [](const std::string& field, const std::string& msg) {
    throw std::invalid_argument("SessionConfig." + field + ": " + msg);
  };
  // `ok` is written `x > 0` style so NaN fails too. Runs every frame, so
  // nothing is formatted unless the check fails.
  auto need = [&](bool ok, const char* field, const char* rule, auto got) {
    if (!ok) bad(field, rule + (" (got " + std::to_string(got) + ")"));
  };
  need(rate_scale > 0.0, "rate_scale", "must be > 0", rate_scale);
  need(makeup_margin >= 0.0 && makeup_margin < 1.0, "makeup_margin",
       "must be in [0, 1)", makeup_margin);
  if (engine.symbol_size == 0) bad("engine.symbol_size", "must be > 0");
  if (engine.queue_capacity_bytes == 0)
    bad("engine.queue_capacity_bytes", "must be > 0");
  need(sls_noise_db >= 0.0, "sls_noise_db", "must be >= 0 dB", sls_noise_db);
  need(decide_deadline_ms >= 0.0 && std::isfinite(decide_deadline_ms),
       "decide_deadline_ms", "must be a finite value >= 0 ms",
       decide_deadline_ms);
  need(stale_csi_backoff_db >= 0.0, "stale_csi_backoff_db", "must be >= 0 dB",
       stale_csi_backoff_db);
  need(quarantine_after >= 0, "quarantine_after", "must be >= 0",
       quarantine_after);
  need(quarantine_reprobe_period >= 1, "quarantine_reprobe_period",
       "must be >= 1", quarantine_reprobe_period);
  if (handoff.n_aps < 1 || handoff.n_aps > channel::kMaxAps)
    bad("handoff.n_aps",
        "must be in [1, " + std::to_string(channel::kMaxAps) + "] (got " +
            std::to_string(handoff.n_aps) + ")");
  need(handoff.min_dwell_frames >= 1, "handoff.min_dwell_frames",
       "must be >= 1", handoff.min_dwell_frames);
  if (relay.enabled && handoff.n_aps <= 1 && quarantine_after == 0)
    bad("relay.enabled",
        "peer relay targets quarantined users: with a single AP and "
        "quarantine_after == 0 there is never a relay target (enable "
        "quarantine or add APs)");
  if (use_estimated_csi && codebook_beams != kUnknown &&
      codebook_beams < channel::kDefaultApAntennas)
    bad("use_estimated_csi",
        "CSI estimation needs a codebook with at least one beam per "
        "antenna (" +
            std::to_string(codebook_beams) + " beams < " +
            std::to_string(channel::kDefaultApAntennas) + " antennas)");
}

MulticastSession::MulticastSession(const SessionConfig& cfg,
                                   model::QualityModel& quality,
                                   beamforming::Codebook codebook)
    : cfg_(cfg),
      quality_(quality),
      codebook_(std::move(codebook)),
      engine_(cfg.engine),
      rng_(cfg.seed),
      planner_({.scheme = cfg.scheme,
                .beam_seed = cfg.seed,
                .group_enum = cfg.group_enum,
                .optimized = cfg.optimized_schedule,
                .rate_scale = cfg.rate_scale,
                .time_budget = kFrameBudget * (1.0 - cfg.makeup_margin),
                .symbol_size = cfg.engine.symbol_size,
                .deadline_ms = cfg.decide_deadline_ms}) {
  cfg_.validate(codebook_.size());
}

void MulticastSession::reset() {
  frozen_ = false;
  planner_.clear();
  engine_.clear_backlog();
  rng_.reseed(cfg_.seed);
  next_frame_id_ = 0;
  held_csi_.clear();
  users_.clear();
  tx_pool_.clear();
}

void MulticastSession::ensure_user_state(std::size_t n_users) {
  if (users_.size() == n_users) return;
  // Churn: resize in place so surviving user indices keep their quarantine
  // flag, silence/loss streaks and attachment — a user who was blocked
  // before a neighbor joined is still blocked after. Only index-keyed
  // caches whose meaning depends on the user count are dropped. That
  // includes No Update's frozen decision, whose masks name the old room:
  // the new room gets one fresh decision, which then freezes in turn.
  users_.resize(n_users);
  held_csi_.clear();
  planner_.forget_plan();
  frozen_ = false;
}

namespace {

/// The associated (MAC-ARQ) STA; every other user is in monitor mode.
constexpr std::size_t kAssociatedUser = 0;
/// Blind worst-case makeup budget for a user whose feedback report was
/// lost, as a fraction of each unit's k symbols. Halved for every further
/// consecutive silent frame, at most kBlindBackoffCap times, so a dead
/// receiver cannot permanently eat the makeup budget.
constexpr double kBlindMakeupFraction = 0.5;
constexpr int kBlindBackoffCap = 4;
static_assert(kBlindBackoffCap >= 0 && kBlindBackoffCap <= 30,
              "the halving is a 32-bit shift");
/// Minimum relayer best-case RSS: only LoS-grade users relay.
constexpr Dbm kMinRelayerRss{-58.0};
/// Per-symbol delivery loss on the D2D relay side link.
constexpr double kRelayLoss = 0.05;

// The multi-AP attachment ladder (DESIGN.md Sec. 4h).
/// An alternate AP must beat the serving AP by this much before a probe
/// starts, and must still hold half of it for the probe to commit: the
/// classic flap damper.
constexpr double kHysteresisDb = 3.0;
/// Serving best-case RSS below this counts as a weak frame.
constexpr double kDegradeFloorDbm = -66.0;
/// Consecutive weak frames before attached -> degraded.
constexpr int kDegradeAfter = 3;
/// Make-before-break probe length: the user keeps streaming from the old
/// AP while the alternate trains.
constexpr int kProbeFrames = 2;
/// Cap on dwell doublings for back-to-back handoffs (flapping links).
constexpr int kBackoffCap = 3;
static_assert(kBackoffCap <= 20, "the dwell doubling is a 32-bit shift");

/// Field-by-field reset (not `out = {}`) so a reused outcome's vectors keep
/// their capacity.
void reset_outcome(FrameOutcome& out) {
  out.ssim.clear();
  out.psnr.clear();
  out.decoded_fraction.clear();
  out.stats = emu::FrameTxStats{};
  out.optimizer_objective = 0.0;
  out.frame_id = 0;
  out.user_present.clear();
  out.user_quarantined.clear();
  out.shed_symbols = 0;
  out.csi_held = false;
  out.user_ap.clear();
  out.handoffs = 0;
  out.relayed_symbols = 0;
}

bool all_finite(const std::vector<linalg::CVector>& channels) {
  for (const auto& h : channels)
    for (std::size_t n = 0; n < h.size(); ++n)
      if (!std::isfinite(h[n].real()) || !std::isfinite(h[n].imag()))
        return false;
  return true;
}

}  // namespace

void MulticastSession::decide_into(
    const std::vector<linalg::CVector>& channels, const FrameContext& ctx,
    const std::vector<std::uint8_t>& exclude, Decision& d) {
  // Each user's serving AP partitions the groups so none spans APs. With
  // one AP every id is 0 and the filter admits every subset; a session
  // that has never stepped has no attachments and no partition.
  partition_.clear();
  for (const UserState& s : users_) partition_.push_back(s.serving_ap);
  planner_.decide_into(channels, ctx.content, ctx.units,
                       {exclude, partition_}, codebook_, quality_, d);
}

void MulticastSession::step_into(
    std::span<const std::vector<linalg::CVector>> decision_stacks,
    std::span<const std::vector<linalg::CVector>> true_stacks,
    const FrameContext& ctx, const fault::FrameFaults& faults,
    FrameOutcome& out) {
  reset_outcome(out);
  Frame f;
  f.n_users = check_inputs(decision_stacks, true_stacks, faults);
  ensure_user_state(f.n_users);
  f.id = next_frame_id_++;
  out.frame_id = f.id;

  static obs::Stage& st_frame = obs::stage("session.frame");
  obs::StageSpan frame_span(st_frame);
  attach(f, decision_stacks, true_stacks, faults, out);
  hold_csi(f, faults);
  out.csi_held = f.csi_held;
  admit(f, faults);
  if (f.n_active == 0) {
    // Everyone left: an idle frame, not an error. Frame ids keep counting.
    score(f, ctx, out);
    return;
  }
  decide(f, ctx);
  out.optimizer_objective = f.plan->allocation.objective;
  if (f.plan->groups.empty()) {
    // Outage frame: receivers render the blank frame.
    score(f, ctx, out);
    return;
  }
  set_air_parameters(f);
  shed(f, ctx, faults, out);
  transmit(f, ctx, faults, out);
  update_recovery(f, ctx, faults);
  score(f, ctx, out);
  flush_telemetry(f, out);
}

std::size_t MulticastSession::check_inputs(
    Stacks decision_stacks, Stacks true_stacks,
    const fault::FrameFaults& faults) const {
  const std::size_t n_aps = true_stacks.size();
  if (n_aps == 0 || decision_stacks.size() != n_aps)
    throw std::invalid_argument("step: AP stack count mismatch");
  if (n_aps != cfg_.handoff.n_aps)
    throw std::invalid_argument("step: got " + std::to_string(n_aps) +
                                " AP stacks but cfg.handoff.n_aps = " +
                                std::to_string(cfg_.handoff.n_aps));
  const std::size_t n_users = true_stacks[0].size();
  for (std::size_t a = 0; a < n_aps; ++a)
    if (decision_stacks[a].size() != n_users ||
        true_stacks[a].size() != n_users)
      throw std::invalid_argument("step: channel vector count mismatch");
  cfg_.validate();
  const auto check_mask = [&](std::size_t got, const char* name) {
    if (got != 0 && got != n_users)
      throw std::invalid_argument(std::string("step: faults.") + name +
                                  " size mismatch");
  };
  check_mask(faults.feedback_lost.size(), "feedback_lost");
  check_mask(faults.feedback_delayed.size(), "feedback_delayed");
  check_mask(faults.user_active.size(), "user_active");
  check_mask(faults.relay_down.size(), "relay_down");
  if (!(faults.budget_scale > 0.0 && faults.budget_scale <= 1.0))
    throw std::invalid_argument("step: faults.budget_scale outside (0, 1]");
  if (cfg_.use_estimated_csi &&
      codebook_.size() <
          (n_users == 0 ? 1 : decision_stacks[0].front().size()))
    throw std::invalid_argument(
        "step: CSI estimation needs codebook size >= antenna count");
  return n_users;
}

void MulticastSession::attach(Frame& f, Stacks decision_stacks,
                              Stacks true_stacks,
                              const fault::FrameFaults& faults,
                              FrameOutcome& out) {
  // Best-case beacon RSS per (ap, user) — the same beacon-time signal the
  // degradation ladder runs on; non-finite (corrupt-beacon) entries count
  // as unreachable, so a poisoned beacon can never look attractive.
  // Handoff beacons share the fate of CSI beacons: either fault freezes the
  // attachment machine for the frame (streaming continues on the serving
  // AP — that is what make-before-break buys).
  const std::size_t n_aps = true_stacks.size();
  const std::size_t n_users = f.n_users;
  ap_rss_mw_.assign(n_aps * n_users, 0.0);
  for (std::size_t a = 0; a < n_aps; ++a)
    for (std::size_t u = 0; u < n_users; ++u) {
      const double mw = decision_stacks[a][u].norm_sq();
      if (std::isfinite(mw)) ap_rss_mw_[a * n_users + u] = mw;
    }
  const bool beacon_ok = !faults.handoff_beacon_lost && !faults.csi_stale;
  for (std::size_t u = 0; u < n_users; ++u) {
    UserState& s = users_[u];
    if (s.serving_ap != kUnattached) {
      out.handoffs += advance_attachment(u, n_aps, f.id, beacon_ok) ? 1 : 0;
      continue;
    }
    // Initial AP selection: strongest beacon wins (ties to the lowest id).
    std::size_t best = 0;
    for (std::size_t a = 1; a < n_aps; ++a)
      if (ap_rss_mw_[a * n_users + u] > ap_rss_mw_[best * n_users + u])
        best = a;
    s.serving_ap = static_cast<std::uint8_t>(best);
    s.attach_state = ApAttachState::kAttached;
    s.weak_streak = 0;
  }

  // Serving-AP view of the room: the rest of the frame path (CSI hold,
  // ladder, scheduler, engine) sees each user through their serving ray
  // only, and the partition keeps the enumerator from grouping across APs.
  // With one AP everyone is on AP 0 and the stack is the view.
  f.beacon = &decision_stacks[0];
  f.truth = &true_stacks[0];
  if (n_aps == 1) return;
  eff_decision_.resize(n_users);
  eff_truth_.resize(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    const std::uint8_t ap = users_[u].serving_ap;
    eff_decision_[u] = decision_stacks[ap][u];
    eff_truth_[u] = true_stacks[ap][u];
    out.user_ap.push_back(ap);
  }
  f.beacon = &eff_decision_;
  f.truth = &eff_truth_;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& c_ho = reg.counter("session.handoffs");
    static obs::Counter& c_probe = reg.counter("session.handoff_probes");
    if (out.handoffs > 0) c_ho.add(out.handoffs);
    std::uint64_t probing = 0;
    for (const UserState& s : users_)
      probing += s.attach_state == ApAttachState::kProbing ? 1 : 0;
    c_probe.add(probing);
  }
}

void MulticastSession::hold_csi(Frame& f, const fault::FrameFaults& faults) {
  // Hold the last good beamweights over a missed or corrupt beacon instead
  // of deciding on garbage.
  const std::vector<linalg::CVector>& beacon = *f.beacon;
  const bool finite = all_finite(beacon);
  f.csi = &beacon;
  if (faults.csi_stale || !finite) {
    if (held_csi_.size() == f.n_users) {
      f.csi = &held_csi_;
      f.csi_held = true;
    } else if (!finite) {
      // Nothing to fall back to: zero the poisoned entries. The affected
      // users enumerate as unreachable (outage) rather than NaN.
      sanitized_ = beacon;
      for (auto& h : sanitized_)
        for (std::size_t n = 0; n < h.size(); ++n)
          if (!std::isfinite(h[n].real()) || !std::isfinite(h[n].imag()))
            h[n] = linalg::Complex(0.0, 0.0);
      f.csi = &sanitized_;
    }
  } else {
    held_csi_ = beacon;  // fresh and finite: new fallback point
  }
  // Stale beamweights deserve a conservative MCS.
  f.mcs_margin_db =
      cfg_.mcs_margin_db + (f.csi_held ? cfg_.stale_csi_backoff_db : 0.0);
}

void MulticastSession::admit(Frame& f, const fault::FrameFaults& faults) {
  const auto period =
      static_cast<std::uint32_t>(cfg_.quarantine_reprobe_period);
  f.reprobe = cfg_.quarantine_after > 0 && f.id % period == 0;
  exclude_.assign(f.n_users, 0);
  for (std::size_t u = 0; u < f.n_users; ++u) {
    UserState& s = users_[u];
    s.active = faults.user_active.empty() || faults.user_active[u] != 0;
    // Departed users cannot report either.
    s.silent =
        (u < faults.feedback_lost.size() && faults.feedback_lost[u] != 0) ||
        !s.active;
    const bool included = s.active && (!s.quarantined || f.reprobe);
    exclude_[u] = included ? 0 : 1;
    f.n_active += s.active ? 1 : 0;
    f.n_silent += s.silent ? 1 : 0;
    f.n_included += included ? 1 : 0;
  }
  if (f.n_included == 0 && f.n_active > 0) {
    // Every remaining user is quarantined: streaming to nobody serves no
    // one, so treat the frame as a forced re-probe of all of them.
    for (std::size_t u = 0; u < f.n_users; ++u)
      exclude_[u] = users_[u].active ? 0 : 1;
    f.n_included = f.n_active;
  }
}

void MulticastSession::decide(Frame& f, const FrameContext& ctx) {
  f.plan = &decision_;
  // No Update keeps frame 0's decision, so nothing reads a later CSI
  // estimate: skip the sweeps (and their rng draws) once it exists.
  if (frozen_) return;
  // Optionally estimate CSI the way the hardware does (SLS sweep + phase
  // retrieval) instead of taking the beacon channels as ground truth.
  const std::vector<linalg::CVector>* csi = f.csi;
  if (cfg_.use_estimated_csi) {
    static obs::Stage& st = obs::stage("session.csi_estimate");
    obs::StageSpan span(st);
    estimated_.resize(f.csi->size());
    for (std::size_t u = 0; u < estimated_.size(); ++u) {
      const beamforming::SweepResult sweep = beamforming::sector_sweep(
          (*f.csi)[u], codebook_, rng_, cfg_.sls_noise_db);
      estimated_[u] = beamforming::estimate_csi(sweep, codebook_).h;
    }
    csi = &estimated_;
  }
  decide_into(*csi, ctx, exclude_, decision_);
  frozen_ = !cfg_.adapt;
}

void MulticastSession::set_air_parameters(const Frame& f) {
  const std::vector<sched::GroupSpec>& groups = f.plan->groups;
  // "No Update" freezes the app-level decision (groups, time allocation,
  // packet schedule), but the 802.11ad firmware keeps training beams and
  // adapting MCS on its own — the link stays alive on pre-defined sectors
  // even though the schedule's rate assumptions have gone stale. Without
  // this, a walking receiver would simply leave the frozen beam, which is
  // not what happens on real hardware. The firmware's knowledge has the
  // same one-beacon staleness as everyone else's: it trains on the last
  // sweep (decision CSI), not on the in-flight channel.
  const bool firmware_sector = !cfg_.adapt && codebook_.size() > 0;
  if (firmware_sector) {
    firmware_beams_.resize(groups.size());
    std::array<std::size_t, 64> idx;
    for (std::size_t g = 0; g < groups.size(); ++g)
      beamforming::group_beam_into(
          beamforming::Scheme::kPredefinedMulticast, *f.csi,
          bit_indices(groups[g].mask, idx), codebook_, cfg_.seed,
          firmware_beams_[g]);
  }

  // Assemble the per-group transmission parameters against the *current*
  // channel (the decision was made on beacon-time CSI). Indices must stay
  // 1:1 with the decision's groups because the assignments reference them;
  // a group whose MCS lookup fails keeps a zero drain rate and the engine
  // drops its packets.
  //
  // A decision that still holds the pass groups_tx_ was built from, under
  // the same MCS margin, has the same groups, beams and bottleneck RSS, so
  // every group keeps its MCS and drain rate (the two non-beacon frames of
  // a beacon period). Only the members whose in-flight channel moved need
  // new losses. The firmware sector retrains every frame, so it never
  // keeps anything.
  const bool keep = !firmware_sector && f.plan->pass != 0 &&
                    f.plan->pass == tx_pass_ &&
                    f.mcs_margin_db == tx_margin_db_ &&
                    tx_truth_.size() == f.n_users;
  const sched::GroupMask moved =
      keep ? sched::changed_rows(*f.truth, tx_truth_) : ~sched::GroupMask{0};
  tx_pass_ = 0;  // groups_tx_ is in flux (a throw leaves nothing to keep)
  resize_recycled(groups_tx_, groups.size(), tx_pool_);
  static obs::Stage& st = obs::stage("session.mcs");
  obs::StageSpan span(st);
  std::uint64_t kept = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const sched::GroupSpec& spec = groups[g];
    emu::GroupTx& tx = groups_tx_[g];
    // Beam actually on the air, and the link RSS its MCS comes from: the
    // firmware's own sector and tracking in No-Update mode; otherwise the
    // decision's beam at beacon-time RSS. Either way minus the margin.
    const beamforming::GroupBeam& air =
        firmware_sector ? firmware_beams_[g] : spec.beam;
    if (!keep) {
      // Per-entry reset of the reused slot: clear reuses the loss vector's
      // capacity; the fields match a fresh GroupTx.
      tx.mask = spec.mask;
      tx.mcs = channel::McsEntry{};
      tx.drain_rate = Mbps{0.0};
      tx.bucket_rate = Mbps{0.0};
      tx.member_loss.clear();
      const auto mcs = channel::select_mcs(air.min_rss - f.mcs_margin_db);
      if (!mcs) continue;
      tx.mcs = *mcs;
      tx.drain_rate = Mbps{mcs->udp_throughput.value * cfg_.rate_scale};
    } else if (tx.drain_rate.value <= 0.0) {
      continue;  // still no MCS
    }
    // The bucket fills at the rate measured for these very members last
    // frame; a new group starts at its drain rate.
    const Mbps measured =
        cfg_.adapt ? planner_.measured_rate(*f.plan, g) : Mbps{0.0};
    tx.bucket_rate = measured.value > 0.0 ? measured : tx.drain_rate;
    if ((spec.mask & moved) == 0) {
      ++kept;
      continue;
    }
    tx.member_loss.clear();
    for (std::size_t u : SetBits{spec.mask}) {
      const Dbm rss = channel::beam_rss((*f.truth)[u], air.beam);
      tx.member_loss.push_back(
          u == kAssociatedUser
              ? emu::associated_loss(rss, tx.mcs)
              : emu::monitor_loss(rss, tx.mcs));
    }
  }
  tx_truth_ = *f.truth;  // element-wise copy-assign: capacities reused
  tx_margin_db_ = f.mcs_margin_db;
  tx_pass_ = f.plan->pass;
  if (obs::enabled()) {
    static obs::Counter& c_kept =
        obs::MetricsRegistry::global().counter("session.air.kept");
    c_kept.add(kept);
  }
}

void MulticastSession::shed(Frame& f, const FrameContext& ctx,
                            const fault::FrameFaults& faults,
                            FrameOutcome& out) {
  // Budget collapse: shed enhancement layers, never the base. Assignments
  // are in transmission-priority order (layer asc), so the airtime
  // estimate fills the base layer first; everything past the collapsed
  // budget is shed unless it is base-layer data, which is always attempted
  // (the layered-coding rationale: a thumbnail beats a freeze).
  const std::vector<sched::UnitAssignment>& scheduled =
      f.plan->unit_map.assignments;
  f.assignments = &scheduled;
  if (faults.budget_scale >= 1.0) return;
  static obs::Stage& st = obs::stage("session.shed");
  obs::StageSpan span(st);
  const Seconds cap = kFrameBudget * faults.budget_scale;
  const double wire = static_cast<double>(cfg_.engine.header_bytes +
                                          cfg_.engine.symbol_size);
  Seconds est = 0.0;
  shed_plan_.clear();
  shed_plan_.reserve(scheduled.size());
  for (const auto& a : scheduled) {
    const Mbps rate = groups_tx_[a.group].drain_rate;
    const Seconds air =
        rate.value > 0.0
            ? rate.seconds_for(wire * static_cast<double>(a.symbols))
            : 0.0;
    const bool base_layer = a.unit_index < ctx.units.size() &&
                            ctx.units[a.unit_index].id.layer == 0;
    if (base_layer || est + air <= cap) {
      shed_plan_.push_back(a);
      est += air;
    } else {
      out.shed_symbols += a.symbols;
    }
  }
  f.assignments = &shed_plan_;
  if (verify::enabled()) {
    // Shedding must only re-partition the plan: every scheduled symbol is
    // either kept for transmission or counted as shed, never both/neither.
    std::size_t total = 0, kept = 0;
    for (const auto& a : scheduled) total += a.symbols;
    for (const auto& a : shed_plan_) kept += a.symbols;
    verify::check(total == kept + out.shed_symbols,
                  "session.shed-conservation", [&] {
                    return "scheduled " + std::to_string(total) +
                           " != kept " + std::to_string(kept) + " + shed " +
                           std::to_string(out.shed_symbols);
                  });
  }
}

void MulticastSession::transmit(const Frame& f, const FrameContext& ctx,
                                const fault::FrameFaults& faults,
                                FrameOutcome& out) {
  // Feedback faults -> engine fault state. Empty masks mean every report
  // arrives; cleared, not reassigned, so they keep their capacity.
  efs_.budget_scale = faults.budget_scale;
  efs_.feedback_lost.clear();
  efs_.blind_fraction.clear();
  for (std::size_t u = 0; f.n_silent > 0 && u < f.n_users; ++u) {
    // Capped exponential backoff: the first silent frame gets the full
    // conservative budget, each further consecutive one half of it.
    const UserState& s = users_[u];
    const int halvings =
        s.silent ? std::min(s.feedback_silent_streak, kBlindBackoffCap) : 0;
    efs_.feedback_lost.push_back(s.silent ? 1 : 0);
    efs_.blind_fraction.push_back(kBlindMakeupFraction /
                                  static_cast<double>(1u << halvings));
  }

  // Peer relay: LoS users forward base-layer symbols to quarantined peers,
  // charged against the same frame budget (DESIGN.md Sec. 4h).
  plan_relays(f, faults);

  {
    static obs::Stage& st = obs::stage("session.transmit");
    obs::StageSpan span(st);
    engine_.run_frame_into(ctx.units, *f.assignments, groups_tx_, f.n_users,
                           rng_, efs_, relays_, tx_result_);
  }
  if (cfg_.adapt)
    planner_.note_measured(*f.plan, tx_result_.measured_rate);
  out.stats = tx_result_.stats;
  out.relayed_symbols = tx_result_.relayed_symbols;
}

void MulticastSession::update_recovery(Frame& f, const FrameContext& ctx,
                                       const fault::FrameFaults& faults) {
  for (std::size_t u = 0; u < f.n_users; ++u) {
    UserState& s = users_[u];
    const bool delayed =
        u < faults.feedback_delayed.size() && faults.feedback_delayed[u] != 0;
    // A delayed report proves the user alive once it lands, so it does not
    // feed the persistent-silence streak; an outright loss does. Departure
    // is not silence either: it resets the streak.
    if (s.silent && s.active && !delayed) ++s.feedback_silent_streak;
    else s.feedback_silent_streak = 0;
  }
  if (cfg_.quarantine_after == 0) return;
  for (UserState& s : users_) s.attempted = false;
  for (const auto& g : groups_tx_) {
    if (g.drain_rate.value <= 0.0) continue;
    for (std::size_t u : SetBits{g.mask}) users_[u].attempted = true;
  }
  for (std::size_t u = 0; u < f.n_users; ++u) {
    UserState& s = users_[u];
    if (!s.active) {
      s.lost_frame_streak = 0;  // churn is not blockage
      continue;
    }
    bool decoded_any = false;
    for (bool b : tx_result_.user_decoded[u]) decoded_any |= b;
    // A relay target's decodes came over the D2D side link, not its own AP
    // ray — they prove the relay worked, not that the direct link
    // recovered, so they must not release the quarantine (that would
    // ping-pong the user between quarantine and dragging every group).
    // Release still happens on re-probe frames, where the target is
    // scheduled directly and never relayed to.
    bool relayed_to = false;
    for (const auto& rl : relays_) relayed_to |= rl.target == u;
    if (decoded_any && !relayed_to) {
      s.lost_frame_streak = 0;
      if (s.quarantined) {
        s.quarantined = false;
        ++f.quarantine_exited;
      }
    } else if (!decoded_any && s.attempted && faults.budget_scale >= 0.5 &&
               !ctx.units.empty()) {
      // Only count frames where delivery was genuinely attempted over a
      // healthy budget — a NIC stall must not quarantine the room.
      if (++s.lost_frame_streak >= cfg_.quarantine_after && !s.quarantined) {
        s.quarantined = true;
        ++f.quarantine_entered;
      }
    }
  }
}

void MulticastSession::score(const Frame& f, const FrameContext& ctx,
                             FrameOutcome& out) {
  const std::size_t n_users = f.n_users;
  out.ssim.assign(n_users, 0.0);
  out.psnr.assign(n_users, 0.0);
  out.decoded_fraction.assign(n_users, 0.0);
  if (f.n_active > 0) {  // an idle frame scores nobody
    static obs::Stage& st = obs::stage("session.quality");
    obs::StageSpan span(st);
    // An outage frame transmitted nothing: receivers render the blank
    // frame, whose references were computed once at context-build time
    // (the SSIM doubles as a quality-model feature), so a long outage
    // stays allocation-free.
    const bool outage = f.plan->groups.empty();
    const auto& decoded_sets = tx_result_.user_decoded;
    for (std::size_t u = 0; u < n_users; ++u) {
      if (!users_[u].active) continue;  // departed: placeholder sample
      if (outage) {
        out.ssim[u] = ctx.content.blank_ssim;
        out.psnr[u] = ctx.blank_psnr;
        continue;
      }
      std::size_t decoded = 0;
      for (bool b : decoded_sets[u]) decoded += b ? 1 : 0;
      out.decoded_fraction[u] =
          ctx.units.empty() ? 0.0
                            : static_cast<double>(decoded) /
                                  static_cast<double>(ctx.units.size());
      // Scores are a pure function of the decoded set, and group members
      // usually decode identical sets: reuse an earlier user's scores
      // (equal fractions first, as a cheap filter) instead of decoding
      // and scoring the same frame again.
      std::size_t twin = u;
      for (std::size_t v = 0; v < u && twin == u; ++v)
        if (users_[v].active &&
            out.decoded_fraction[v] == out.decoded_fraction[u] &&
            decoded_sets[v] == decoded_sets[u])
          twin = v;
      if (twin != u) {
        out.ssim[u] = out.ssim[twin];
        out.psnr[u] = out.psnr[twin];
        continue;
      }
      reconstruct_luma_from_units_into(ctx, decoded_sets[u], recon_ws_,
                                       recon_luma_);
      const quality::Scores q =
          quality::scores(ctx.original.y, ctx.reference, recon_luma_);
      out.ssim[u] = q.ssim;
      out.psnr[u] = q.psnr;
    }
  }
  // Presence and quarantine columns stay empty when nobody is absent or
  // quarantined (the common case).
  const bool any_quarantined =
      std::any_of(users_.begin(), users_.end(),
                  [](const UserState& s) { return s.quarantined; });
  for (const UserState& s : users_) {
    if (f.n_active < n_users) out.user_present.push_back(s.active);
    if (any_quarantined) out.user_quarantined.push_back(s.quarantined);
  }
}

void MulticastSession::flush_telemetry(const Frame& f,
                                       const FrameOutcome& out) const {
  // One batched telemetry flush per frame: every fault seen and every
  // degradation decision taken is visible in the metrics snapshot.
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& c_held = reg.counter("session.csi_held_frames");
  static obs::Counter& c_shed = reg.counter("session.shed_symbols");
  static obs::Counter& c_shed_frames = reg.counter("session.shed_frames");
  static obs::Counter& c_silent = reg.counter("session.feedback_silent_users");
  static obs::Counter& c_q_in = reg.counter("session.quarantine_entered");
  static obs::Counter& c_q_out = reg.counter("session.quarantine_exited");
  static obs::Counter& c_q_probe = reg.counter("session.quarantine_reprobes");
  static obs::Gauge& g_quarantined = reg.gauge("session.quarantined_users");
  static obs::Gauge& g_active = reg.gauge("session.active_users");
  static obs::Counter& c_relay_links = reg.counter("session.relay_links");
  static obs::Counter& c_relayed = reg.counter("session.relayed_symbols");
  c_relay_links.add(relays_.size());
  c_relayed.add(out.relayed_symbols);
  if (f.csi_held) c_held.add(1);
  if (out.shed_symbols > 0) {
    c_shed.add(out.shed_symbols);
    c_shed_frames.add(1);
  }
  c_silent.add(f.n_silent);
  c_q_in.add(f.quarantine_entered);
  c_q_out.add(f.quarantine_exited);
  std::uint64_t probed = 0;
  double quarantined = 0.0;
  for (const UserState& s : users_) {
    probed += (s.quarantined && s.active) ? 1 : 0;
    quarantined += s.quarantined ? 1.0 : 0.0;
  }
  if (f.reprobe && f.n_included > 0)
    c_q_probe.add(probed + f.quarantine_exited);
  g_quarantined.set(quarantined);
  g_active.set(static_cast<double>(f.n_active));
}

void MulticastSession::plan_relays(const Frame& f,
                                   const fault::FrameFaults& faults) {
  relays_.clear();
  // Relaying needs the rateless code: a systematic-mode relayer could only
  // repeat the exact indices it holds, which the engine's duplication math
  // already covers.
  if (!cfg_.relay.enabled || !cfg_.engine.source_coding) return;
  const auto down = [&](std::size_t u) {
    return u < faults.relay_down.size() && faults.relay_down[u] != 0;
  };
  for (std::size_t t = 0; t < f.n_users; ++t) {
    // Targets: quarantined users sitting out this frame (on re-probe
    // frames they are scheduled directly instead — exclude_[t] == 0).
    if (!users_[t].active || !users_[t].quarantined || exclude_[t] == 0)
      continue;
    // Quality-aware relayer pick: the strongest-RSS scheduled peer. Its own
    // AP link bounds the D2D budget we charge, so a marginal user never
    // burns airtime relaying.
    std::size_t best = f.n_users;
    double best_mw = 0.0;
    for (std::size_t r = 0; r < f.n_users; ++r) {
      if (r == t || !users_[r].active || exclude_[r] != 0 || down(r))
        continue;
      const double mw = (*f.csi)[r].norm_sq();
      if (std::isfinite(mw) && mw > best_mw) {
        best_mw = mw;
        best = r;
      }
    }
    if (best == f.n_users || best_mw <= 0.0) continue;
    const Dbm rss = Dbm::from_milliwatts(best_mw);
    if (rss < kMinRelayerRss) continue;
    const auto mcs = channel::select_mcs(rss - f.mcs_margin_db);
    if (!mcs) continue;
    relays_.push_back(emu::RelayLink{
        best, t, Mbps{mcs->udp_throughput.value * cfg_.rate_scale},
        kRelayLoss});
  }
}

bool MulticastSession::advance_attachment(std::size_t u, std::size_t n_aps,
                                          std::uint32_t frame_id,
                                          bool beacon_ok) {
  const auto mw = [&](std::size_t a) {
    return ap_rss_mw_[a * users_.size() + u];
  };
  const auto dbm = [](double m) {
    return m > 0.0 ? 10.0 * std::log10(m) : -400.0;
  };
  UserState& s = users_[u];
  const std::size_t serving = s.serving_ap;
  const double serving_dbm = dbm(mw(serving));
  const bool weak = serving_dbm < kDegradeFloorDbm;
  switch (s.attach_state) {
    case ApAttachState::kAttached:
      if (weak) {
        if (++s.weak_streak >= kDegradeAfter)
          s.attach_state = ApAttachState::kDegraded;
      } else {
        s.weak_streak = 0;
      }
      break;
    case ApAttachState::kDegraded: {
      if (!weak) {
        s.attach_state = ApAttachState::kAttached;
        s.weak_streak = 0;
        break;
      }
      // A probe starts only off a healthy beacon, past the dwell window,
      // and with an alternate clearing the full hysteresis bar. Serial
      // comparison: dwell_until may sit across the u32 frame-id wrap.
      if (!beacon_ok || transport::seq_less(frame_id, s.dwell_until))
        break;
      std::size_t alt = serving;
      double alt_mw = 0.0;
      for (std::size_t a = 0; a < n_aps; ++a) {
        if (a == serving) continue;
        if (mw(a) > alt_mw) {
          alt_mw = mw(a);
          alt = a;
        }
      }
      if (alt != serving && dbm(alt_mw) >= serving_dbm + kHysteresisDb) {
        s.attach_state = ApAttachState::kProbing;
        s.probe_target = static_cast<std::uint8_t>(alt);
        s.probe_countdown = kProbeFrames;
      }
      break;
    }
    case ApAttachState::kProbing: {
      // Make-before-break: the user keeps streaming from the old AP
      // while the alternate trains. A lost beacon pauses the probe clock
      // rather than committing on stale information.
      if (!beacon_ok) break;
      const double tgt_dbm = dbm(mw(s.probe_target));
      if (tgt_dbm < serving_dbm + 0.5 * kHysteresisDb) {
        // Target fell below half the bar mid-probe: abort, no flap.
        s.attach_state =
            weak ? ApAttachState::kDegraded : ApAttachState::kAttached;
        break;
      }
      if (--s.probe_countdown <= 0)
        s.attach_state = ApAttachState::kHandingOff;
      break;
    }
    case ApAttachState::kHandingOff: {
      // FST-style switch committed at the frame boundary. Quarantine,
      // feedback streaks, and warm-start state all survive untouched.
      s.serving_ap = s.probe_target;
      s.attach_state = ApAttachState::kAttached;
      s.weak_streak = 0;
      // Capped exponential dwell: back-to-back handoffs double the
      // cooldown so a user on an AP coverage boundary cannot ping-pong.
      const auto base =
          static_cast<std::uint32_t>(cfg_.handoff.min_dwell_frames);
      if (s.last_handoff_frame != kNeverHandedOff &&
          transport::seq_distance(s.last_handoff_frame, frame_id) < 4 * base)
        s.handoff_streak = std::min(s.handoff_streak + 1, kBackoffCap);
      else
        s.handoff_streak = 0;
      s.dwell_until =
          frame_id + (base << static_cast<unsigned>(s.handoff_streak));
      s.last_handoff_frame = frame_id;
      return true;
    }
  }
  return false;
}

}  // namespace w4k::core
