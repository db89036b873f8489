#include "core/session.h"

#include "beamforming/csi.h"
#include "beamforming/sls.h"
#include "channel/array.h"
#include "channel/multi_ap.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "verify/invariants.h"

#include <algorithm>
#include <chrono>
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

void SessionConfig::validate(std::size_t codebook_beams,
                             std::size_t n_users) const {
  auto bad = [](const std::string& field, const std::string& msg) {
    throw std::invalid_argument("SessionConfig." + field + ": " + msg);
  };
  // `!(x > 0)` style so NaN fails too.
  if (!(rate_scale > 0.0))
    bad("rate_scale", "must be > 0 (got " + std::to_string(rate_scale) + ")");
  if (!(engine.frame_budget > 0.0))
    bad("engine.frame_budget",
        "must be > 0 s (got " + std::to_string(engine.frame_budget) + ")");
  if (!(makeup_margin >= 0.0 && makeup_margin < 1.0))
    bad("makeup_margin",
        "must be in [0, 1) (got " + std::to_string(makeup_margin) + ")");
  if (engine.symbol_size == 0) bad("engine.symbol_size", "must be > 0");
  if (engine.queue_capacity_bytes == 0)
    bad("engine.queue_capacity_bytes", "must be > 0");
  if (!(sls_noise_db >= 0.0))
    bad("sls_noise_db",
        "must be >= 0 dB (got " + std::to_string(sls_noise_db) + ")");
  if (!(lambda >= 0.0))
    bad("lambda", "must be >= 0 (got " + std::to_string(lambda) + ")");
  if (!(decide_deadline_ms >= 0.0) || !std::isfinite(decide_deadline_ms))
    bad("decide_deadline_ms",
        "must be a finite value >= 0 ms (got " +
            std::to_string(decide_deadline_ms) + ")");
  if (!(stale_csi_backoff_db >= 0.0))
    bad("stale_csi_backoff_db",
        "must be >= 0 dB (got " + std::to_string(stale_csi_backoff_db) + ")");
  if (!(blind_makeup_fraction >= 0.0 && blind_makeup_fraction <= 1.0))
    bad("blind_makeup_fraction",
        "must be in [0, 1] (got " + std::to_string(blind_makeup_fraction) +
            ")");
  if (blind_backoff_cap < 0 || blind_backoff_cap > 30)
    bad("blind_backoff_cap",
        "must be in [0, 30] (got " + std::to_string(blind_backoff_cap) + ")");
  if (quarantine_after < 0)
    bad("quarantine_after",
        "must be >= 0 (got " + std::to_string(quarantine_after) + ")");
  if (quarantine_reprobe_period < 1)
    bad("quarantine_reprobe_period",
        "must be >= 1 (got " + std::to_string(quarantine_reprobe_period) +
            ")");
  if (handoff.n_aps < 1 || handoff.n_aps > channel::kMaxAps)
    bad("handoff.n_aps",
        "must be in [1, " + std::to_string(channel::kMaxAps) + "] (got " +
            std::to_string(handoff.n_aps) + ")");
  if (!(handoff.hysteresis_db >= 0.0))
    bad("handoff.hysteresis_db",
        "must be >= 0 dB (got " + std::to_string(handoff.hysteresis_db) + ")");
  if (!std::isfinite(handoff.degrade_floor_dbm))
    bad("handoff.degrade_floor_dbm", "must be finite");
  if (handoff.degrade_after < 1)
    bad("handoff.degrade_after",
        "must be >= 1 (got " + std::to_string(handoff.degrade_after) + ")");
  if (handoff.probe_frames < 1)
    bad("handoff.probe_frames",
        "must be >= 1 (got " + std::to_string(handoff.probe_frames) + ")");
  if (handoff.min_dwell_frames < 1)
    bad("handoff.min_dwell_frames",
        "must be >= 1 (got " + std::to_string(handoff.min_dwell_frames) + ")");
  if (handoff.backoff_cap < 0 || handoff.backoff_cap > 20)
    bad("handoff.backoff_cap",
        "must be in [0, 20] (got " + std::to_string(handoff.backoff_cap) + ")");
  if (!(relay.loss >= 0.0 && relay.loss < 1.0))
    bad("relay.loss",
        "must be in [0, 1) (got " + std::to_string(relay.loss) + ")");
  if (!std::isfinite(relay.min_relayer_rss_dbm))
    bad("relay.min_relayer_rss_dbm", "must be finite");
  if (relay.enabled && handoff.n_aps <= 1 && quarantine_after == 0)
    bad("relay.enabled",
        "peer relay targets quarantined users: with a single AP and "
        "quarantine_after == 0 there is never a relay target (enable "
        "quarantine or add APs)");
  loss.validate();  // throws "LossModel.<field>: ..." on bad parameters
  if (use_estimated_csi && codebook_beams != kUnknown &&
      codebook_beams < channel::kDefaultApAntennas)
    bad("use_estimated_csi",
        "CSI estimation needs a codebook with at least one beam per "
        "antenna (" +
            std::to_string(codebook_beams) + " beams < " +
            std::to_string(channel::kDefaultApAntennas) + " antennas)");
  if (n_users != kUnknown && n_users > 0 && associated_user >= n_users)
    bad("associated_user",
        "out of range (" + std::to_string(associated_user) + " >= " +
            std::to_string(n_users) + " users)");
}

MulticastSession::MulticastSession(const SessionConfig& cfg,
                                   model::QualityModel& quality,
                                   beamforming::Codebook codebook)
    : cfg_(cfg),
      quality_(quality),
      codebook_(std::move(codebook)),
      engine_(cfg.engine),
      rng_(cfg.seed),
      beam_cache_(cfg.scheme, cfg.seed) {
  cfg_.validate(codebook_.size());
}

void MulticastSession::reset() {
  frozen_.reset();
  last_measured_.clear();
  beam_cache_.clear();
  prev_alloc_.clear();
  prev_total_time_ = 0.0;
  prev_n_users_ = 0;
  engine_.clear_backlog();
  rng_.reseed(cfg_.seed);
  next_frame_id_ = 0;
  held_csi_.clear();
  feedback_silent_streak_.clear();
  lost_frame_streak_.clear();
  quarantined_.clear();
  serving_ap_.clear();
  attach_state_.clear();
  weak_streak_.clear();
  probe_target_.clear();
  probe_countdown_.clear();
  dwell_until_.clear();
  handoff_streak_.clear();
  last_handoff_frame_.clear();
  relays_.clear();
  group_pool_.clear();
  tx_pool_.clear();
}

void MulticastSession::ensure_user_state(std::size_t n_users) {
  if (feedback_silent_streak_.size() == n_users) return;
  // Churn: resize in place so surviving user indices keep their quarantine
  // flag and silence/loss streaks — a user who was blocked before a
  // neighbor joined is still blocked after. Only index-keyed caches whose
  // meaning depends on the user count are dropped.
  feedback_silent_streak_.resize(n_users, 0);
  lost_frame_streak_.resize(n_users, 0);
  quarantined_.resize(n_users, 0);
  serving_ap_.resize(n_users, kUnattached);
  attach_state_.resize(n_users, ApAttachState::kAttached);
  weak_streak_.resize(n_users, 0);
  probe_target_.resize(n_users, 0);
  probe_countdown_.resize(n_users, 0);
  dwell_until_.resize(n_users, 0);
  handoff_streak_.resize(n_users, 0);
  last_handoff_frame_.resize(n_users, kNeverHandedOff);
  held_csi_.clear();
  prev_alloc_.clear();
  prev_total_time_ = 0.0;
  prev_n_users_ = 0;
}

namespace {

/// Resize a vector of buffer-owning elements without churning the heap:
/// shrinking moves the victims into `pool` (their buffers survive),
/// growing pulls them back, so a group-count swing costs nothing once
/// both shapes have been seen. Plain resize would destroy + re-allocate.
template <class T>
void resize_recycled(std::vector<T>& v, std::size_t n, std::vector<T>& pool) {
  while (v.size() > n) {
    pool.push_back(std::move(v.back()));
    v.pop_back();
  }
  while (v.size() < n) {
    if (pool.empty()) {
      v.emplace_back();
    } else {
      v.push_back(std::move(pool.back()));
      pool.pop_back();
    }
  }
  // Pay for the worst future shrink (parking every element) now, at
  // growth time: growth to a new high-water allocates anyway, so a later
  // shrink-to-zero stays heap-free.
  if (pool.capacity() < v.size() + pool.size())
    pool.reserve(v.size() + pool.size());
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
  // Anytime budget: beamforming may defer optional merge candidates past
  // ~45% of the budget, the allocator returns best-so-far past ~90%, and
  // the remaining slack absorbs unit mapping. A zero deadline arms
  // nothing — decide_into() then never reads the clock, which is what keeps
  // its output a pure function of the inputs.
  sched::OptimizerConfig opt_cfg = cfg_.optimizer;
  std::optional<std::chrono::steady_clock::time_point> beam_deadline;
  if (cfg_.decide_deadline_ms > 0.0) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto budget = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(cfg_.decide_deadline_ms));
    beam_deadline = t0 + budget * 45 / 100;
    opt_cfg.deadline = t0 + budget * 90 / 100;
  }
  {
    // Group beamforming. Every subset's beam derives its RNG from
    // (cfg_.seed, member bitmask), so the result is a pure function of the
    // CSI and config — the cache below and the ThreadPool-parallel miss
    // computation are bit-identical to a serial, uncached enumeration
    // (sched::enumerate_groups, the property suites' reference).
    static obs::Stage& st = obs::stage("session.beamform");
    obs::StageSpan span(st);
    // enum_cfg_ is a member so the exclude vector's capacity survives
    // across frames; copy-assign never shrinks, so this is allocation-free
    // once warm.
    enum_cfg_ = cfg_.group_enum;
    enum_cfg_.exclude.assign(exclude.begin(), exclude.end());
    // Each user's serving AP partitions the groups so none spans APs. With
    // one AP every id is 0 and the filter admits every subset; a session
    // that has never stepped has no attachments and no partition.
    enum_cfg_.partition.assign(serving_ap_.begin(), serving_ap_.end());
    enum_cfg_.deadline = beam_deadline;
    ThreadPool* pool = &ThreadPool::shared();
    const std::span<const sched::GroupSpec> emitted =
        beam_cache_.enumerate_into(channels, codebook_, enum_cfg_, pool,
                                   sched_ws_);
    // Copy out of the workspace pool through the recycling resize:
    // copy-assignment over reused GroupSpec elements keeps their member /
    // beam buffers' capacity across frames, and shrunk elements survive
    // in group_pool_ for the next reprobe-frame growth.
    resize_recycled(d.groups, emitted.size(), group_pool_);
    for (std::size_t g = 0; g < emitted.size(); ++g) d.groups[g] = emitted[g];
    // Scale Table 2 rates to the frame resolution before any byte math.
    for (auto& g : d.groups)
      g.beam.rate = Mbps{g.beam.rate.value * cfg_.rate_scale};
  }

  if (verify::enabled()) {
    // Quarantined/excluded users must never appear in a scheduled group —
    // a single stale cache entry here would leak traffic to a silent user.
    for (std::size_t g = 0; g < d.groups.size(); ++g)
      for (std::size_t u : d.groups[g].members)
        verify::check(u < exclude.size() && exclude[u] == 0,
                      "session.excluded-user-scheduled", [&] {
                        return "group " + std::to_string(g) +
                               " contains excluded user " + std::to_string(u);
                      });
    // Groups must never span APs: one radio serves one beam, and a member
    // attached elsewhere would hear nothing while dragging the group MCS.
    const auto& partition = enum_cfg_.partition;
    if (!partition.empty()) {
      for (std::size_t g = 0; g < d.groups.size(); ++g) {
        const auto& members = d.groups[g].members;
        for (std::size_t u : members)
          verify::check(
              u < partition.size() &&
                  partition[u] == partition[members.front()],
              "session.group-spans-aps", [&] {
                return "group " + std::to_string(g) + " mixes AP " +
                       std::to_string(partition[members.front()]) +
                       " and AP " + std::to_string(partition[u]) +
                       " (user " + std::to_string(u) + ")";
              });
      }
    }
  }

  if (d.groups.empty()) {
    // Deep outage: nothing schedulable. A reused decision must not leak
    // the previous frame's plan (a fresh Decision is all-empty here).
    d.allocation.reset(0, 0);
    d.unit_map.assignments.clear();
    // Row-wise clear: emptying each row (rather than dropping the outer
    // vectors) keeps the row buffers, so the first schedulable frame after
    // an outage re-fills them without touching the heap.
    for (auto& row : d.unit_map.user_symbols) row.clear();
    for (auto& row : d.unit_map.user_decodes) row.clear();
    d.unit_map.leftover_symbols = 0;
    return;
  }

  sched::AllocProblem problem;
  problem.groups = d.groups;
  problem.n_users = channels.size();
  problem.content = ctx.content;
  problem.time_budget =
      cfg_.engine.frame_budget * (1.0 - cfg_.makeup_margin);
  problem.lambda = cfg_.lambda;

  // Remap the previous frame's allocation onto the surviving groups (by
  // member bitmask) to warm-start the optimizer. Only offered when at least
  // half of the previous airtime maps onto a still-existing group — past
  // that the landscape has shifted enough that the cold multi-start is the
  // better bet.
  const auto group_mask = [](const sched::GroupSpec& g) {
    sched::GroupMask mask = 0;
    for (std::size_t u : g.members) mask |= sched::GroupMask{1} << u;
    return mask;
  };
  const std::vector<double>* warm = nullptr;
  if (cfg_.optimized_schedule && prev_total_time_ > 0.0 &&
      prev_n_users_ == channels.size()) {
    warm_vec_.assign(d.groups.size() * video::kNumLayers, 0.0);
    double covered = 0.0;
    for (std::size_t g = 0; g < d.groups.size(); ++g) {
      const sched::GroupMask mask = group_mask(d.groups[g]);
      const auto it = std::lower_bound(
          prev_alloc_.begin(), prev_alloc_.end(), mask,
          [](const PrevAlloc& e, sched::GroupMask m) { return e.mask < m; });
      if (it == prev_alloc_.end() || it->mask != mask) continue;
      for (std::size_t j = 0; j < video::kNumLayers; ++j) {
        warm_vec_[g * video::kNumLayers + j] = it->t[j];
        covered += it->t[j];
      }
    }
    if (covered >= 0.5 * prev_total_time_) warm = &warm_vec_;
  }

  {
    static obs::Stage& st = obs::stage("session.allocate");
    obs::StageSpan span(st);
    if (cfg_.optimized_schedule)
      sched::optimize_allocation_into(problem, quality_, d.allocation,
                                      opt_cfg, warm);
    else
      sched::round_robin_allocation_into(problem, quality_, d.allocation);
  }

  // Remember this allocation for the next frame's warm start. Groups are
  // emitted in ascending-mask order, so the rebuilt list stays sorted for
  // the binary search above.
  prev_alloc_.clear();
  prev_total_time_ = 0.0;
  prev_n_users_ = channels.size();
  for (std::size_t g = 0; g < d.groups.size(); ++g) {
    const sched::LayerArray& t = d.allocation.time(g);
    prev_alloc_.push_back(PrevAlloc{group_mask(d.groups[g]), t});
    for (double v : t) prev_total_time_ += v;
  }
  {
    static obs::Stage& st = obs::stage("session.unitmap");
    obs::StageSpan span(st);
    sched::map_to_units_into(d.groups, d.allocation.bytes_rows(), ctx.units,
                             channels.size(), cfg_.engine.symbol_size,
                             d.unit_map);
  }
}

void MulticastSession::step_into(
    std::span<const std::vector<linalg::CVector>> decision_stacks,
    std::span<const std::vector<linalg::CVector>> true_stacks,
    const FrameContext& ctx, const fault::FrameFaults& faults,
    FrameOutcome& out) {
  // Field-by-field reset (not `out = {}`) so a reused outcome's vectors
  // keep their capacity.
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

  // --- Inputs: every shape, the config and every fault mask are checked
  // before any state changes, so a rejected call leaves the session as it
  // was. -------------------------------------------------------------------
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
  cfg_.validate(SessionConfig::kUnknown, n_users);
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
  ensure_user_state(n_users);
  const std::uint32_t frame_id = next_frame_id_++;

  static obs::Stage& st_frame = obs::stage("session.frame");
  obs::StageSpan frame_span(st_frame);

  // --- AP attachment: best-case beacon RSS per (ap, user) — the same
  // beacon-time signal the degradation ladder runs on; non-finite
  // (corrupt-beacon) entries count as unreachable, so a poisoned beacon can
  // never look attractive. Handoff beacons share the fate of CSI beacons:
  // either fault freezes the attachment machine for the frame (streaming
  // continues on the serving AP — that is what make-before-break buys). --
  ap_rss_mw_.assign(n_aps * n_users, 0.0);
  for (std::size_t a = 0; a < n_aps; ++a)
    for (std::size_t u = 0; u < n_users; ++u) {
      const double mw = decision_stacks[a][u].norm_sq();
      if (std::isfinite(mw)) ap_rss_mw_[a * n_users + u] = mw;
    }
  const bool beacon_ok = !faults.handoff_beacon_lost && !faults.csi_stale;
  out.handoffs =
      advance_attachments(n_users, n_aps, ap_rss_mw_, frame_id, beacon_ok);

  // Serving-AP view of the room: the rest of the frame path (CSI hold,
  // ladder, scheduler, engine) sees each user through their serving ray
  // only, and the partition keeps the enumerator from grouping across APs.
  // With one AP everyone is on AP 0 and the stack is the view.
  const std::vector<linalg::CVector>* decision_view = &decision_stacks[0];
  const std::vector<linalg::CVector>* truth_view = &true_stacks[0];
  if (n_aps > 1) {
    eff_decision_.resize(n_users);
    eff_truth_.resize(n_users);
    for (std::size_t u = 0; u < n_users; ++u) {
      eff_decision_[u] = decision_stacks[serving_ap_[u]][u];
      eff_truth_[u] = true_stacks[serving_ap_[u]][u];
    }
    decision_view = &eff_decision_;
    truth_view = &eff_truth_;
    out.user_ap.assign(serving_ap_.begin(), serving_ap_.end());
    if (obs::enabled()) {
      auto& reg = obs::MetricsRegistry::global();
      static obs::Counter& c_ho = reg.counter("session.handoffs");
      static obs::Counter& c_probe = reg.counter("session.handoff_probes");
      if (out.handoffs > 0) c_ho.add(out.handoffs);
      std::uint64_t probing = 0;
      for (std::size_t u = 0; u < n_users; ++u)
        probing += attach_state_[u] == ApAttachState::kProbing ? 1 : 0;
      c_probe.add(probing);
    }
  }
  const std::vector<linalg::CVector>& decision_channels = *decision_view;
  const std::vector<linalg::CVector>& true_channels = *truth_view;

  // --- CSI health: hold the last good beamweights over a missed or
  // corrupt beacon instead of deciding on garbage. ------------------------
  const bool csi_finite = all_finite(decision_channels);
  const std::vector<linalg::CVector>* decision_base = &decision_channels;
  std::vector<linalg::CVector> sanitized;
  bool csi_held = false;
  if (faults.csi_stale || !csi_finite) {
    if (held_csi_.size() == n_users) {
      decision_base = &held_csi_;
      csi_held = true;
    } else if (!csi_finite) {
      // Nothing to fall back to: zero the poisoned entries. The affected
      // users enumerate as unreachable (outage) rather than NaN.
      sanitized = decision_channels;
      for (auto& h : sanitized)
        for (std::size_t n = 0; n < h.size(); ++n)
          if (!std::isfinite(h[n].real()) || !std::isfinite(h[n].imag()))
            h[n] = linalg::Complex(0.0, 0.0);
      decision_base = &sanitized;
    }
  } else {
    held_csi_ = decision_channels;  // fresh and finite: new fallback point
  }
  // Stale beamweights deserve a conservative MCS.
  const double mcs_margin_db =
      cfg_.mcs_margin_db + (csi_held ? cfg_.stale_csi_backoff_db : 0.0);

  // --- Active / quarantine bookkeeping -> group-optimizer exclusions ----
  const auto active = [&](std::size_t u) {
    return faults.user_active.empty() || faults.user_active[u] != 0;
  };
  const bool reprobe_frame =
      cfg_.quarantine_after > 0 &&
      frame_id % static_cast<std::uint32_t>(cfg_.quarantine_reprobe_period) ==
          0;
  exclude_.assign(n_users, 0);
  std::size_t n_included = 0;
  std::size_t n_active = 0;
  for (std::size_t u = 0; u < n_users; ++u) {
    const bool act = active(u);
    n_active += act ? 1 : 0;
    const bool inc = act && (quarantined_[u] == 0 || reprobe_frame);
    exclude_[u] = inc ? 0 : 1;
    n_included += inc ? 1 : 0;
  }
  if (n_included == 0 && n_active > 0) {
    // Every remaining user is quarantined: streaming to nobody serves no
    // one, so treat the frame as a forced re-probe of all of them.
    for (std::size_t u = 0; u < n_users; ++u) exclude_[u] = active(u) ? 0 : 1;
    n_included = n_active;
  }

  out.frame_id = frame_id;
  out.csi_held = csi_held;
  const auto fill_presence = [&] {
    if (n_active < n_users) {
      out.user_present.assign(n_users, false);
      for (std::size_t u = 0; u < n_users; ++u) out.user_present[u] = active(u);
    }
    bool any_quarantined = false;
    for (std::size_t u = 0; u < n_users; ++u)
      any_quarantined |= quarantined_[u] != 0;
    if (any_quarantined) {
      out.user_quarantined.assign(n_users, false);
      for (std::size_t u = 0; u < n_users; ++u)
        out.user_quarantined[u] = quarantined_[u] != 0;
    }
  };

  if (n_active == 0) {
    // Everyone left: an idle frame, not an error. Frame ids keep counting.
    out.ssim.assign(n_users, 0.0);
    out.psnr.assign(n_users, 0.0);
    out.decoded_fraction.assign(n_users, 0.0);
    fill_presence();
    return;
  }

  // Optionally estimate CSI the way the hardware does (SLS sweep + phase
  // retrieval) instead of taking the beacon channels as ground truth.
  const std::vector<linalg::CVector>* decision_csi = decision_base;
  std::vector<linalg::CVector> estimated;
  if (cfg_.use_estimated_csi) {
    static obs::Stage& st = obs::stage("session.csi_estimate");
    obs::StageSpan span(st);
    estimated.reserve(decision_base->size());
    for (const auto& h : *decision_base) {
      const beamforming::SweepResult sweep =
          beamforming::sector_sweep(h, codebook_, rng_, cfg_.sls_noise_db);
      estimated.push_back(beamforming::estimate_csi(sweep, codebook_).h);
    }
    decision_csi = &estimated;
  }

  const Decision* decision = nullptr;
  if (!cfg_.adapt) {
    if (!frozen_) {
      Decision first;
      decide_into(*decision_csi, ctx, exclude_, first);
      frozen_ = std::move(first);
    }
    decision = &*frozen_;
  } else {
    decide_into(*decision_csi, ctx, exclude_, decision_);
    decision = &decision_;
  }

  // "No Update" freezes the app-level decision (groups, time allocation,
  // packet schedule), but the 802.11ad firmware keeps training beams and
  // adapting MCS on its own — the link stays alive on pre-defined sectors
  // even though the schedule's rate assumptions have gone stale. Without
  // this, a walking receiver would simply leave the frozen beam, which is
  // not what happens on real hardware. The firmware's knowledge has the
  // same one-beacon staleness as everyone else's: it trains on the last
  // sweep (decision channels), not on the in-flight channel.
  std::vector<linalg::CVector> fallback_beams;
  if (!cfg_.adapt && codebook_.size() > 0) {
    fallback_beams.reserve(decision->groups.size());
    for (const auto& spec : decision->groups) {
      const linalg::CVector* best = nullptr;
      double best_min = -1e300;
      for (std::size_t k = 0; k < codebook_.size(); ++k) {
        double min_rss = 1e300;
        for (std::size_t u : spec.members)
          min_rss = std::min(
              min_rss,
              channel::beam_rss((*decision_base)[u], codebook_[k]).value);
        if (min_rss > best_min) {
          best_min = min_rss;
          best = &codebook_[k];
        }
      }
      fallback_beams.push_back(best != nullptr ? *best : spec.beam.beam);
    }
  }

  out.optimizer_objective = decision->allocation.objective;

  if (decision->groups.empty()) {
    // Outage frame: receivers render the blank frame.
    static obs::Stage& st = obs::stage("session.quality");
    obs::StageSpan span(st);
    // Both references were computed once at context-build time (the SSIM
    // doubles as a quality-model feature), so a long outage stays
    // allocation-free.
    const double s = ctx.content.blank_ssim;
    const double p = ctx.blank_psnr;
    out.ssim.assign(n_users, 0.0);
    out.psnr.assign(n_users, 0.0);
    out.decoded_fraction.assign(n_users, 0.0);
    for (std::size_t u = 0; u < n_users; ++u) {
      if (!active(u)) continue;
      out.ssim[u] = s;
      out.psnr[u] = p;
    }
    fill_presence();
    return;
  }

  // Assemble the per-group transmission parameters against the *current*
  // channel (the decision was made on beacon-time CSI). Indices must stay
  // 1:1 with decision->groups because the assignments reference them; a
  // group whose MCS lookup fails keeps a zero drain rate and the engine
  // drops its packets.
  resize_recycled(groups_tx_, decision->groups.size(), tx_pool_);
  {
    static obs::Stage& st = obs::stage("session.mcs");
    obs::StageSpan span(st);
    for (std::size_t g = 0; g < decision->groups.size(); ++g) {
      const auto& spec = decision->groups[g];
      // Per-entry reset of the reused slot: copy-assign / clear reuse the
      // member vectors' capacity; the fields match a fresh GroupTx.
      emu::GroupTx& tx = groups_tx_[g];
      tx.members = spec.members;
      tx.mcs = channel::McsEntry{};
      tx.drain_rate = Mbps{0.0};
      tx.bucket_rate = Mbps{0.0};
      tx.member_loss.clear();
      // Beam actually on the air: the decision's optimized beam, or the
      // firmware-tracked fallback sector in No-Update mode.
      const linalg::CVector& air_beam =
          fallback_beams.empty() ? spec.beam.beam : fallback_beams[g];
      // MCS from the freshest link knowledge available: in No-Update mode
      // the firmware's own tracking (current channel, fallback beam);
      // otherwise the beacon-time decision RSS, minus the mobility margin.
      Dbm link_rss = spec.beam.min_rss;
      if (!fallback_beams.empty()) {
        link_rss = Dbm{1e300};
        for (std::size_t u : spec.members)
          link_rss = std::min(
              link_rss, channel::beam_rss((*decision_base)[u], air_beam));
      }
      if (const auto mcs = channel::select_mcs(link_rss - mcs_margin_db)) {
        tx.mcs = *mcs;
        tx.drain_rate = Mbps{mcs->udp_throughput.value * cfg_.rate_scale};
        tx.bucket_rate = (cfg_.adapt && g < last_measured_.size() &&
                          last_measured_[g].value > 0.0)
                             ? last_measured_[g]
                             : tx.drain_rate;
        for (std::size_t u : spec.members) {
          const Dbm rss = channel::beam_rss(true_channels[u], air_beam);
          tx.member_loss.push_back(
              u == cfg_.associated_user
                  ? emu::associated_loss(cfg_.loss, rss, *mcs)
                  : emu::monitor_loss(cfg_.loss, rss, *mcs));
        }
      }
    }
  }

  // --- Budget collapse: shed enhancement layers, never the base ----------
  // Assignments are in transmission-priority order (layer asc), so the
  // airtime estimate fills the base layer first; everything past the
  // collapsed budget is shed unless it is base-layer data, which is always
  // attempted (the layered-coding rationale: a thumbnail beats a freeze).
  const std::vector<sched::UnitAssignment>* assignments =
      &decision->unit_map.assignments;
  std::vector<sched::UnitAssignment> shed_plan;
  if (faults.budget_scale < 1.0) {
    static obs::Stage& st = obs::stage("session.shed");
    obs::StageSpan span(st);
    const Seconds cap = cfg_.engine.frame_budget * faults.budget_scale;
    const double wire = static_cast<double>(cfg_.engine.header_bytes +
                                            cfg_.engine.symbol_size);
    Seconds est = 0.0;
    shed_plan.reserve(decision->unit_map.assignments.size());
    for (const auto& a : decision->unit_map.assignments) {
      const Mbps rate = groups_tx_[a.group].drain_rate;
      const Seconds air =
          rate.value > 0.0
              ? rate.seconds_for(wire * static_cast<double>(a.symbols))
              : 0.0;
      const bool base_layer =
          a.unit_index < ctx.units.size() &&
          ctx.units[a.unit_index].id.layer == 0;
      if (base_layer || est + air <= cap) {
        shed_plan.push_back(a);
        est += air;
      } else {
        out.shed_symbols += a.symbols;
      }
    }
    assignments = &shed_plan;
    if (verify::enabled()) {
      // Shedding must only re-partition the plan: every scheduled symbol is
      // either kept for transmission or counted as shed, never both/neither.
      std::size_t scheduled = 0, kept = 0;
      for (const auto& a : decision->unit_map.assignments)
        scheduled += a.symbols;
      for (const auto& a : shed_plan) kept += a.symbols;
      verify::check(scheduled == kept + out.shed_symbols,
                    "session.shed-conservation", [&] {
                      return "scheduled " + std::to_string(scheduled) +
                             " != kept " + std::to_string(kept) + " + shed " +
                             std::to_string(out.shed_symbols);
                    });
    }
  }

  // --- Feedback faults -> engine fault state -----------------------------
  emu::FrameFaultState efs;
  efs.frame_id = frame_id;
  efs.budget_scale = faults.budget_scale;
  bool any_silent = false;
  for (std::size_t u = 0; u < n_users; ++u) {
    const bool lost =
        (u < faults.feedback_lost.size() && faults.feedback_lost[u] != 0) ||
        !active(u);  // departed users cannot report either
    if (lost) any_silent = true;
  }
  if (any_silent) {
    efs.feedback_lost.assign(n_users, 0);
    efs.blind_fraction.assign(n_users, cfg_.blind_makeup_fraction);
    for (std::size_t u = 0; u < n_users; ++u) {
      const bool lost =
          (u < faults.feedback_lost.size() && faults.feedback_lost[u] != 0) ||
          !active(u);
      if (!lost) continue;
      efs.feedback_lost[u] = 1;
      // Capped exponential backoff: the first silent frame gets the full
      // conservative budget, each further consecutive one half of it.
      const int halvings =
          std::min(feedback_silent_streak_[u], cfg_.blind_backoff_cap);
      efs.blind_fraction[u] =
          cfg_.blind_makeup_fraction / static_cast<double>(1u << halvings);
    }
  }

  // --- Peer relay: LoS users forward base-layer symbols to quarantined
  // peers, charged against the same frame budget (DESIGN.md Sec. 4h) ------
  plan_relays(*decision_base, n_users, mcs_margin_db, faults);

  {
    static obs::Stage& st = obs::stage("session.transmit");
    obs::StageSpan span(st);
    engine_.run_frame_into(ctx.units, *assignments, groups_tx_, n_users,
                           rng_, efs, relays_, tx_result_);
  }

  if (cfg_.adapt) last_measured_ = tx_result_.measured_rate;

  // --- Cross-frame recovery bookkeeping ---------------------------------
  std::size_t quarantine_entered = 0;
  std::size_t quarantine_exited = 0;
  for (std::size_t u = 0; u < n_users; ++u) {
    const bool lost =
        (u < faults.feedback_lost.size() && faults.feedback_lost[u] != 0) &&
        active(u);
    const bool delayed =
        u < faults.feedback_delayed.size() && faults.feedback_delayed[u] != 0;
    // A delayed report proves the user alive once it lands, so it does not
    // feed the persistent-silence streak; an outright loss does.
    if (lost && !delayed) ++feedback_silent_streak_[u];
    else feedback_silent_streak_[u] = 0;
  }
  if (cfg_.quarantine_after > 0) {
    attempted_.assign(n_users, 0);
    for (const auto& g : groups_tx_) {
      if (g.drain_rate.value <= 0.0) continue;
      for (std::size_t u : g.members) attempted_[u] = 1;
    }
    for (std::size_t u = 0; u < n_users; ++u) {
      if (!active(u)) {
        lost_frame_streak_[u] = 0;  // churn is not blockage
        continue;
      }
      bool decoded_any = false;
      for (bool b : tx_result_.user_decoded[u]) decoded_any |= b;
      // A relay target's decodes came over the D2D side link, not its own
      // AP ray — they prove the relay worked, not that the direct link
      // recovered, so they must not release the quarantine (that would
      // ping-pong the user between quarantine and dragging every group).
      // Release still happens on re-probe frames, where the target is
      // scheduled directly and never relayed to.
      bool relayed_to = false;
      for (const auto& rl : relays_) relayed_to |= rl.target == u;
      if (decoded_any && !relayed_to) {
        lost_frame_streak_[u] = 0;
        if (quarantined_[u]) {
          quarantined_[u] = 0;
          ++quarantine_exited;
        }
      } else if (!decoded_any && attempted_[u] && faults.budget_scale >= 0.5 &&
                 !ctx.units.empty()) {
        // Only count frames where delivery was genuinely attempted over a
        // healthy budget — a NIC stall must not quarantine the room.
        if (++lost_frame_streak_[u] >= cfg_.quarantine_after &&
            quarantined_[u] == 0) {
          quarantined_[u] = 1;
          ++quarantine_entered;
        }
      }
    }
  }

  out.stats = tx_result_.stats;
  out.relayed_symbols = tx_result_.relayed_symbols;
  {
    static obs::Stage& st = obs::stage("session.quality");
    obs::StageSpan span(st);
    out.ssim.assign(n_users, 0.0);
    out.psnr.assign(n_users, 0.0);
    out.decoded_fraction.assign(n_users, 0.0);
    const auto& decoded_sets = tx_result_.user_decoded;
    for (std::size_t u = 0; u < n_users; ++u) {
      if (!active(u)) continue;  // departed: placeholder sample
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
        if (active(v) && out.decoded_fraction[v] == out.decoded_fraction[u] &&
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
  fill_presence();

  // One batched telemetry flush per frame: every fault seen and every
  // degradation decision taken is visible in the metrics snapshot.
  if (obs::enabled()) {
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
    if (csi_held) c_held.add(1);
    if (out.shed_symbols > 0) {
      c_shed.add(out.shed_symbols);
      c_shed_frames.add(1);
    }
    std::uint64_t silent = 0;
    for (auto v : efs.feedback_lost) silent += v ? 1 : 0;
    c_silent.add(silent);
    c_q_in.add(quarantine_entered);
    c_q_out.add(quarantine_exited);
    if (reprobe_frame && n_included > 0) {
      std::uint64_t probed = 0;
      for (std::size_t u = 0; u < n_users; ++u)
        probed += (quarantined_[u] != 0 && active(u)) ? 1 : 0;
      c_q_probe.add(probed + quarantine_exited);
    }
    double quarantined = 0.0;
    for (auto v : quarantined_) quarantined += v ? 1.0 : 0.0;
    g_quarantined.set(quarantined);
    g_active.set(static_cast<double>(n_active));
  }
}

void MulticastSession::plan_relays(
    const std::vector<linalg::CVector>& decision_channels, std::size_t n_users,
    double mcs_margin_db, const fault::FrameFaults& faults) {
  relays_.clear();
  // Relaying needs the rateless code: a systematic-mode relayer could only
  // repeat the exact indices it holds, which the engine's duplication math
  // already covers.
  if (!cfg_.relay.enabled || !cfg_.engine.source_coding) return;
  const auto down = [&](std::size_t u) {
    return u < faults.relay_down.size() && faults.relay_down[u] != 0;
  };
  const auto active = [&](std::size_t u) {
    return faults.user_active.empty() || faults.user_active[u] != 0;
  };
  const auto rss_mw = [&](std::size_t u) {
    const double mw = decision_channels[u].norm_sq();
    return std::isfinite(mw) ? mw : 0.0;
  };
  for (std::size_t t = 0; t < n_users; ++t) {
    // Targets: quarantined users sitting out this frame (on re-probe
    // frames they are scheduled directly instead — exclude_[t] == 0).
    if (!active(t) || quarantined_[t] == 0 || exclude_[t] == 0) continue;
    // Quality-aware relayer pick: the strongest-RSS scheduled peer. Its own
    // AP link bounds the D2D budget we charge, so a marginal user never
    // burns airtime relaying.
    std::size_t best = n_users;
    double best_mw = 0.0;
    for (std::size_t r = 0; r < n_users; ++r) {
      if (r == t || !active(r) || exclude_[r] != 0 || down(r)) continue;
      const double mw = rss_mw(r);
      if (mw > best_mw) {
        best_mw = mw;
        best = r;
      }
    }
    if (best == n_users || best_mw <= 0.0) continue;
    const Dbm rss = Dbm::from_milliwatts(best_mw);
    if (rss.value < cfg_.relay.min_relayer_rss_dbm) continue;
    const auto mcs = channel::select_mcs(rss - mcs_margin_db);
    if (!mcs) continue;
    relays_.push_back(
        emu::RelayLink{best, t, Mbps{mcs->udp_throughput.value * cfg_.rate_scale},
                       cfg_.relay.loss});
  }
}

std::size_t MulticastSession::advance_attachments(
    std::size_t n_users, std::size_t n_aps, const std::vector<double>& rss_mw,
    std::uint32_t frame_id, bool beacon_ok) {
  const auto mw = [&](std::size_t a, std::size_t u) {
    return rss_mw[a * n_users + u];
  };
  const auto dbm = [](double m) {
    return m > 0.0 ? 10.0 * std::log10(m) : -400.0;
  };
  std::size_t handoffs = 0;
  const auto& hc = cfg_.handoff;
  for (std::size_t u = 0; u < n_users; ++u) {
    if (serving_ap_[u] == kUnattached) {
      // Initial AP selection: strongest beacon wins (ties to the lowest
      // id). This runs even with handoff disabled — a multi-AP user always
      // needs an attachment, it just never changes afterwards.
      std::size_t best = 0;
      for (std::size_t a = 1; a < n_aps; ++a)
        if (mw(a, u) > mw(best, u)) best = a;
      serving_ap_[u] = static_cast<std::uint8_t>(best);
      attach_state_[u] = ApAttachState::kAttached;
      weak_streak_[u] = 0;
      continue;
    }
    if (!hc.enabled) continue;
    const std::size_t serving = serving_ap_[u];
    const double serving_dbm = dbm(mw(serving, u));
    const bool weak = serving_dbm < hc.degrade_floor_dbm;
    switch (attach_state_[u]) {
      case ApAttachState::kAttached:
        if (weak) {
          if (++weak_streak_[u] >= hc.degrade_after)
            attach_state_[u] = ApAttachState::kDegraded;
        } else {
          weak_streak_[u] = 0;
        }
        break;
      case ApAttachState::kDegraded: {
        if (!weak) {
          attach_state_[u] = ApAttachState::kAttached;
          weak_streak_[u] = 0;
          break;
        }
        // A probe starts only off a healthy beacon, past the dwell window,
        // and with an alternate clearing the full hysteresis bar. Serial
        // comparison: dwell_until_ may sit across the u32 frame-id wrap.
        if (!beacon_ok || transport::seq_less(frame_id, dwell_until_[u]))
          break;
        std::size_t alt = serving;
        double alt_mw = 0.0;
        for (std::size_t a = 0; a < n_aps; ++a) {
          if (a == serving) continue;
          if (mw(a, u) > alt_mw) {
            alt_mw = mw(a, u);
            alt = a;
          }
        }
        if (alt != serving && dbm(alt_mw) >= serving_dbm + hc.hysteresis_db) {
          attach_state_[u] = ApAttachState::kProbing;
          probe_target_[u] = static_cast<std::uint8_t>(alt);
          probe_countdown_[u] = hc.probe_frames;
        }
        break;
      }
      case ApAttachState::kProbing: {
        // Make-before-break: the user keeps streaming from the old AP
        // while the alternate trains. A lost beacon pauses the probe clock
        // rather than committing on stale information.
        if (!beacon_ok) break;
        const double tgt_dbm = dbm(mw(probe_target_[u], u));
        if (tgt_dbm < serving_dbm + 0.5 * hc.hysteresis_db) {
          // Target fell below half the bar mid-probe: abort, no flap.
          attach_state_[u] =
              weak ? ApAttachState::kDegraded : ApAttachState::kAttached;
          break;
        }
        if (--probe_countdown_[u] <= 0)
          attach_state_[u] = ApAttachState::kHandingOff;
        break;
      }
      case ApAttachState::kHandingOff: {
        // FST-style switch committed at the frame boundary. Quarantine,
        // feedback streaks, and warm-start state all survive untouched.
        serving_ap_[u] = probe_target_[u];
        attach_state_[u] = ApAttachState::kAttached;
        weak_streak_[u] = 0;
        ++handoffs;
        // Capped exponential dwell: back-to-back handoffs double the
        // cooldown so a user on an AP coverage boundary cannot ping-pong.
        const std::uint32_t base =
            static_cast<std::uint32_t>(hc.min_dwell_frames);
        if (last_handoff_frame_[u] != kNeverHandedOff &&
            transport::seq_distance(last_handoff_frame_[u], frame_id) <
                4 * base)
          handoff_streak_[u] = std::min(handoff_streak_[u] + 1, hc.backoff_cap);
        else
          handoff_streak_[u] = 0;
        dwell_until_[u] =
            frame_id + (base << static_cast<unsigned>(handoff_streak_[u]));
        last_handoff_frame_[u] = frame_id;
        break;
      }
    }
  }
  return handoffs;
}

}  // namespace w4k::core
