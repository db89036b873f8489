#include "emu/engine.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "obs/span.h"
#include "verify/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace w4k::emu {
namespace {

/// Latency of one feedback round, deducted from the frame budget before
/// the round's makeup is sent.
constexpr Seconds kFeedbackLatency = 0.8e-3;

/// need_ entry for a user whose feedback report never arrived.
constexpr std::size_t kNoReport = std::numeric_limits<std::size_t>::max();

}  // namespace

void TxEngine::UnitRx::add_innovative(std::size_t k, Rng& rng) {
  ++innovative;
  if (decoded || innovative < k) return;
  // The rng draw happens only on the attempt at exactly k.
  decoded = innovative > k || !rng.chance(1.0 / 256.0);
}

std::size_t TxEngine::UnitRx::need(std::size_t k) const {
  if (decoded) return 0;
  return innovative < k ? k - innovative : 1;
}

TxEngine::TxEngine(const EngineConfig& cfg) : cfg_(cfg) {
  if (cfg.symbol_size == 0)
    throw std::invalid_argument("TxEngine: zero symbol size");
  if (cfg.queue_capacity_bytes == 0)
    throw std::invalid_argument("TxEngine: zero queue capacity");
}

void TxEngine::run_frame_into(
    const std::vector<sched::UnitSpec>& units,
    const std::vector<sched::UnitAssignment>& assignments,
    const std::vector<GroupTx>& groups, std::size_t n_users, Rng& rng,
    const FrameFaultState& faults, const std::vector<RelayLink>& relays,
    FrameTxResult& res) {
  const std::size_t wire = cfg_.header_bytes + cfg_.symbol_size;
  if (!(faults.budget_scale > 0.0 && faults.budget_scale <= 1.0))
    throw std::invalid_argument(
        "run_frame_into: budget_scale outside (0, 1]");
  sched::check_group_masks(groups, n_users, "run_frame_into");
  // The groups that send this frame, ascending (the makeup order).
  active_.clear();
  for (const auto& a : assignments) {
    if (a.group >= groups.size())
      throw std::invalid_argument("run_frame_into: assignment references "
                                  "unknown group");
    active_.push_back(a.group);
  }
  std::sort(active_.begin(), active_.end());
  active_.erase(std::unique(active_.begin(), active_.end()), active_.end());
  // A collapsed transmit budget shrinks the whole frame deadline: the
  // radio simply is not available past this point.
  const Seconds budget = kFrameBudget * faults.budget_scale;
  const auto feedback_lost = [&](std::size_t u) {
    return u < faults.feedback_lost.size() && faults.feedback_lost[u] != 0;
  };

  // Row-by-row result reset so reused rows keep their capacity.
  res.blind_makeup_packets = 0;
  res.relayed_symbols = 0;
  res.stats = FrameTxStats{};
  if (res.user_symbols.size() != n_users) res.user_symbols.resize(n_users);
  if (res.user_decoded.size() != n_users) res.user_decoded.resize(n_users);
  for (auto& row : res.user_symbols) row.assign(units.size(), 0);
  for (auto& row : res.user_decoded) row.assign(units.size(), false);
  res.measured_rate.assign(groups.size(), Mbps{0.0});

  // Reception state: [user][unit]. Assigning an empty-prototype UnitRx over
  // the reused rows keeps each element's have_index capacity. Users are
  // independent, so systematic-mode bitmap setup fans out across the shared
  // pool (each chunk owns disjoint users).
  if (rx_.size() < n_users) rx_.resize(n_users);
  for (std::size_t u = 0; u < n_users; ++u)
    rx_[u].assign(units.size(), UnitRx{});
  if (!cfg_.source_coding) {
    ThreadPool::shared().parallel_for(
        0, n_users, /*grain=*/4, [&](std::size_t b, std::size_t e) {
          for (std::size_t u = b; u < e; ++u)
            for (std::size_t i = 0; i < units.size(); ++i)
              rx_[u][i].have_index.assign(units[i].k_symbols, false);
        });
  }

  // Per-(active group, unit) sent counters, flat [slot * n_units + unit]:
  // systematic symbol sequencing and makeup ownership. A cell is nonzero
  // iff that group actually transmitted that unit (sends are the only
  // increments).
  sent_.assign(active_.size() * units.size(), 0);
  relay_sent_.clear();  // refilled by the relay phase when links exist

  // --- Timeline state -----------------------------------------------------
  Seconds t = 0.0;  // sender-side enqueue clock
  // Drain stale backlog from previous frames first (rate control off):
  // those bytes occupy the radio before anything of this frame moves.
  Seconds drain_free = 0.0;
  if (backlog_bytes_ > 0.0 && backlog_rate_.value > 0.0) {
    const Seconds stale_air = backlog_rate_.seconds_for(backlog_bytes_);
    drain_free = std::min(budget, stale_air);
    backlog_bytes_ = std::max(
        0.0, backlog_bytes_ - backlog_rate_.bytes_in(budget));
  } else {
    backlog_bytes_ = 0.0;
  }

  // FIFO over a flat vector: queue_head_ is the pop cursor (entries behind
  // it are dead but keep the frame's capacity; both reset per frame).
  queue_.clear();
  queue_head_ = 0;
  double queue_bytes = backlog_bytes_;

  buckets_.clear();
  buckets_.reserve(active_.size());
  bucket_clock_.assign(active_.size(), 0.0);
  for (std::size_t gi : active_) {
    const GroupTx& g = groups[gi];
    const Mbps fill = g.bucket_rate.value > 0.0 ? g.bucket_rate : g.drain_rate;
    buckets_.emplace_back(fill, std::max<std::size_t>(wire, cfg_.bucket_packets * wire));
  }

  double new_backlog = 0.0;
  double max_queue_bytes = queue_bytes;  // high-water mark for telemetry
  Mbps last_drain_rate{0.0};
  // Packet-conservation ledger (verify): every offered packet ends up in
  // exactly one of sent / dropped_queue / deferred-to-backlog /
  // abandoned-at-budget.
  std::size_t deferred_packets = 0;
  std::size_t abandoned_packets = 0;

  // Sends one symbol packet of the group in active slot `slot` for unit
  // `ui`. Returns false when the frame budget is exhausted (packet
  // deferred to backlog) and the caller should stop offering packets.
  const auto send_packet = [&](std::size_t slot, std::size_t ui,
                               bool makeup) -> bool {
    ++res.stats.packets_offered;
    if (makeup) ++res.stats.makeup_packets;
    const GroupTx& g = groups[active_[slot]];
    if (g.drain_rate.value <= 0.0) {
      ++res.stats.packets_dropped_queue;
      return true;
    }

    if (cfg_.rate_control) {
      auto& bucket = buckets_[slot];
      if (t > bucket_clock_[slot]) {
        bucket.advance(t - bucket_clock_[slot]);
        bucket_clock_[slot] = t;
      }
      const Seconds wait = bucket.time_until(wire);
      if (wait > 0.0) {
        t += wait;
        bucket.advance(wait);
        bucket_clock_[slot] = t;
      }
      bucket.on_send(wire);
      if (t >= budget) {
        ++abandoned_packets;  // offered, but the frame deadline passed
        return false;
      }
    }

    // Kernel queue admission at enqueue time t (0 when rate control off).
    const Seconds enq = cfg_.rate_control ? t : 0.0;
    while (queue_head_ < queue_.size() &&
           queue_[queue_head_].drain_finish <= enq) {
      queue_bytes -= static_cast<double>(queue_[queue_head_].wire);
      ++queue_head_;
    }
    if (queue_bytes + static_cast<double>(wire) >
        static_cast<double>(cfg_.queue_capacity_bytes)) {
      ++res.stats.packets_dropped_queue;
      return true;
    }

    const Seconds air = g.drain_rate.seconds_for(static_cast<double>(wire));
    const Seconds start = std::max(drain_free, enq);
    const Seconds finish = start + air;
    last_drain_rate = g.drain_rate;

    if (finish > budget) {
      // Misses the frame deadline: rides in the queue into the next frame
      // as stale data (rate control keeps this path essentially unused).
      ++deferred_packets;
      new_backlog += static_cast<double>(wire);
      queue_.push_back(QueueEntry{finish, wire});
      queue_bytes += static_cast<double>(wire);
      max_queue_bytes = std::max(max_queue_bytes, queue_bytes);
      return !cfg_.rate_control;  // with RC, budget is up - stop offering
    }
    drain_free = finish;
    queue_.push_back(QueueEntry{finish, wire});
    queue_bytes += static_cast<double>(wire);
    max_queue_bytes = std::max(max_queue_bytes, queue_bytes);

    ++res.stats.packets_sent;
    res.stats.airtime += air;

    // Which symbol does this packet carry? With source coding every
    // symbol is fresh. Systematic-only, each group cycles its unit's
    // source symbols from the beginning, so overlapping groups duplicate
    // prefixes.
    const std::size_t k = units[ui].k_symbols;
    const std::size_t seq = sent_[slot * units.size() + ui]++;

    std::size_t m = 0;
    for (std::size_t u : SetBits{g.mask}) {
      const double loss = m < g.member_loss.size() ? g.member_loss[m] : 0.0;
      ++m;
      if (rng.chance(loss)) continue;
      UnitRx& state = rx_[u][ui];
      if (cfg_.source_coding) {
        state.add_innovative(k, rng);
      } else if (!state.have_index[seq % k]) {
        state.have_index[seq % k] = true;
        ++state.innovative;
        state.decoded = state.innovative >= k;
      }
    }
    return true;
  };

  // --- Initial pass: the optimizer's schedule ----------------------------
  bool budget_left = true;
  {
    static obs::Stage& st = obs::stage("emu.schedule");
    obs::StageSpan span(st);
    for (const auto& a : assignments) {
      const auto slot = static_cast<std::size_t>(
          std::lower_bound(active_.begin(), active_.end(), a.group) -
          active_.begin());
      for (std::size_t s = 0; s < a.symbols && budget_left; ++s)
        budget_left = send_packet(slot, a.unit_index, /*makeup=*/false);
      if (!budget_left) break;
    }
  }

  // --- Feedback + makeup rounds (Sec. 2.6) --------------------------------
  // Each round starts from one report per user whose feedback arrives: its
  // per-unit need as it stands when the round begins. Makeup sent during
  // the round does not change what the round asks for, so two groups that
  // share a member and a unit each size their makeup from the same
  // report. A silent member costs the group a blind worst-case budget (a
  // fraction of each unit's k, with the session's backoff already applied)
  // in the first round only — repeating the blanket every round would
  // starve reporting users.
  std::size_t makeup_deficit = 0;  // total symbols the receivers asked for
  {
    static obs::Stage& st = obs::stage("emu.makeup");
    obs::StageSpan span(st);
    for (int round = 0; round < kFeedbackRounds && budget_left; ++round) {
      t = std::max(t, drain_free) + kFeedbackLatency;
      if (t >= budget) break;
      if (!cfg_.rate_control) drain_free = std::max(drain_free, t);

      need_.resize(n_users * units.size());
      for (std::size_t u = 0; u < n_users; ++u)
        for (std::size_t ui = 0; ui < units.size(); ++ui)
          need_[u * units.size() + ui] =
              feedback_lost(u) ? kNoReport
                               : rx_[u][ui].need(units[ui].k_symbols);

      bool any = false;
      for (std::size_t ui = 0; ui < units.size() && budget_left; ++ui) {
        for (std::size_t slot = 0; slot < active_.size() && budget_left;
             ++slot) {
          if (sent_[slot * units.size() + ui] == 0)
            continue;  // group doesn't own unit
          // Deficit P: worst reporting member's need for this unit.
          const std::size_t k = units[ui].k_symbols;
          std::size_t deficit = 0;
          std::size_t blind = 0;
          for (std::size_t u : SetBits{groups[active_[slot]].mask}) {
            const std::size_t need = need_[u * units.size() + ui];
            if (need != kNoReport) {
              deficit = std::max(deficit, need);
            } else if (round == 0) {
              // No report: conservative worst case, backed off per frame.
              const double frac = u < faults.blind_fraction.size()
                                      ? faults.blind_fraction[u]
                                      : 0.5;
              blind = std::max(
                  blind, std::max<std::size_t>(
                             1, static_cast<std::size_t>(std::ceil(
                                    static_cast<double>(k) * frac))));
            }
          }
          if (blind > deficit) {
            res.blind_makeup_packets += blind - deficit;
            deficit = blind;
          }
          makeup_deficit += deficit;
          for (std::size_t s = 0; s < deficit && budget_left; ++s) {
            any = true;
            budget_left = send_packet(slot, ui, /*makeup=*/true);
          }
        }
      }
      if (!any) break;
    }
  }

  // --- Peer-relay slots (base layer only) ---------------------------------
  // After the sender's own makeup rounds, each relay link forwards its
  // target's remaining base-layer deficit as freshly re-encoded fountain
  // symbols over the D2D side link. The slot occupies the same 60 GHz
  // medium, so every relay packet extends the shared airtime clock and the
  // loop stops the moment the Eq. 1 budget is exhausted — relayed + direct
  // can never exceed it. Skipped entirely in systematic mode: a relayer
  // can only generate fresh symbols by re-encoding a decoded unit.
  std::size_t relay_offered = 0;
  if (!relays.empty() && cfg_.source_coding) {
    static obs::Stage& st = obs::stage("emu.relay");
    obs::StageSpan span(st);
    relay_sent_.assign(n_users * units.size(), 0);
    for (const auto& rl : relays) {
      if (rl.relayer >= n_users || rl.target >= n_users ||
          rl.relayer == rl.target)
        throw std::invalid_argument("run_frame_into: bad relay link");
      if (rl.rate.value <= 0.0) continue;
      const Seconds air = rl.rate.seconds_for(static_cast<double>(wire));
      for (std::size_t ui = 0; ui < units.size(); ++ui) {
        if (units[ui].id.layer != 0) continue;        // base layer only
        if (!rx_[rl.relayer][ui].decoded) continue;   // nothing to re-encode
        UnitRx& tgt = rx_[rl.target][ui];
        const std::size_t k = units[ui].k_symbols;
        const std::size_t need = tgt.need(k);
        for (std::size_t s = 0; s < need; ++s) {
          if (drain_free + air > budget) break;  // budget exhausted
          drain_free += air;
          ++relay_offered;
          ++res.stats.packets_offered;
          ++res.stats.packets_sent;
          ++res.stats.relay_packets;
          ++relay_sent_[rl.target * units.size() + ui];
          res.stats.airtime += air;
          res.stats.relay_airtime += air;
          if (rng.chance(rl.loss)) continue;  // lost on the side link
          tgt.add_innovative(k, rng);
          ++res.relayed_symbols;
        }
        if (drain_free + air > budget) break;
      }
    }
  }

  // --- Decode + measurement ----------------------------------------------
  // Per-user evaluation is embarrassingly parallel (reads only that user's
  // reception state, writes only that user's result rows).
  {
    static obs::Stage& st = obs::stage("emu.evaluate");
    obs::StageSpan span(st);
    ThreadPool::shared().parallel_for(
        0, n_users, /*grain=*/4, [&](std::size_t b, std::size_t e) {
          for (std::size_t u = b; u < e; ++u) {
            for (std::size_t ui = 0; ui < units.size(); ++ui) {
              res.user_symbols[u][ui] = rx_[u][ui].innovative;
              res.user_decoded[u][ui] = rx_[u][ui].decoded;
            }
          }
        });
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      // Probe packets arrive back-to-back at the drain rate; lost probes
      // stretch the measured spacing, so the estimate reflects the worst
      // member's goodput (which is what the bucket must not exceed), with
      // small measurement jitter.
      if (groups[gi].drain_rate.value > 0.0) {
        // Only members whose feedback arrived contribute a measurement; if
        // the whole group is silent the estimate stays 0 and next frame's
        // bucket falls back to the drain rate.
        double worst_loss = 0.0;
        bool any_report = false;
        std::size_t m = 0;
        for (std::size_t u : SetBits{groups[gi].mask}) {
          const std::size_t at = m++;
          if (feedback_lost(u)) continue;
          any_report = true;
          if (at < groups[gi].member_loss.size())
            worst_loss = std::max(worst_loss, groups[gi].member_loss[at]);
        }
        const double goodput =
            groups[gi].drain_rate.value * (1.0 - worst_loss);
        // The jitter draw stays unconditional to keep the rng stream
        // aligned whether or not reports arrived.
        const double jitter = rng.gaussian(0.0, 0.02);
        if (any_report)
          res.measured_rate[gi] =
              Mbps{std::max(0.0, goodput * (1.0 + jitter))};
      }
    }
  }

  // Whatever still sits in the queue past the deadline is next frame's
  // stale backlog.
  backlog_bytes_ = std::min(new_backlog,
                            static_cast<double>(cfg_.queue_capacity_bytes));
  backlog_rate_ = last_drain_rate;
  res.stats.backlog_packets_after =
      static_cast<std::size_t>(backlog_bytes_ / static_cast<double>(wire));

  // --- Conservation laws at the engine boundary (verify) ------------------
  if (verify::enabled()) {
    verify::check(
        res.stats.packets_offered ==
            res.stats.packets_sent + res.stats.packets_dropped_queue +
                deferred_packets + abandoned_packets,
        "emu.packet-conservation", [&] {
          return "offered " + std::to_string(res.stats.packets_offered) +
                 " != sent " + std::to_string(res.stats.packets_sent) +
                 " + dropped " +
                 std::to_string(res.stats.packets_dropped_queue) +
                 " + deferred " + std::to_string(deferred_packets) +
                 " + abandoned " + std::to_string(abandoned_packets);
        });
    verify::check(res.stats.airtime <= budget + 1e-9, "emu.airtime-budget",
                  [&] {
                    return "airtime " + std::to_string(res.stats.airtime) +
                           " s exceeds budget " + std::to_string(budget) +
                           " s";
                  });
    verify::check(backlog_bytes_ >= 0.0, "emu.backlog-nonnegative", [&] {
      return "backlog " + std::to_string(backlog_bytes_) + " bytes";
    });
    // A relay target is by contract quarantined out of this frame's
    // schedule: it must not also be a member of any transmitting group.
    for (const auto& rl : relays) {
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const bool member = ((groups[gi].mask >> rl.target) & 1u) != 0;
        verify::check(!member, "emu.relay-target-grouped", [&] {
          return "relay target " + std::to_string(rl.target) +
                 " is a member of scheduled group " + std::to_string(gi);
        });
      }
    }
    // Per-user reception never exceeds what was actually sent to any group
    // containing that user (received <= sent, per unit) — plus, for relay
    // targets, what their relayer forwarded.
    avail_.assign(n_users * units.size(), 0);
    for (std::size_t slot = 0; slot < active_.size(); ++slot)
      for (std::size_t ui = 0; ui < units.size(); ++ui) {
        const std::size_t count = sent_[slot * units.size() + ui];
        if (count == 0) continue;
        for (std::size_t u : SetBits{groups[active_[slot]].mask})
          avail_[u * units.size() + ui] += count;
      }
    for (std::size_t i = 0; i < relay_sent_.size(); ++i) avail_[i] += relay_sent_[i];
    for (std::size_t u = 0; u < n_users; ++u) {
      for (std::size_t ui = 0; ui < units.size(); ++ui) {
        verify::check(res.user_symbols[u][ui] <= avail_[u * units.size() + ui],
                      "emu.received-exceeds-sent", [&] {
                        return "user " + std::to_string(u) + " unit " +
                               std::to_string(ui) + ": received " +
                               std::to_string(res.user_symbols[u][ui]) +
                               " > sent " +
                               std::to_string(avail_[u * units.size() + ui]);
                      });
        verify::check(!res.user_decoded[u][ui] ||
                          res.user_symbols[u][ui] >= units[ui].k_symbols,
                      "emu.decode-below-k", [&] {
                        return "user " + std::to_string(u) + " unit " +
                               std::to_string(ui) + " decoded with " +
                               std::to_string(res.user_symbols[u][ui]) +
                               " < k " + std::to_string(units[ui].k_symbols);
                      });
      }
    }
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
      verify::check(res.measured_rate[gi].value >= 0.0,
                    "emu.negative-measured-rate", [&] {
                      return "group " + std::to_string(gi) + ": " +
                             std::to_string(res.measured_rate[gi].value) +
                             " Mbps";
                    });
  }

  // One batched telemetry flush per frame (never per packet).
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& c_frames = reg.counter("emu.frames");
    static obs::Counter& c_offered = reg.counter("emu.packets_offered");
    static obs::Counter& c_sent = reg.counter("emu.packets_sent");
    static obs::Counter& c_dropped = reg.counter("emu.packets_dropped_queue");
    static obs::Counter& c_makeup = reg.counter("emu.makeup_packets");
    static obs::Counter& c_deficit = reg.counter("emu.makeup_deficit_symbols");
    static obs::Counter& c_blind = reg.counter("emu.blind_makeup_packets");
    static obs::Counter& c_relay = reg.counter("emu.relay_packets");
    static obs::Counter& c_relayed = reg.counter("emu.relayed_symbols");
    static obs::Counter& c_collapsed = reg.counter("emu.budget_collapsed_frames");
    static obs::Gauge& g_backlog = reg.gauge("emu.backlog_packets");
    static obs::Histogram& h_depth = reg.histogram(
        "emu.queue_depth_pkts", {0.0, 16.0, 64.0, 256.0, 1024.0, 4096.0});
    c_frames.add(1);
    c_offered.add(res.stats.packets_offered);
    c_sent.add(res.stats.packets_sent);
    c_dropped.add(res.stats.packets_dropped_queue);
    c_makeup.add(res.stats.makeup_packets);
    c_deficit.add(makeup_deficit);
    c_blind.add(res.blind_makeup_packets);
    c_relay.add(relay_offered);
    c_relayed.add(res.relayed_symbols);
    if (faults.budget_scale < 1.0) c_collapsed.add(1);
    g_backlog.set(static_cast<double>(res.stats.backlog_packets_after));
    h_depth.observe(max_queue_bytes / static_cast<double>(wire));
  }
}

}  // namespace w4k::emu
