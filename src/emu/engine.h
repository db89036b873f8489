// Per-frame transmission engine.
//
// Simulates one video frame's air transmissions for the pseudo-multicast
// setup: the sender drains a kernel packet queue serialized over one radio,
// pacing either through per-group leaky buckets (rate control on) or by
// dumping the whole frame burst into the queue (rate control off — the
// Fig. 9 baseline, where queue overflow drops packets and leftovers bleed
// into the next frame). Each delivered packet reaches every group member
// independently per the loss model; reception is tracked per coding unit,
// either as innovative-symbol counts (source coding on) or as bitmaps of
// specific systematic symbol indices (source coding off — the Fig. 10/14
// baseline, where overlapping groups duplicate data and retransmissions
// help only receivers missing that exact index).
//
// Feedback rounds implement Sec. 2.6's makeup scheme: receivers report
// per-unit reception counts, the sender computes the deficit
// P = sent - received and transmits P additional (fresh) symbols, all
// within the same 1/FR frame budget. The reports and the receivers'
// bandwidth estimate are modelled in-process: a round reads every
// reporting user's reception state as it stood when the round began, and
// the measured rate is the drain rate scaled by the worst member's loss.
#pragma once

#include "common/rng.h"
#include "emu/loss.h"
#include "sched/unitmap.h"
#include "transport/leaky_bucket.h"
#include "transport/packet.h"

#include <cstdint>
#include <vector>

namespace w4k::emu {

/// Feedback + makeup rounds per frame (Sec. 2.6). Each round costs one
/// feedback latency of the frame budget; two leave room for the makeup to
/// finish inside the 33 ms frame.
inline constexpr int kFeedbackRounds = 2;

/// Transmission parameters of one multicast group for this frame.
struct GroupTx {
  sched::GroupMask mask = 0;         ///< members: bit u set = user u
  channel::McsEntry mcs;             ///< MCS forced by the sender
  /// Air rate the queue drains at for this group's packets. The caller may
  /// scale Table 2 rates (e.g. for reduced-resolution frames).
  Mbps drain_rate{0.0};
  /// Rate the leaky bucket fills at (receiver's bandwidth feedback from
  /// the previous frame; defaults to drain_rate when there is none).
  Mbps bucket_rate{0.0};
  /// Per-member packet loss probability at the current (true) channel,
  /// in ascending member order (the order of the mask's set bits).
  std::vector<double> member_loss;
};

struct EngineConfig {
  std::size_t symbol_size = fec::kDefaultSymbolSize;
  /// Per-packet header overhead on the air. Scaled emulations set this to
  /// 0: at 4K the real 16 B amounts to 0.27% and scaling the symbol size
  /// down would otherwise inflate it to a distorting ~15%.
  std::size_t header_bytes = transport::kHeaderBytes;
  bool rate_control = true;
  bool source_coding = true;
  std::size_t bucket_packets = 10;    ///< leaky bucket depth (Sec. 2.7)
  std::size_t queue_capacity_bytes = 6'000'000;  ///< kernel/driver queue
};

struct FrameTxStats {
  std::size_t packets_offered = 0;   ///< schedule + makeup packets
  std::size_t packets_sent = 0;      ///< actually transmitted over the air
  std::size_t packets_dropped_queue = 0;
  std::size_t makeup_packets = 0;
  std::size_t relay_packets = 0;     ///< D2D peer-relay transmissions
  Seconds airtime = 0.0;             ///< includes relay slots (shared medium)
  Seconds relay_airtime = 0.0;       ///< the relay share of `airtime`
  std::size_t backlog_packets_after = 0;
};

struct FrameTxResult {
  /// user_symbols[u][i]: innovative symbols user u holds for frame unit i.
  std::vector<std::vector<std::size_t>> user_symbols;
  /// user_decoded[u][i]: unit decodable (includes the rateless-code
  /// residual failure probability when exactly k symbols arrived).
  std::vector<std::vector<bool>> user_decoded;
  /// Per-group bandwidth the receivers measured this frame (probe packets
  /// arrive back-to-back at the drain rate); feeds next frame's buckets.
  std::vector<Mbps> measured_rate;
  /// Makeup symbols sent blind for users whose feedback never arrived.
  std::size_t blind_makeup_packets = 0;
  /// Innovative symbols that actually reached a relay target (<= the
  /// relay_packets that were transmitted; the side link loses the rest).
  std::size_t relayed_symbols = 0;
  FrameTxStats stats;
};

/// One peer-relay slot for this frame (Sec. "Quality-aware relaying"
/// lineage): a line-of-sight user that decoded a base-layer unit re-encodes
/// it and forwards fresh fountain symbols to one quarantined target over a
/// D2D side link. The slot shares the room's 60 GHz medium, so its airtime
/// is charged against the same Eq. 1 frame budget as the AP's own
/// transmissions. Only base-layer units are relayed, only in source-coding
/// mode (re-encoding needs the rateless code), and relayed symbols feed the
/// target's existing innovative-symbol decoder — no second decode path.
struct RelayLink {
  std::size_t relayer = 0;
  std::size_t target = 0;
  Mbps rate{0.0};     ///< D2D air rate the relay slot drains at
  double loss = 0.0;  ///< per-symbol delivery loss on the side link
};

/// Per-frame fault state handed to run_frame_into by the hardened session:
/// a collapsed transmit budget and the set of users whose feedback report
/// never reached the sender this frame. Default-constructed = no faults,
/// and run_frame_into with the defaults is bit-identical to the pre-fault
/// engine.
struct FrameFaultState {
  /// Fraction of the frame budget (kFrameBudget) actually available (NIC
  /// stall).
  double budget_scale = 1.0;
  /// feedback_lost[u] != 0: user u's report is missing; empty = all arrive.
  std::vector<std::uint8_t> feedback_lost;
  /// Blind worst-case makeup budget for a silent user, as a fraction of
  /// each unit's k (the session applies its capped exponential backoff
  /// here before calling). Empty = 0.5 for every user.
  std::vector<double> blind_fraction;
};

/// Stateful across frames only through the kernel-queue backlog (rate
/// control off) — everything else is per-frame.
class TxEngine {
 public:
  explicit TxEngine(const EngineConfig& cfg);

  const EngineConfig& config() const { return cfg_; }

  /// Simulates one frame into a caller-owned result. `units` and
  /// `assignments` come from sched::frame_units / sched::map_to_units_into;
  /// `groups` must cover every group index referenced by the assignments
  /// and name only users below `n_users` (at most 64; throws otherwise).
  /// `faults` collapses the budget and silences per-user feedback for this
  /// frame (default-constructed = no faults). After the makeup rounds, each
  /// RelayLink in `relays` (usually empty) forwards the target's base-layer
  /// deficit, re-encoded by the relayer, within whatever frame budget
  /// remains. Both the result's per-user rows and the engine's internal
  /// scratch (reception state, packet queue, buckets, round-start needs)
  /// reuse their capacity across frames, so a steady-state frame performs
  /// zero heap allocations.
  void run_frame_into(const std::vector<sched::UnitSpec>& units,
                      const std::vector<sched::UnitAssignment>& assignments,
                      const std::vector<GroupTx>& groups, std::size_t n_users,
                      Rng& rng, const FrameFaultState& faults,
                      const std::vector<RelayLink>& relays,
                      FrameTxResult& res);

  /// Stale bytes still queued from previous frames.
  double backlog_bytes() const { return backlog_bytes_; }
  void clear_backlog() { backlog_bytes_ = 0.0; backlog_rate_ = Mbps{0.0}; }

 private:
  /// Per-user reception state for one coding unit.
  struct UnitRx {
    std::size_t innovative = 0;          ///< source-coding mode
    bool decoded = false;
    std::vector<bool> have_index;        ///< systematic mode (size k)

    /// Absorbs one innovative fountain symbol of a unit with k source
    /// symbols and attempts the incremental decode: it succeeds for sure
    /// past k, and with probability 255/256 at exactly k (dense GF(256)
    /// rank). A failure at k is visible to the receiver, so need() then
    /// asks for one more symbol.
    void add_innovative(std::size_t k, Rng& rng);
    /// Symbols still needed toward decoding: 0 once decoded, the shortfall
    /// below k, or 1 after a rank-deficient decode at exactly k.
    std::size_t need(std::size_t k) const;
  };

  struct QueueEntry {
    Seconds drain_finish = 0.0;
    std::size_t wire = 0;
  };

  EngineConfig cfg_;
  double backlog_bytes_ = 0.0;
  Mbps backlog_rate_{0.0};  ///< drain rate of the stale backlog

  // --- Per-frame scratch (reset by run_frame_into, capacity reused) ------
  std::vector<std::vector<UnitRx>> rx_;      ///< [user][unit]
  /// The groups the assignments name, ascending: only these ever send, so
  /// the per-group tables below hold one slot per entry, not per group.
  std::vector<std::size_t> active_;
  std::vector<std::size_t> sent_;            ///< [slot * n_units + unit]
  std::vector<QueueEntry> queue_;            ///< FIFO via queue_head_ cursor
  std::size_t queue_head_ = 0;
  std::vector<transport::LeakyBucket> buckets_;  ///< per active slot
  std::vector<Seconds> bucket_clock_;            ///< per active slot
  /// Round-start need per [user * n_units + unit] (UnitRx::need), or
  /// kNoReport for a user whose feedback was lost this frame.
  std::vector<std::size_t> need_;
  std::vector<std::size_t> avail_;           ///< verify replay, flat [u][i]
  std::vector<std::size_t> relay_sent_;      ///< verify ledger, flat [u][i]
};

}  // namespace w4k::emu
