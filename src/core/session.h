// End-to-end multicast streaming session — the Fig. 3 workflow.
//
// Per frame: (CSI) -> multicast beamforming for every candidate group ->
// group UDP rates -> time-allocation optimization (Eq. 1) -> coding-unit
// mapping (Eq. 4) -> leaky-bucket-paced transmission with feedback/makeup
// rounds -> per-user reconstruction and SSIM/PSNR measurement.
//
// The session supports the paper's ablations through its config:
//   * beamforming scheme (4 variants, Sec. 4.2.1),
//   * optimized vs round-robin scheduling (Sec. 4.2.2),
//   * rate control on/off (Sec. 4.2.3),
//   * source coding on/off (Sec. 4.2.4),
//   * Real-time Update vs No Update channel adaptation (Sec. 4.3.4).
#pragma once

#include "beamforming/multicast.h"
#include "core/frame_context.h"
#include "emu/engine.h"
#include "fault/injector.h"
#include "model/quality_model.h"
#include "sched/planner.h"

#include <cstdint>
#include <span>
#include <vector>

namespace w4k::core {

struct SessionConfig {
  /// Config pre-wired for a reduced-resolution emulation: rate scale,
  /// symbol size, and header overhead all scaled to the frame dimensions
  /// (see frame_context.h). Contexts must be built with the same symbol
  /// size (make_contexts does this when given scaled_symbol_size(w, h)).
  static SessionConfig scaled(int width, int height);

  beamforming::Scheme scheme = beamforming::Scheme::kOptimizedMulticast;
  bool optimized_schedule = true;  ///< false = round-robin baseline
  bool adapt = true;               ///< false = "No Update"
  /// dB backed off the measured min-RSS before MCS selection. Mobile runs
  /// use 1-2 dB: the beacon-time CSI is up to 100 ms stale, and selecting
  /// at the exact sensitivity makes every fade a burst of losses.
  double mcs_margin_db = 0.0;
  /// Run ACO-style CSI estimation (SLS sweep + phase retrieval over the
  /// codebook) instead of assuming perfect CSI at the sender. Requires a
  /// codebook with at least as many beams as antennas. This is what the
  /// real system does (Fig. 3 starts with "fetch CSI using ACO").
  bool use_estimated_csi = false;
  /// Per-beam RSS readout noise for the SLS sweeps (dB).
  double sls_noise_db = 0.5;
  emu::EngineConfig engine;
  sched::GroupEnumConfig group_enum;
  /// Anytime wall-clock budget for decide_into(), in milliseconds. 0 (the
  /// default) disables the deadline entirely: decide_into() reads no clock
  /// and its output is a pure function of the inputs (the golden/purity
  /// determinism contract). When > 0, sched::Planner splits it between
  /// optional merge beams and the Eq. 1 optimizer so the whole decision
  /// lands inside the budget while every reachable user stays served
  /// (singleton beams and the first optimizer start always complete).
  double decide_deadline_ms = 0.0;
  /// Scales Table 2 rates to the frame resolution (see rate_scale_for).
  double rate_scale = 1.0;
  /// Fraction of the frame budget withheld from the schedule so feedback
  /// and fountain-coded makeup packets fit inside the same 1/FR deadline
  /// ("the feedbacks and all retransmissions should finish within 33 ms").
  double makeup_margin = 0.08;
  std::uint64_t seed = 1;

  // --- Degradation ladder (fault tolerance; see DESIGN.md Sec. 4d) ------
  /// Extra dB backed off the MCS while running on held (stale/corrupt-
  /// beacon) CSI: the beamweights are old, so select conservatively.
  double stale_csi_backoff_db = 2.0;
  /// Quarantine a user from the group optimizer after this many
  /// consecutive frames with zero decoded units while transmissions were
  /// attempted (0 disables quarantine). A persistently blocked user then
  /// no longer drags every group containing them to the bottleneck MCS.
  int quarantine_after = 6;
  /// Re-probe quarantined users every this many frames: they rejoin the
  /// optimizer for one frame and are released if anything decodes.
  int quarantine_reprobe_period = 8;

  // --- Multi-AP handoff + peer relay (DESIGN.md Sec. 4h) ----------------
  /// Per-user AP attachment. With more than one AP every user runs the
  /// attached -> degraded -> probing -> handing-off ladder, whose
  /// hysteresis, weak-RSS floor, probe length and backoff cap are
  /// constants in session.cpp; with one AP there is nothing to probe.
  struct HandoffConfig {
    /// APs this session streams across. step_into requires its channel
    /// stacks to match; 1 (the default) is the paper's single-AP session.
    std::size_t n_aps = 1;
    /// Base dwell after a handoff before the next probe may start.
    int min_dwell_frames = 8;
  };
  HandoffConfig handoff;

  /// Peer relay: a line-of-sight user re-encodes decoded base-layer units
  /// and forwards fresh fountain symbols to a quarantined peer over a D2D
  /// side link, charged against the same Eq. 1 airtime budget. Only
  /// meaningful with quarantine (targets are quarantined users) — enabling
  /// it with a single AP and quarantine off fails validate().
  struct RelayConfig {
    bool enabled = false;
  };
  RelayConfig relay;

  /// Sentinel for validate() arguments that are not known yet.
  static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

  /// Checks every field range and throws std::invalid_argument naming the
  /// offending field ("SessionConfig.rate_scale: ..."). `codebook_beams`
  /// enables the context-dependent check (undersized codebook with
  /// use_estimated_csi) and may be kUnknown to skip it.
  /// MulticastSession's constructor calls this, so a bad config fails at
  /// construction instead of deep inside a frame.
  void validate(std::size_t codebook_beams = kUnknown) const;
};

struct FrameOutcome {
  std::vector<double> ssim;          ///< measured per user
  std::vector<double> psnr;          ///< measured per user
  std::vector<double> decoded_fraction;  ///< decoded units / total units
  emu::FrameTxStats stats;
  double optimizer_objective = 0.0;
  /// Monotonically increasing per-session frame number (chaos invariant).
  std::uint32_t frame_id = 0;
  /// user_present[u]: user u was in the session this frame. Empty = all
  /// present (the no-churn fast path). Absent users' quality samples are
  /// placeholders and excluded from every SessionReport aggregate.
  std::vector<bool> user_present;
  /// user_quarantined[u]: excluded from the group optimizer this frame
  /// after persistent outage. Empty = none.
  std::vector<bool> user_quarantined;
  /// Enhancement-layer symbols shed before transmission under a collapsed
  /// budget (the base layer is never shed).
  std::size_t shed_symbols = 0;
  /// Decision ran on held beamweights (missed/corrupt CSI beacon).
  bool csi_held = false;
  /// Serving AP per user (multi-AP sessions only). Empty = single AP.
  std::vector<std::uint8_t> user_ap;
  /// Handoffs committed this frame (multi-AP sessions only).
  std::size_t handoffs = 0;
  /// Base-layer symbols delivered to quarantined peers over D2D relay.
  std::size_t relayed_symbols = 0;
};

class MulticastSession {
 public:
  /// `quality` must be trained; `codebook` is used by pre-defined schemes
  /// (pass a default-constructed one only with optimized schemes).
  MulticastSession(const SessionConfig& cfg, model::QualityModel& quality,
                   beamforming::Codebook codebook);

  const SessionConfig& config() const { return cfg_; }

  /// Streams one frame into a caller-owned outcome whose vectors reuse
  /// their capacity across frames. `decision_stacks` / `true_stacks` are
  /// per-AP channel stacks indexed [ap][user], one per cfg.handoff.n_aps
  /// (channel::ap_channel_stacks): the decision CSI is what the sender acts
  /// on (last beacon), the true channel is the one during transmission.
  /// `faults` is this frame's resolved fault state (fault::FaultInjector);
  /// a default-constructed FrameFaults is the fault-free frame.
  ///
  /// The frame runs as named stages, in order (DESIGN.md Sec. 4g):
  ///  1. input check: shapes, config and mask sizes, before any state
  ///     changes, so a rejected call leaves the session as it was;
  ///  2. AP attachment: each user is served by one AP; with more than
  ///     one AP the attached -> degraded -> probing -> handing-off machine
  ///     moves users make-before-break, with hysteresis and capped dwell
  ///     backoff (`out.user_ap` is filled only with more than one AP);
  ///  3. CSI hold: a stale or corrupt beacon falls back to the last good
  ///     CSI and backs the MCS off;
  ///  4. admission: departed users drop out; persistent outage quarantines
  ///     a user from the optimizer, with periodic re-probe;
  ///  5. decision: decide_into, or in No-Update mode the first frame's
  ///     decision forever (the paper's baseline);
  ///  6. air parameters: per-group MCS (No-Update: the firmware sector),
  ///     kept from the last frame while its pass and margin hold;
  ///  7. shed: a collapsed budget sheds enhancement layers, never the base;
  ///  8. transmit: blind makeup with capped backoff for lost feedback,
  ///     peer relay to quarantined users, the engine;
  ///  9. recovery bookkeeping, 10. scoring, 11. telemetry flush.
  /// A steady-state frame performs zero heap allocations (the
  /// W4K_COUNT_ALLOCS tier-1 gate).
  void step_into(std::span<const std::vector<linalg::CVector>> decision_stacks,
                 std::span<const std::vector<linalg::CVector>> true_stacks,
                 const FrameContext& ctx, const fault::FrameFaults& faults,
                 FrameOutcome& out);

  /// Single-AP form: the two channel vectors are passed as one-element
  /// stacks, without a copy. Throws unless cfg.handoff.n_aps == 1.
  void step_into(const std::vector<linalg::CVector>& decision_channels,
                 const std::vector<linalg::CVector>& true_channels,
                 const FrameContext& ctx, const fault::FrameFaults& faults,
                 FrameOutcome& out) {
    step_into(std::span(&decision_channels, 1), std::span(&true_channels, 1),
              ctx, faults, out);
  }

  /// Drops cached decisions, backlog, and fault-recovery state (e.g.
  /// between independent runs).
  void reset();

  using Decision = sched::Decision;

  /// Runs the per-frame decision pipeline (group beamforming -> Eq. 1 time
  /// allocation -> Eq. 4 unit mapping) without transmitting, writing into
  /// a caller-owned Decision (sched::Planner::decide_into). Public so the
  /// scheduler-scaling bench can time exactly this path; step_into() calls
  /// it internally. Groups are partitioned by the users' serving APs from
  /// the last step (a session that has never stepped has none, so nothing
  /// is partitioned). Mutates the planner's beam cache and previous plan.
  void decide_into(const std::vector<linalg::CVector>& channels,
                   const FrameContext& ctx,
                   const std::vector<std::uint8_t>& exclude, Decision& d);

 private:
  friend struct SessionTestAccess;  // tests/support/session_access.h

  enum class ApAttachState : std::uint8_t {
    kAttached = 0,
    kDegraded = 1,
    kProbing = 2,
    kHandingOff = 3,
  };
  static constexpr std::uint8_t kUnattached = 0xff;
  static constexpr std::uint32_t kNeverHandedOff =
      static_cast<std::uint32_t>(-1);

  /// One user's session state. The recovery and attachment fields carry
  /// across frames (deterministic, no rng) and survive churn by index; the
  /// per-frame mask at the bottom is rewritten by admit() every frame.
  struct UserState {
    int feedback_silent_streak = 0;  ///< consecutive frames without a report
    int lost_frame_streak = 0;  ///< consecutive attempted frames, no decode
    bool quarantined = false;
    std::uint8_t serving_ap = kUnattached;  ///< kUnattached before frame 0
    ApAttachState attach_state = ApAttachState::kAttached;
    int weak_streak = 0;             ///< consecutive weak frames
    std::uint8_t probe_target = 0;   ///< alternate under probe
    int probe_countdown = 0;
    std::uint32_t dwell_until = 0;   ///< no probes before this frame
    int handoff_streak = 0;          ///< back-to-back handoffs
    std::uint32_t last_handoff_frame = kNeverHandedOff;
    // This frame only:
    bool active = true;     ///< present (not churned out)
    bool silent = false;    ///< no feedback report: lost, or departed
    bool attempted = false; ///< carried by a group with a drain rate
  };

  /// What one step_into call hands from stage to stage. A stack value: the
  /// channel views point into the caller's stacks or session members.
  struct Frame {
    std::uint32_t id = 0;
    std::size_t n_users = 0;
    /// Serving-AP views of the beacon-time and in-flight channels.
    const std::vector<linalg::CVector>* beacon = nullptr;
    const std::vector<linalg::CVector>* truth = nullptr;
    /// The beacon CSI after the hold/sanitize ladder: what the decision,
    /// the No-Update sector and the relay plan act on.
    const std::vector<linalg::CVector>* csi = nullptr;
    bool csi_held = false;
    double mcs_margin_db = 0.0;
    bool reprobe = false;
    std::size_t n_active = 0;
    std::size_t n_included = 0;  ///< users the group optimizer sees
    std::size_t n_silent = 0;
    const Decision* plan = nullptr;
    const std::vector<sched::UnitAssignment>* assignments = nullptr;
    std::size_t quarantine_entered = 0;
    std::size_t quarantine_exited = 0;
  };

  // --- The stages of step_into, in frame order --------------------------
  using Stacks = std::span<const std::vector<linalg::CVector>>;
  /// Checks stack shapes, the config and every fault mask; throws before
  /// any state changes. Returns the user count.
  std::size_t check_inputs(Stacks decision_stacks, Stacks true_stacks,
                           const fault::FrameFaults& faults) const;
  /// Advances the AP attachments and gathers the serving-AP views.
  void attach(Frame& f, Stacks decision_stacks, Stacks true_stacks,
              const fault::FrameFaults& faults, FrameOutcome& out);
  /// Holds the last good CSI over a missed or corrupt beacon.
  void hold_csi(Frame& f, const fault::FrameFaults& faults);
  /// Per-user presence and silence mask, quarantine re-probe, exclusions.
  void admit(Frame& f, const fault::FrameFaults& faults);
  /// Optional CSI estimation, then the adaptive or frozen decision.
  void decide(Frame& f, const FrameContext& ctx);
  /// Per-group MCS, drain/bucket rates and member losses (the No-Update
  /// firmware sector included) into groups_tx_. When the decision holds
  /// the beam-cache pass groups_tx_ was built from and the MCS margin is
  /// unchanged, every group keeps its MCS and drain rate, only groups
  /// holding a member whose in-flight channel changed recompute their
  /// losses, and every group with an MCS refreshes its bucket rate (the
  /// firmware sector recomputes everything).
  void set_air_parameters(const Frame& f);
  /// Sheds enhancement-layer assignments past a collapsed budget.
  void shed(Frame& f, const FrameContext& ctx,
            const fault::FrameFaults& faults, FrameOutcome& out);
  /// Engine fault state, relay plan, and the engine's frame.
  void transmit(const Frame& f, const FrameContext& ctx,
                const fault::FrameFaults& faults, FrameOutcome& out);
  /// Feedback-silence streaks, quarantine entry and release.
  void update_recovery(Frame& f, const FrameContext& ctx,
                       const fault::FrameFaults& faults);
  /// The one ssim / psnr / decoded_fraction / presence fill: zeros on an
  /// idle frame, the blank frame in an outage, reconstructions otherwise.
  void score(const Frame& f, const FrameContext& ctx, FrameOutcome& out);
  /// One batched metrics flush per transmitted frame.
  void flush_telemetry(const Frame& f, const FrameOutcome& out) const;

  /// Resizes users_ on a user-count change; survivors keep their state.
  void ensure_user_state(std::size_t n_users);

  /// Computes this frame's peer-relay plan into relays_ (empty unless
  /// cfg_.relay.enabled): for each active quarantined non-reprobing user,
  /// the best-RSS eligible line-of-sight peer gets one relay slot at the
  /// MCS its own link sustains. Deterministic, no rng.
  void plan_relays(const Frame& f, const fault::FrameFaults& faults);

  /// Advances attached user u's handoff state machine one frame on the
  /// RSS table in ap_rss_mw_; true when it commits a handoff.
  bool advance_attachment(std::size_t u, std::size_t n_aps,
                          std::uint32_t frame_id, bool beacon_ok);

  SessionConfig cfg_;
  model::QualityModel& quality_;
  beamforming::Codebook codebook_;
  emu::TxEngine engine_;
  Rng rng_;
  /// No Update: decision_ is the first one made for this user count, kept
  /// until the count changes.
  bool frozen_ = false;
  /// The decision's owner: beam cache, enumeration and solver scratch, the
  /// previous plan that warm-starts Eq. 1 and the per-group measured-rate
  /// feedback, both keyed by member mask (see sched/planner.h).
  sched::Planner planner_;

  // --- Per-frame workspaces (capacity reused across frames) -------------
  std::vector<std::uint8_t> exclude_;     ///< per-user optimizer exclusion
  std::vector<std::uint8_t> partition_;   ///< serving AP per user
  std::vector<double> ap_rss_mw_;         ///< flat [ap * n_users + u]
  /// Serving-AP channels gathered from the per-AP stacks (only with
  /// several APs; one AP's stack is its own serving view).
  std::vector<linalg::CVector> eff_decision_;
  std::vector<linalg::CVector> eff_truth_;
  std::vector<linalg::CVector> sanitized_;  ///< zeroed corrupt CSI
  std::vector<linalg::CVector> estimated_;  ///< SLS + phase-retrieval CSI
  /// No-Update firmware sector per group.
  std::vector<beamforming::GroupBeam> firmware_beams_;
  std::vector<emu::GroupTx> groups_tx_;   ///< per-group air parameters
  /// What groups_tx_ was built from: the decision's pass (0: nothing to
  /// keep), the MCS margin, and the in-flight channel rows of its losses.
  std::uint64_t tx_pass_ = 0;
  double tx_margin_db_ = 0.0;
  std::vector<linalg::CVector> tx_truth_;
  /// Parked groups_tx_ elements (resize_recycled): a reprobe frame swings
  /// the group count, and plain resize would free their buffers.
  std::vector<emu::GroupTx> tx_pool_;
  std::vector<sched::UnitAssignment> shed_plan_;  ///< kept assignments
  emu::FrameFaultState efs_;              ///< engine fault state
  std::vector<emu::RelayLink> relays_;    ///< this frame's relay plan
  emu::FrameTxResult tx_result_;          ///< engine result rows
  video::ReconstructWorkspace recon_ws_;  ///< per-user reconstruction
  video::Plane recon_luma_;               ///< luma only: all SSIM/PSNR read
  Decision decision_;                     ///< this frame's decision

  // --- Cross-frame state (all deterministic, no rng) --------------------
  std::uint32_t next_frame_id_ = 0;
  std::vector<UserState> users_;
  /// Last finite, non-stale beacon CSI: the fallback when a beacon is
  /// missed or corrupt.
  std::vector<linalg::CVector> held_csi_;
};

}  // namespace w4k::core
