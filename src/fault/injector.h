// Resolves a FaultPlan into per-frame fault state and applies the
// physical-layer part (blockage attenuation, beacon corruption) to channel
// vectors. Purely functional over (plan, frame): identical plans replay
// bit-identically, which the chaos suite's determinism invariant relies on.
#pragma once

#include "fault/plan.h"
#include "linalg/matrix.h"

#include <cstdint>
#include <vector>

namespace w4k::fault {

/// Everything the control loop must survive on one frame. Vectors are
/// sized n_users; `user_active` reflects churn (empty plans yield all-true).
/// Channel-level faults (blockage, AP outages, corrupt beacons) are not
/// listed here: they act only through FaultInjector::apply.
struct FrameFaults {
  std::uint32_t frame = 0;
  bool csi_stale = false;    ///< beacon missed: reuse last beamweights
  double budget_scale = 1.0; ///< < 1: NIC stall / bucket starvation
  std::vector<std::uint8_t> feedback_lost;     ///< report never arrives
  std::vector<std::uint8_t> feedback_delayed;  ///< arrives next beacon(s)
  std::vector<std::uint8_t> user_active;       ///< churn state
  /// Cross-AP assist beacon lost: the session must not probe alternates or
  /// commit a handoff on this frame.
  bool handoff_beacon_lost = false;
  /// Per-user relay-unavailability flags (relay churn), sized n_users.
  std::vector<std::uint8_t> relay_down;
};

class FaultInjector {
 public:
  /// Validates the plan against `n_users` x `n_aps` (throws
  /// std::invalid_argument). Single-AP callers omit `n_aps`.
  FaultInjector(FaultPlan plan, std::size_t n_users, std::size_t n_aps = 1);

  const FaultPlan& plan() const { return plan_; }
  std::size_t n_users() const { return n_users_; }
  std::size_t n_aps() const { return n_aps_; }

  /// Resolves the fault state of `frame` into `out`, overwriting every
  /// field; its per-user vectors keep their capacity, so a caller that
  /// reuses one FrameFaults across frames allocates nothing.
  void at_into(std::uint32_t frame, FrameFaults& out) const;

  /// Applies the physical faults of `frame` in place to per-AP channel
  /// stacks indexed [ap][user] (one stack for a single-AP run). Blockage
  /// bursts attenuate the rays they name (every AP's ray when the burst
  /// has no `ap`, additively when bursts overlap); AP outages silence the
  /// affected rays outright — totally, or only for users whose AP-local
  /// azimuth (radians, from `ap_user_azimuth[ap][user]`) falls inside the
  /// failed sector. Without an azimuth table a sector outage degrades to a
  /// total one (conservative). `truth` sees the faults active *now*,
  /// `decision` those active at the previous frame (the sender's
  /// knowledge is one beacon stale), and a corrupt beacon overwrites every
  /// decision ray with NaN so the session's CSI sanity check must catch it.
  void apply(
      std::uint32_t frame, std::vector<std::vector<linalg::CVector>>& decision,
      std::vector<std::vector<linalg::CVector>>& truth,
      const std::vector<std::vector<double>>& ap_user_azimuth = {}) const;

 private:
  double ray_loss_at(std::uint32_t frame, std::size_t ap, std::size_t user,
                     const std::vector<std::vector<double>>& azimuth,
                     bool* silenced) const;

  FaultPlan plan_;
  std::size_t n_users_;
  std::size_t n_aps_;
};

}  // namespace w4k::fault
