// CSI trace generation for the trace-driven mobile experiments (Sec. 2.8 /
// 4.3.4). The paper records SLS-derived CSI at the 100 ms ACO beacon
// interval while (a) receivers walk randomly or (b) people walk between the
// AP and static receivers; we generate the equivalent traces from the
// propagation model with a random-waypoint walker and a LoS-blockage
// process, then replay them through the same streaming stack.
#pragma once

#include "channel/propagation.h"
#include "common/rng.h"
#include "linalg/matrix.h"

#include <cstdint>
#include <vector>

namespace w4k::channel {

/// ACO beacon interval (802.11ad): one CSI snapshot every 100 ms.
inline constexpr Seconds kBeaconInterval = 0.1;

/// One trace: snapshots[t][u] is user u's channel vector at time
/// t * kBeaconInterval. Positions are recorded for diagnostics.
struct CsiTrace {
  std::vector<std::vector<linalg::CVector>> snapshots;
  std::vector<std::vector<Position>> positions;
  Seconds interval = kBeaconInterval;

  std::size_t steps() const { return snapshots.size(); }
  std::size_t users() const {
    return snapshots.empty() ? 0 : snapshots.front().size();
  }
};

/// Parameters for a moving-receiver trace.
struct MovingReceiverConfig {
  PropagationConfig prop;
  std::size_t n_users = 1;
  /// users[i] moves iff moving[i]; must match n_users (empty = all move).
  std::vector<bool> moving;
  Seconds duration = 60.0;        ///< paper: "walk randomly for a minute"
  double walk_speed = 1.0;        ///< m/s
  double min_distance = 2.5;      ///< annulus the walkers stay inside
  double max_distance = 6.0;
  std::uint64_t seed = 1;
};

/// Random-waypoint walkers inside a distance annulus and within +-1 rad of
/// boresight (the array's field of view). High-RSS traces use the default
/// 2.5-6 m band; pass 13-18 m for the paper's low-RSS regime.
CsiTrace moving_receiver_trace(const MovingReceiverConfig& cfg);

/// Parameters for a moving-environment trace (static users, walking
/// blockers between AP and receivers).
struct MovingEnvironmentConfig {
  PropagationConfig prop;
  std::vector<Position> users;    ///< static receiver placements
  Seconds duration = 60.0;
  double walk_speed = 1.0;
  std::uint64_t seed = 2;
};

/// Static users; two blockers ("two people walk randomly") do a random
/// walk in front of the AP and attenuate the LoS component of any user
/// whose AP ray they pass within 0.35 m of, by up to 18 dB (a human torso
/// at 60 GHz). Attenuation ramps smoothly with blocker-to-ray distance (no
/// step discontinuities).
CsiTrace moving_environment_trace(const MovingEnvironmentConfig& cfg);

/// Convenience: per-step best-case RSS (optimal unicast beam) for user `u`,
/// used to classify traces into the paper's high/low RSS regimes.
std::vector<double> best_case_rss_dbm(const CsiTrace& trace, std::size_t user);

}  // namespace w4k::channel
