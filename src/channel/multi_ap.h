// Multi-AP room geometry for handoff and relay scenarios.
//
// The paper's testbed is one AP at the origin of a rectangular room; this
// header generalises that to a small set of wall-mounted APs, each with its
// own position and boresight. Every user then has a *per-AP channel
// stack* — one synthesized channel vector per AP-user ray — and blockage /
// outage faults attenuate individual rays (see FaultInjector::apply).
//
// Modeling note: make_channel's image-method reflections assume the AP at
// the origin of its own room frame, so each AP sees the shared room through
// its local frame (position and boresight rotated into it). That keeps every
// AP's multipath physically plausible without re-deriving the image set per
// wall; cross-AP geometry only needs relative distance and azimuth, which
// are exact.
#pragma once

#include "channel/propagation.h"
#include "linalg/matrix.h"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace w4k::channel {

/// Hard cap on APs per geometry: partitions are stored as per-user uint8
/// ids and real deployments in the source material use 2-4 APs per room.
inline constexpr std::size_t kMaxAps = 8;

/// One access point: world position plus boresight azimuth (radians,
/// measured from +x). The legacy single-AP setup is {(0,0), 0}.
struct ApPose {
  Position pos;
  double boresight_rad = 0.0;
};

/// A room shared by `aps` access points with a common radio config.
struct MultiApGeometry {
  std::vector<ApPose> aps;
  PropagationConfig prop;

  std::size_t n_aps() const { return aps.size(); }

  /// Throws std::invalid_argument on 0 APs, more than kMaxAps, or
  /// non-finite poses.
  void validate() const;
};

/// Transforms a world position into `ap`'s local frame (AP at origin,
/// boresight along +x) — the frame make_channel expects.
Position to_ap_frame(const ApPose& ap, Position world);

/// The user's azimuth as seen from `ap`, in the AP's local frame
/// (radians). Sector outages are expressed in this frame.
double azimuth_from_ap(const ApPose& ap, Position world);

/// A sensible default wall layout for `n` APs in `room`: AP 0 at the
/// origin of the x=0 wall facing +x (the legacy pose), AP 1 opposite on
/// the x=length wall facing -x, APs 2/3 centred on the side walls, then
/// alternating quarter-points of the end walls. Deterministic.
std::vector<ApPose> default_ap_layout(std::size_t n, const Room& room);

/// Synthesizes the channel from one AP to a user at a world position.
linalg::CVector ap_channel(const PropagationConfig& cfg, const ApPose& ap,
                           Position user, double los_extra_loss_db = 0.0);

/// Per-AP channel stacks for a set of static users: result[ap][user].
std::vector<std::vector<linalg::CVector>> ap_channel_stacks(
    const MultiApGeometry& geo, const std::vector<Position>& users);

/// AP-local azimuth table for a set of static users: result[ap][user].
/// This is what FaultInjector::apply consumes for sector outages.
std::vector<std::vector<double>> ap_user_azimuths(
    const MultiApGeometry& geo, const std::vector<Position>& users);

/// Parses the text geometry format (one item per line, '#' comments):
///
///   room <length_m> <width_m>          # optional, at most once
///   ap <x_m> <y_m> <boresight_deg>     # one per AP, >= 1 required
///
/// The room line overrides prop.room dimensions; everything else in `prop`
/// (antennas, materials, reflections) is taken from the argument. Throws
/// std::runtime_error naming the offending line.
MultiApGeometry parse_geometry(std::istream& is,
                               const PropagationConfig& prop = {});

/// File variant; error messages carry the path.
MultiApGeometry load_geometry(const std::string& path,
                              const PropagationConfig& prop = {});

}  // namespace w4k::channel
