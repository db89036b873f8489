// 60 GHz indoor propagation model.
//
// Substitutes the paper's two channel sources — the physical QCA6320
// testbed and the Wireless Insite ray-traced meeting room — with an
// image-method ray tracer for a rectangular room: the line-of-sight path,
// first-order reflections off the three far walls, and ceiling/floor
// bounces. Each path carries free-space path loss at 60.48 GHz, a material
// reflection loss, and a geometry-derived carrier phase, so multipath
// fading and angular spread are physically consistent as receivers move.
//
// Calibration: the single constant kCalibrationDb is chosen so that an
// optimally beamformed unicast link at 3 m sits at about -48 dBm, which
// puts the testbed distances (3-6 m) in the MCS 10-12 regime and the
// emulation distances (4-16 m) across MCS 6-12 — matching where Table 2
// puts the paper's own measurements.
#pragma once

#include "common/rng.h"
#include "common/units.h"
#include "linalg/matrix.h"

#include <vector>

namespace w4k::channel {

/// 2D position in meters. The AP sits at the origin at the middle of the
/// x=0 wall, boresight along +x; the room spans x in [0, length],
/// y in [-width/2, width/2].
struct Position {
  double x = 0.0;
  double y = 0.0;

  static Position from_polar(double distance_m, double azimuth_rad);
  double distance() const;
  double azimuth() const;
};

/// Rectangular conference room (the lidar-scanned meeting room stand-in).
struct Room {
  double length = 20.0;        ///< m, +x extent
  double width = 12.0;         ///< m, y extent centred on 0
  double height = 3.0;         ///< m
  double device_height = 1.2;  ///< AP/STA height above the floor
  double wall_loss_db = 11.0;  ///< drywall reflection loss at 60 GHz
  double ceiling_loss_db = 13.0;
  double floor_loss_db = 14.0;
};

/// One propagation path from the AP to a receiver.
struct Path {
  double azimuth_rad = 0.0;  ///< angle of departure at the AP array
  double length_m = 0.0;     ///< total travelled distance
  double extra_loss_db = 0.0;///< reflection/blockage loss on top of FSPL
  bool line_of_sight = false;
};

/// Free-space path loss at 60.48 GHz in dB.
double fspl_db(double distance_m);

struct PropagationConfig {
  std::size_t n_antennas = 32;
  Room room;
};

/// Image-method ray trace from the AP to `rx`. Paths whose image falls
/// outside a physically sensible geometry are skipped. The LoS path is
/// always first in the returned vector.
std::vector<Path> trace_paths(const Room& room, Position rx);

/// Synthesizes the channel vector h for a receiver: the coherent sum of
/// the steering vectors of every trace_paths path, weighted by amplitude
/// and carrier phase.
/// `los_extra_loss_db` models human blockage of the LoS component only
/// (reflected paths go around the blocker).
linalg::CVector make_channel(const PropagationConfig& cfg, Position rx,
                             double los_extra_loss_db = 0.0);

}  // namespace w4k::channel
