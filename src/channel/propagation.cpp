#include "channel/propagation.h"

#include "channel/array.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace w4k::channel {
namespace {

constexpr double kLambda = kSpeedOfLight / kWigigFreqHz;  // ~4.96 mm
/// Link-budget constant folding TX power and per-element gain (see the
/// header comment for how it was calibrated).
constexpr double kCalibrationDb = 14.5;

}  // namespace

Position Position::from_polar(double distance_m, double azimuth_rad) {
  return Position{distance_m * std::cos(azimuth_rad),
                  distance_m * std::sin(azimuth_rad)};
}

double Position::distance() const { return std::hypot(x, y); }

double Position::azimuth() const { return std::atan2(y, x); }

double fspl_db(double distance_m) {
  if (distance_m < 0.1) distance_m = 0.1;  // avoid near-field blowup
  return 20.0 * std::log10(4.0 * std::numbers::pi * distance_m / kLambda);
}

std::vector<Path> trace_paths(const Room& room, Position rx) {
  std::vector<Path> paths;
  const double d = rx.distance();

  // Line of sight.
  paths.push_back(Path{rx.azimuth(), std::max(d, 0.1), 0.0, true});

  // First-order wall reflections via receiver images. The AP is embedded
  // in the x=0 wall, so only the far wall (x = length) and the two side
  // walls produce departures into the room.
  const auto add_image = [&](Position image, double loss) {
    const double len = image.distance();
    // A reflected path shorter than LoS is geometrically impossible; guard
    // against degenerate placements (receiver on a wall).
    if (len < d + 1e-6) return;
    paths.push_back(Path{image.azimuth(), len, loss, false});
  };
  add_image(Position{rx.x, room.width - rx.y}, room.wall_loss_db);    // y=+W/2
  add_image(Position{rx.x, -room.width - rx.y}, room.wall_loss_db);   // y=-W/2
  add_image(Position{2.0 * room.length - rx.x, rx.y}, room.wall_loss_db);

  // Ceiling and floor bounces: same azimuth as LoS, longer path. Vertical
  // detour = twice the gap between device height and the surface.
  const double up = 2.0 * (room.height - room.device_height);
  const double down = 2.0 * room.device_height;
  paths.push_back(Path{rx.azimuth(), std::hypot(d, up), room.ceiling_loss_db,
                       false});
  paths.push_back(Path{rx.azimuth(), std::hypot(d, down), room.floor_loss_db,
                       false});
  return paths;
}

linalg::CVector make_channel(const PropagationConfig& cfg, Position rx,
                             double los_extra_loss_db) {
  if (cfg.n_antennas == 0)
    throw std::invalid_argument("make_channel: zero antennas");
  const std::vector<Path> paths = trace_paths(cfg.room, rx);

  linalg::CVector h(cfg.n_antennas);
  for (const auto& p : paths) {
    double loss = fspl_db(p.length_m) + p.extra_loss_db;
    if (p.line_of_sight) loss += los_extra_loss_db;
    const double amp_db = kCalibrationDb - loss;
    const double amp = std::pow(10.0, amp_db / 20.0);
    // Carrier phase from the exact travelled distance: this is what makes
    // multipath interference (and its evolution under motion) physical.
    const double phase = -2.0 * std::numbers::pi *
                         std::fmod(p.length_m / kLambda, 1.0);
    const linalg::Complex gain = std::polar(amp, phase);
    const linalg::CVector a = steering_vector(p.azimuth_rad, cfg.n_antennas);
    for (std::size_t n = 0; n < cfg.n_antennas; ++n) h[n] += gain * a[n];
  }
  return h;
}

}  // namespace w4k::channel
