#include "channel/mobility.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace w4k::channel {
namespace {

/// Walkers stay within this azimuth of boresight (rad): the array's FoV.
constexpr double kMaxWalkAzimuth = 1.0;
/// People walking between the AP and the receivers.
constexpr std::size_t kBlockers = 2;
/// LoS loss with a blocker standing on the ray: a human torso at 60 GHz.
constexpr double kBlockageLossDb = 18.0;
/// How close to the LoS ray (m) a blocker starts to attenuate it.
constexpr double kBlockerRadius = 0.35;

/// Random-waypoint state for one walker.
struct Walker {
  Position pos;
  Position target;
  double speed = 1.0;

  void pick_target(Rng& rng, double min_d, double max_d, double max_az) {
    const double d = rng.uniform(min_d, max_d);
    const double az = rng.uniform(-max_az, max_az);
    target = Position::from_polar(d, az);
  }

  void step(Rng& rng, Seconds dt, double min_d, double max_d, double max_az) {
    const double dx = target.x - pos.x;
    const double dy = target.y - pos.y;
    const double dist = std::hypot(dx, dy);
    const double stride = speed * dt;
    if (dist <= stride) {
      pos = target;
      pick_target(rng, min_d, max_d, max_az);
      return;
    }
    pos.x += dx / dist * stride;
    pos.y += dy / dist * stride;
  }
};

/// Perpendicular distance from point p to the segment AP(origin)->u,
/// clamped to the segment.
double distance_to_los(Position p, Position u) {
  const double len2 = u.x * u.x + u.y * u.y;
  if (len2 <= 0.0) return std::hypot(p.x, p.y);
  double t = (p.x * u.x + p.y * u.y) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return std::hypot(p.x - t * u.x, p.y - t * u.y);
}

}  // namespace

CsiTrace moving_receiver_trace(const MovingReceiverConfig& cfg) {
  if (cfg.n_users == 0)
    throw std::invalid_argument("moving_receiver_trace: need >= 1 user");
  if (!cfg.moving.empty() && cfg.moving.size() != cfg.n_users)
    throw std::invalid_argument(
        "moving_receiver_trace: moving flags size mismatch");
  Rng rng(cfg.seed);
  std::vector<Walker> walkers(cfg.n_users);
  for (auto& w : walkers) {
    w.speed = cfg.walk_speed * rng.uniform(0.8, 1.2);
    w.pos = Position::from_polar(
        rng.uniform(cfg.min_distance, cfg.max_distance),
        rng.uniform(-kMaxWalkAzimuth, kMaxWalkAzimuth));
    w.pick_target(rng, cfg.min_distance, cfg.max_distance, kMaxWalkAzimuth);
  }

  CsiTrace trace;
  const auto steps =
      static_cast<std::size_t>(cfg.duration / kBeaconInterval);
  trace.snapshots.reserve(steps);
  trace.positions.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<linalg::CVector> snap;
    std::vector<Position> pos;
    for (std::size_t u = 0; u < cfg.n_users; ++u) {
      snap.push_back(make_channel(cfg.prop, walkers[u].pos));
      pos.push_back(walkers[u].pos);
      const bool moves = cfg.moving.empty() || cfg.moving[u];
      if (moves)
        walkers[u].step(rng, kBeaconInterval, cfg.min_distance,
                        cfg.max_distance, kMaxWalkAzimuth);
    }
    trace.snapshots.push_back(std::move(snap));
    trace.positions.push_back(std::move(pos));
  }
  return trace;
}

CsiTrace moving_environment_trace(const MovingEnvironmentConfig& cfg) {
  if (cfg.users.empty())
    throw std::invalid_argument("moving_environment_trace: need >= 1 user");
  Rng rng(cfg.seed);

  // Blockers roam the space between the AP and the farthest user.
  double max_d = 0.0;
  for (const auto& u : cfg.users) max_d = std::max(max_d, u.distance());
  const double roam_min = 0.8;
  const double roam_max = std::max(roam_min + 0.5, max_d * 0.9);

  std::vector<Walker> blockers(kBlockers);
  for (auto& b : blockers) {
    b.speed = cfg.walk_speed * rng.uniform(0.8, 1.2);
    b.pos = Position::from_polar(rng.uniform(roam_min, roam_max),
                                 rng.uniform(-1.2, 1.2));
    b.pick_target(rng, roam_min, roam_max, 1.2);
  }

  CsiTrace trace;
  const auto steps =
      static_cast<std::size_t>(cfg.duration / kBeaconInterval);
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<linalg::CVector> snap;
    for (const auto& user : cfg.users) {
      // Soft blockage: full loss when a blocker stands on the ray, fading
      // quadratically to zero at kBlockerRadius. Multiple blockers stack.
      double block_db = 0.0;
      for (const auto& b : blockers) {
        const double d = distance_to_los(b.pos, user);
        if (d < kBlockerRadius) {
          const double frac = 1.0 - d / kBlockerRadius;
          block_db += kBlockageLossDb * frac * frac;
        }
      }
      snap.push_back(make_channel(cfg.prop, user, block_db));
    }
    trace.snapshots.push_back(std::move(snap));
    trace.positions.push_back(cfg.users);
    for (auto& b : blockers)
      b.step(rng, kBeaconInterval, roam_min, roam_max, 1.2);
  }
  return trace;
}

std::vector<double> best_case_rss_dbm(const CsiTrace& trace,
                                      std::size_t user) {
  std::vector<double> out;
  out.reserve(trace.steps());
  for (const auto& snap : trace.snapshots) {
    if (user >= snap.size())
      throw std::out_of_range("best_case_rss_dbm: user index");
    // MRT achieves ||h||^2.
    const double p = snap[user].norm_sq();
    out.push_back(p > 0.0 ? Dbm::from_milliwatts(p).value : -300.0);
  }
  return out;
}

}  // namespace w4k::channel
