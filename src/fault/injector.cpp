#include "fault/injector.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace w4k::fault {

FaultInjector::FaultInjector(FaultPlan plan, std::size_t n_users,
                             std::size_t n_aps)
    : plan_(std::move(plan)), n_users_(n_users), n_aps_(n_aps) {
  plan_.validate(n_users_, n_aps_);
  // Churn replays by scanning the list in order, so put it in frame order
  // here (stable: same-frame events keep file order, later entry wins).
  std::stable_sort(plan_.churn.begin(), plan_.churn.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.frame < b.frame;
                   });
}

double FaultInjector::ray_loss_at(
    std::uint32_t frame, std::size_t ap, std::size_t user,
    const std::vector<std::vector<double>>& azimuth, bool* silenced) const {
  *silenced = false;
  double db = 0.0;
  for (const auto& b : plan_.blockage) {
    if (b.user != user) continue;
    if (b.ap >= 0 && static_cast<std::size_t>(b.ap) != ap) continue;
    if (frame >= b.start_frame && frame < b.start_frame + b.n_frames)
      db += b.extra_loss_db;
  }
  for (const auto& o : plan_.ap_outage) {
    if (o.ap != ap) continue;
    if (frame < o.start_frame || frame >= o.start_frame + o.n_frames)
      continue;
    if (o.total) {
      *silenced = true;
      continue;
    }
    // Sector outage: silenced iff the user's AP-local azimuth falls in the
    // failed sector. No azimuth table -> conservative total fallback.
    if (ap >= azimuth.size() || user >= azimuth[ap].size()) {
      *silenced = true;
      continue;
    }
    constexpr double kDeg = 180.0 / 3.14159265358979323846;
    double delta = azimuth[ap][user] * kDeg - o.sector_center_deg;
    delta = std::fmod(delta, 360.0);
    if (delta > 180.0) delta -= 360.0;
    if (delta < -180.0) delta += 360.0;
    if (std::abs(delta) <= o.sector_width_deg / 2.0) *silenced = true;
  }
  return db;
}

void FaultInjector::at_into(std::uint32_t frame, FrameFaults& f) const {
  f.frame = frame;
  f.csi_stale = false;
  f.budget_scale = 1.0;
  f.handoff_beacon_lost = false;
  f.relay_down.clear();
  f.feedback_lost.assign(n_users_, 0);
  f.feedback_delayed.assign(n_users_, 0);
  f.user_active.assign(n_users_, 1);

  for (const auto& fb : plan_.feedback) {
    if (fb.frame != frame || fb.user >= n_users_) continue;
    f.feedback_lost[fb.user] = 1;
    if (fb.delay_frames > 0) f.feedback_delayed[fb.user] = 1;
  }
  for (const auto& c : plan_.csi)
    if (c.frame == frame && !c.corrupt) f.csi_stale = true;
  for (const auto& b : plan_.budget) {
    if (frame >= b.start_frame && frame < b.start_frame + b.n_frames)
      f.budget_scale = std::min(f.budget_scale, b.budget_scale);
  }
  // Churn: replay events in frame order (ties: later entry in the plan
  // wins, matching file order).
  for (const auto& c : plan_.churn) {
    if (c.frame <= frame && c.user < n_users_)
      f.user_active[c.user] = c.join ? 1 : 0;
  }
  for (const auto& h : plan_.handoff_beacon)
    if (h.frame == frame) f.handoff_beacon_lost = true;
  if (!plan_.relay_churn.empty()) {
    f.relay_down.assign(n_users_, 0);
    for (const auto& r : plan_.relay_churn) {
      if (r.user >= n_users_) continue;
      if (frame >= r.start_frame && frame < r.start_frame + r.n_frames)
        f.relay_down[r.user] = 1;
    }
  }
}

void FaultInjector::apply(
    std::uint32_t frame, std::vector<std::vector<linalg::CVector>>& decision,
    std::vector<std::vector<linalg::CVector>>& truth,
    const std::vector<std::vector<double>>& ap_user_azimuth) const {
  const auto fault_ray = [&](linalg::CVector& h, std::uint32_t at_frame,
                             std::size_t ap, std::size_t user) {
    bool silenced = false;
    const double db = ray_loss_at(at_frame, ap, user, ap_user_azimuth,
                                  &silenced);
    if (silenced) {
      for (std::size_t n = 0; n < h.size(); ++n) h[n] = linalg::Complex(0, 0);
      return;
    }
    if (db <= 0.0) return;
    const double amp = std::pow(10.0, -db / 20.0);
    for (std::size_t n = 0; n < h.size(); ++n) h[n] *= amp;
  };
  for (std::size_t a = 0; a < truth.size() && a < n_aps_; ++a)
    for (std::size_t u = 0; u < truth[a].size() && u < n_users_; ++u)
      fault_ray(truth[a][u], frame, a, u);
  // The sender's CSI is one beacon old: the decision stacks see the faults
  // that were already active on the previous frame, not one that just
  // started.
  const std::uint32_t prev = frame > 0 ? frame - 1 : frame;
  if (frame > 0)
    for (std::size_t a = 0; a < decision.size() && a < n_aps_; ++a)
      for (std::size_t u = 0; u < decision[a].size() && u < n_users_; ++u)
        fault_ray(decision[a][u], prev, a, u);

  bool corrupt = false;
  for (const auto& c : plan_.csi)
    if (c.frame == frame && c.corrupt) corrupt = true;
  if (corrupt) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (auto& stack : decision)
      for (auto& h : stack)
        for (std::size_t n = 0; n < h.size(); ++n)
          h[n] = linalg::Complex(nan, nan);
  }
}

}  // namespace w4k::fault
