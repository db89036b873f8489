#include "core/runner.h"

#include <algorithm>
#include <stdexcept>

namespace w4k::core {

std::vector<channel::Position> place_users_fixed(std::size_t n,
                                                 double distance_m,
                                                 double mas_rad, Rng& rng) {
  if (n == 0) throw std::invalid_argument("place_users_fixed: n == 0");
  std::vector<channel::Position> out;
  if (n == 1) {
    out.push_back(channel::Position::from_polar(
        distance_m, rng.uniform(-mas_rad / 2.0, mas_rad / 2.0)));
    return out;
  }
  // Leftmost and rightmost users pin the spread to exactly `mas_rad`;
  // everyone else lands uniformly between them. The window itself is
  // centred with a small random offset, like the testbed placements.
  const double centre = rng.uniform(-0.1, 0.1);
  const double left = centre - mas_rad / 2.0;
  out.push_back(channel::Position::from_polar(distance_m, left));
  for (std::size_t i = 2; i < n; ++i)
    out.push_back(channel::Position::from_polar(
        distance_m, left + rng.uniform(0.0, mas_rad)));
  out.push_back(channel::Position::from_polar(distance_m, left + mas_rad));
  return out;
}

std::vector<channel::Position> place_users_random(std::size_t n,
                                                  double min_distance_m,
                                                  double max_distance_m,
                                                  double mas_rad, Rng& rng) {
  if (n == 0) throw std::invalid_argument("place_users_random: n == 0");
  std::vector<channel::Position> out;
  const double centre = rng.uniform(-0.2, 0.2);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = rng.uniform(min_distance_m, max_distance_m);
    const double az = centre + rng.uniform(-mas_rad / 2.0, mas_rad / 2.0);
    out.push_back(channel::Position::from_polar(d, az));
  }
  return out;
}

std::vector<linalg::CVector> channels_for(
    const channel::PropagationConfig& prop,
    const std::vector<channel::Position>& users) {
  std::vector<linalg::CVector> out;
  out.reserve(users.size());
  for (const channel::Position& p : users)
    out.push_back(channel::make_channel(prop, p));
  return out;
}

SessionReport run_static(
    MulticastSession& session,
    const std::vector<std::vector<linalg::CVector>>& stacks,
    const std::vector<FrameContext>& contexts, int n_frames,
    const fault::FaultInjector* injector,
    const std::vector<std::vector<double>>& azimuths) {
  if (contexts.empty())
    throw std::invalid_argument("run_static: no frame contexts");
  SessionReport report;
  FrameOutcome outcome;
  // Channel-level faults mutate per-frame copies; the placement itself
  // stays pristine for the frames a burst does not cover. The copies are
  // hoisted out of the loop: copy-assignment reuses each channel vector's
  // buffer instead of reallocating every frame.
  std::vector<std::vector<linalg::CVector>> decision;
  std::vector<std::vector<linalg::CVector>> truth;
  fault::FrameFaults faults;
  for (int f = 0; f < n_frames; ++f) {
    const FrameContext& ctx =
        contexts[static_cast<std::size_t>(f) % contexts.size()];
    const auto frame_id = static_cast<std::uint32_t>(f);
    if (injector == nullptr) {
      session.step_into(stacks, stacks, ctx, {}, outcome);
    } else {
      decision = stacks;
      truth = stacks;
      injector->apply(frame_id, decision, truth, azimuths);
      injector->at_into(frame_id, faults);
      session.step_into(decision, truth, ctx, faults, outcome);
    }
    report.add(outcome);
  }
  return report;
}

SessionReport run_trace(MulticastSession& session,
                        const channel::CsiTrace& trace,
                        const std::vector<FrameContext>& contexts,
                        int frames_per_snapshot,
                        const fault::FaultInjector* injector) {
  if (contexts.empty())
    throw std::invalid_argument("run_trace: no frame contexts");
  if (trace.steps() == 0)
    throw std::invalid_argument("run_trace: empty trace");
  SessionReport report;
  FrameOutcome outcome;
  std::vector<std::vector<linalg::CVector>> decision(1);
  std::vector<std::vector<linalg::CVector>> truth(1);
  fault::FrameFaults faults;
  std::uint32_t frame = 0;
  for (std::size_t t = 0; t < trace.steps(); ++t) {
    const auto& now = trace.snapshots[t];
    const auto& beacon = trace.snapshots[t > 0 ? t - 1 : 0];
    for (int k = 0; k < frames_per_snapshot; ++k, ++frame) {
      const FrameContext& ctx = contexts[frame % contexts.size()];
      if (injector == nullptr) {
        session.step_into(beacon, now, ctx, {}, outcome);
      } else {
        decision[0] = beacon;
        truth[0] = now;
        injector->apply(frame, decision, truth);
        injector->at_into(frame, faults);
        session.step_into(decision, truth, ctx, faults, outcome);
      }
      report.add(outcome);
    }
  }
  return report;
}

}  // namespace w4k::core
