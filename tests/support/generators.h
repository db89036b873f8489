// Random-input generators for the property suites (tests/support/proptest.h).
//
// Each generator draws from the test's deterministic Rng, so a property
// failure reproduces exactly from the printed iteration seed. Generators
// intentionally cover the awkward corners of each domain: 1-user
// geometries, minimum-size frames, empty fault plans, single-symbol units.
#pragma once

#include "channel/propagation.h"
#include "common/rng.h"
#include "core/runner.h"
#include "core/session.h"
#include "fault/plan.h"
#include "video/frame.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace w4k::testgen {

/// Random byte string of length in [0, max_len] — fuzz-ish parser input.
inline std::vector<std::uint8_t> bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// Random printable ASCII string (newlines included) — text-parser input.
inline std::string text(Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      " \t\n#abcdefghijklmnopqrstuvwxyz0123456789.-_";
  std::string out(rng.below(max_len + 1), ' ');
  for (auto& c : out)
    c = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  return out;
}

/// Frame dimensions: positive multiples of 16, small enough for tests.
inline int dimension(Rng& rng, int max_multiples = 8) {
  return 16 * static_cast<int>(1 + rng.below(
                  static_cast<std::uint64_t>(max_multiples)));
}

/// Random YUV frame with gradient + noise content (flat frames make SSIM
/// degenerate, so mix structure and noise).
inline video::Frame frame(Rng& rng, int max_multiples = 8) {
  const int w = dimension(rng, max_multiples);
  const int h = dimension(rng, max_multiples);
  video::Frame f(w, h);
  const auto fill = [&](video::Plane& p) {
    for (int y = 0; y < p.height; ++y)
      for (int x = 0; x < p.width; ++x)
        p.at(x, y) = static_cast<std::uint8_t>(
            (x * 255 / std::max(1, p.width - 1) + rng.below(64)) & 0xff);
  };
  fill(f.y);
  fill(f.u);
  fill(f.v);
  return f;
}

/// Perturbs a frame by +/-amplitude on a random subset of luma pixels —
/// for "similar but not identical" SSIM/PSNR properties.
inline video::Frame perturbed(const video::Frame& src, Rng& rng,
                              int amplitude = 8) {
  video::Frame f = src;
  for (auto& pix : f.y.pix)
    if (rng.chance(0.25)) {
      const int delta = static_cast<int>(rng.range(-amplitude, amplitude));
      pix = static_cast<std::uint8_t>(
          std::clamp(static_cast<int>(pix) + delta, 0, 255));
    }
  return f;
}

/// Random static channel geometry: n users placed in a random annulus
/// inside the array's field of view.
inline std::vector<linalg::CVector> channels(
    Rng& rng, std::size_t n_users,
    const channel::PropagationConfig& prop = {}) {
  const double min_d = rng.uniform(1.5, 6.0);
  const double max_d = min_d + rng.uniform(0.5, 12.0);
  const double mas = rng.uniform(0.2, 1.6);
  const auto users =
      core::place_users_random(n_users, min_d, max_d, mas, rng);
  return core::channels_for(prop, users);
}

/// Random session config exercising both scheduler paths and a spread of
/// engine knobs, constrained to values SessionConfig::validate accepts.
inline core::SessionConfig session_config(Rng& rng) {
  core::SessionConfig cfg;
  cfg.optimized_schedule = rng.chance(0.7);
  cfg.adapt = rng.chance(0.8);
  cfg.mcs_margin_db = rng.uniform(0.0, 2.0);
  cfg.makeup_margin = rng.uniform(0.02, 0.2);
  cfg.seed = rng.next();
  return cfg;
}

/// Random fault plan via the library's own seeded generator, with event
/// counts drawn by the test — occasionally empty (the fault-free path).
inline fault::FaultPlan fault_plan(Rng& rng, std::uint32_t n_frames,
                                   std::size_t n_users) {
  fault::RandomPlanConfig cfg;
  cfg.feedback_events = static_cast<int>(rng.below(8));
  cfg.csi_events = static_cast<int>(rng.below(5));
  cfg.blockage_bursts = static_cast<int>(rng.below(4));
  cfg.budget_collapses = static_cast<int>(rng.below(3));
  cfg.churn_events = n_users > 1 ? static_cast<int>(rng.below(3)) : 0;
  cfg.max_burst_frames = 1 + static_cast<std::uint32_t>(rng.below(8));
  return fault::FaultPlan::random(rng.next(), n_frames, n_users, cfg);
}

/// Random payload for fountain-coding round-trips: k symbols of the given
/// size with non-trivial content.
inline std::vector<std::uint8_t> payload(Rng& rng, std::size_t bytes_len) {
  std::vector<std::uint8_t> data(bytes_len);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return data;
}

}  // namespace w4k::testgen
