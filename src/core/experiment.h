// Shared experiment setup: one builder for the config -> contexts ->
// placement -> channels -> session wiring that every bench binary and
// example used to copy-paste. Construct it with a trained quality model
// and the frame contexts, adjust config() / placement, then run.
//
//   core::Experiment exp(quality, contexts);
//   exp.config().seed = run;
//   exp.place_random(4, 8.0, 16.0, 2.09, placement_rng);
//   core::SessionReport report = exp.run_static(6);
//
// The session is built lazily on the first run and rebuilt whenever the
// config or placement changes, so a builder can be reused across runs of a
// sweep.
#pragma once

#include "core/runner.h"

#include <optional>
#include <vector>

namespace w4k::core {

class Experiment {
 public:
  /// `quality` must stay alive for the Experiment's lifetime and be
  /// trained before the first run. The default config is scaled to the
  /// first context's frame dimensions (SessionConfig::scaled); throws
  /// std::invalid_argument on empty contexts.
  Experiment(model::QualityModel& quality,
             std::vector<FrameContext> contexts);

  /// Mutable config; changes invalidate the cached session.
  SessionConfig& config();
  const SessionConfig& config() const { return cfg_; }

  /// Codebook handed to the session (pre-defined schemes / estimated CSI).
  Experiment& codebook(beamforming::Codebook cb);

  /// Testbed-style placement: `n` users at a fixed distance spread over
  /// `mas_rad` (place_users_fixed).
  Experiment& place_fixed(std::size_t n, double distance_m, double mas_rad,
                          Rng& rng);
  /// Emulation-style placement: distances in [min, max] inside an azimuth
  /// window of `mas_rad` (place_users_random).
  Experiment& place_random(std::size_t n, double min_distance_m,
                           double max_distance_m, double mas_rad, Rng& rng);
  /// Explicit channels (skips placement/propagation entirely).
  Experiment& channels(std::vector<linalg::CVector> chans);

  const std::vector<channel::Position>& users() const { return users_; }
  const std::vector<FrameContext>& contexts() const { return contexts_; }

  /// The lazily built session (constructing validates the config).
  MulticastSession& session();

  /// Streams `n_frames` over the placed static channels, fault-free.
  /// Faulted runs go through core::run_static with a FaultInjector.
  SessionReport run_static(int n_frames);
  /// Streams over a CSI trace (placement not required), fault-free.
  SessionReport run_trace(const channel::CsiTrace& trace,
                          int frames_per_snapshot = 3);

 private:
  model::QualityModel& quality_;
  std::vector<FrameContext> contexts_;
  SessionConfig cfg_;
  beamforming::Codebook codebook_;
  std::vector<channel::Position> users_;
  std::vector<linalg::CVector> channels_;
  std::optional<MulticastSession> session_;
};

}  // namespace w4k::core
