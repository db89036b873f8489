#include "core/experiment.h"

#include <stdexcept>
#include <utility>

namespace w4k::core {

Experiment::Experiment(model::QualityModel& quality,
                       std::vector<FrameContext> contexts)
    : quality_(quality), contexts_(std::move(contexts)) {
  if (contexts_.empty())
    throw std::invalid_argument("Experiment: no frame contexts");
  cfg_ = SessionConfig::scaled(contexts_.front().original.width(),
                               contexts_.front().original.height());
}

SessionConfig& Experiment::config() {
  session_.reset();
  return cfg_;
}

Experiment& Experiment::codebook(beamforming::Codebook cb) {
  codebook_ = std::move(cb);
  session_.reset();
  return *this;
}

Experiment& Experiment::place_fixed(std::size_t n, double distance_m,
                                    double mas_rad, Rng& rng) {
  users_ = place_users_fixed(n, distance_m, mas_rad, rng);
  channels_ = channels_for(channel::PropagationConfig{}, users_);
  session_.reset();
  return *this;
}

Experiment& Experiment::place_random(std::size_t n, double min_distance_m,
                                     double max_distance_m, double mas_rad,
                                     Rng& rng) {
  users_ = place_users_random(n, min_distance_m, max_distance_m, mas_rad,
                              rng);
  channels_ = channels_for(channel::PropagationConfig{}, users_);
  session_.reset();
  return *this;
}

Experiment& Experiment::channels(std::vector<linalg::CVector> chans) {
  users_.clear();
  channels_ = std::move(chans);
  session_.reset();
  return *this;
}

MulticastSession& Experiment::session() {
  if (!session_) session_.emplace(cfg_, quality_, codebook_);
  return *session_;
}

SessionReport Experiment::run_static(int n_frames) {
  if (channels_.empty())
    throw std::invalid_argument(
        "Experiment::run_static: no users placed (call place_fixed / "
        "place_random / channels first)");
  return core::run_static(session(), {channels_}, contexts_, n_frames);
}

SessionReport Experiment::run_trace(const channel::CsiTrace& trace,
                                    int frames_per_snapshot) {
  return core::run_trace(session(), trace, contexts_, frames_per_snapshot);
}

}  // namespace w4k::core
