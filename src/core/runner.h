// Experiment runners: user placement helpers and the static / trace-driven
// streaming loops shared by the benchmark harnesses and tests.
#pragma once

#include "channel/mobility.h"
#include "channel/propagation.h"
#include "core/report.h"
#include "core/session.h"
#include "fault/injector.h"

#include <vector>

namespace w4k::core {

/// Places `n` users at a fixed distance with angular positions drawn so the
/// spread from leftmost to rightmost equals the given maximum angular
/// spacing (testbed placements, Fig. 4a).
std::vector<channel::Position> place_users_fixed(std::size_t n,
                                                 double distance_m,
                                                 double mas_rad, Rng& rng);

/// Random placements with distance in [min, max] and azimuths inside a
/// window of width `mas_rad` (emulation placements, Fig. 4b).
std::vector<channel::Position> place_users_random(std::size_t n,
                                                  double min_distance_m,
                                                  double max_distance_m,
                                                  double mas_rad, Rng& rng);

/// Channels for a static placement.
std::vector<linalg::CVector> channels_for(
    const channel::PropagationConfig& prop,
    const std::vector<channel::Position>& users);

/// Streams `n_frames` over static per-AP channel stacks ([ap][user],
/// channel::ap_channel_stacks; a single-AP run passes `{channels}`),
/// cycling through `contexts`. Decision CSI equals the true channel
/// (static case: beacons are fresh). Returns the accumulated per-frame
/// outcomes with all the aggregation helpers of SessionReport
/// (per-(frame,user) quality via all_ssim(), raw outcomes via
/// frame_outcomes()).
///
/// With an `injector`, each frame's FrameFaults come from
/// `injector->at_into(frame, faults)` into one reused record, and its
/// channel-level faults (blockage bursts, AP outages, CSI corruption) are
/// applied to per-frame copies of the stacks before stepping.
/// `azimuths[a][u]` (channel::ap_user_azimuths) feeds the sector-outage
/// geometry; leave it empty to degrade sector outages to total ones. An
/// empty FaultPlan reproduces the run without an injector bit-identically
/// (the chaos suite asserts this); without one no channel is copied.
SessionReport run_static(
    MulticastSession& session,
    const std::vector<std::vector<linalg::CVector>>& stacks,
    const std::vector<FrameContext>& contexts, int n_frames,
    const fault::FaultInjector* injector = nullptr,
    const std::vector<std::vector<double>>& azimuths = {});

/// Streams over a single-AP CSI trace at 30 FPS (3 frames per 100 ms
/// beacon): the sender acts on the previous beacon's CSI while the true
/// channel is the current snapshot — the one-beacon staleness of real
/// 802.11ad. An `injector` works as in run_static.
SessionReport run_trace(MulticastSession& session,
                        const channel::CsiTrace& trace,
                        const std::vector<FrameContext>& contexts,
                        int frames_per_snapshot = 3,
                        const fault::FaultInjector* injector = nullptr);

}  // namespace w4k::core
