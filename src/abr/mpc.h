// DASH adaptive-bitrate baselines: Robust MPC and Fast MPC (Yin et al.,
// SIGCOMM'15), the two strongest live-ABR algorithms per the paper's
// Sec. 4.3.4 comparison.
//
// Model: the video is a ladder of discrete bitrates; one chunk = one GoP
// (coarse adaptation granularity — MPC cannot change rate inside a GoP).
// Every chunk the controller predicts throughput from past samples
// (FastMPC: harmonic mean of the last 5; RobustMPC: harmonic mean
// discounted by the recent maximum prediction error) and picks the ladder
// rate maximizing QoE = quality - rebuffer penalty - switch penalty over a
// 5-chunk horizon. Transmission is unicast (users time-share the link).
// When a chunk misses its live deadline the decoder loses the rest of the
// GoP: frames after the cut freeze at the previous decoded frame, whose
// quality decays with the freeze gap — the standard-codec failure mode the
// paper contrasts with layered coding.
//
// Quality mapping: a DASH encode at bitrate R is mapped onto the layered
// codec's measured rate-quality curve (cumulative layer bytes -> SSIM,
// piecewise linear) with a codec-efficiency factor, since H.264 spends
// bytes ~3x more efficiently than the uncompressed pixel-domain layers.
#pragma once

#include "channel/mobility.h"
#include "core/frame_context.h"

#include <array>
#include <vector>

namespace w4k::abr {

enum class Predictor { kRobustMpc, kFastMpc };

std::string to_string(Predictor p);

/// Bitrate ladder at 4K scale, ascending (Mbps); scaled by rate_scale.
/// Deliberately coarse — the paper's point about DASH is that its
/// "coarse-grained bitrate options" cannot adapt within a GoP.
inline constexpr std::array<double, 6> kLadderMbps = {200,  400,  800,
                                                      1200, 1600, 2000};
/// SSIM ceiling of a real encoder: lossy DASH rungs never reach the
/// uncompressed-layered codec's 1.0 top anchor.
inline constexpr double kEncoderCeiling = 0.98;

struct AbrConfig {
  /// Same resolution rate-scale the multicast system uses.
  double rate_scale = 1.0;
};

/// SSIM a DASH encode at `bitrate_mbps` (4K scale) achieves on the frame
/// described by `ctx`: interpolated on the layered rate-quality curve.
double dash_quality(const AbrConfig& cfg, const core::FrameContext& ctx,
                    double bitrate_mbps);

struct AbrRunResult {
  std::vector<double> ssim;        ///< per (frame, user), row-major frames
  std::vector<double> chosen_mbps; ///< per (chunk, user)
  double deadline_miss_fraction = 0.0;
};

/// Replays a CSI trace through the MPC controller for `n_users` unicast
/// sessions sharing the link (each gets 1/n of the airtime).
AbrRunResult run_abr_trace(const AbrConfig& cfg, Predictor predictor,
                           const channel::CsiTrace& trace,
                           const std::vector<core::FrameContext>& contexts,
                           std::size_t n_users);

}  // namespace w4k::abr
