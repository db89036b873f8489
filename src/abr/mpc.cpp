#include "abr/mpc.h"

#include "beamforming/codebook.h"
#include "channel/array.h"
#include "channel/mcs.h"
#include "emu/loss.h"
#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace w4k::abr {
namespace {

/// H.264-vs-layered byte efficiency when mapping bitrate to quality.
/// Calibrated so the top DASH rung lands at roughly the quality the
/// layered system reaches with the full channel — the regime the paper's
/// testbed exhibits (its MPC baselines trail Real-time Update by only
/// ~0.02 SSIM under static high RSS).
constexpr double kCodecEfficiency = 1.5;

}  // namespace

std::string to_string(Predictor p) {
  return p == Predictor::kRobustMpc ? "RobustMPC" : "FastMPC";
}

double dash_quality(const AbrConfig& cfg, const core::FrameContext& ctx,
                    double bitrate_mbps) {
  // Effective position on the layered rate-quality curve. The bitrate is
  // at 4K scale; the context's layer sizes are at the (possibly reduced)
  // emulation resolution, so apply the same rate_scale the multicast
  // system uses.
  const double bytes_per_frame = bitrate_mbps * cfg.rate_scale * 1e6 / 8.0 /
                                 kFrameRate * kCodecEfficiency;

  // Piecewise-linear curve through (0, blank) and the cumulative-layer
  // checkpoints (sum bytes of layers 0..i, SSIM with layers 0..i full).
  double prev_x = 0.0;
  double prev_y = ctx.content.blank_ssim;
  double cum = 0.0;
  for (int l = 0; l < video::kNumLayers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    cum += ctx.content.layer_bytes[ls];
    const double y = ctx.content.up_to_layer_ssim[ls];
    if (bytes_per_frame <= cum) {
      const double span = cum - prev_x;
      const double frac = span > 0.0 ? (bytes_per_frame - prev_x) / span : 1.0;
      return std::min(kEncoderCeiling, prev_y + (y - prev_y) * frac);
    }
    prev_x = cum;
    prev_y = y;
  }
  return std::min(kEncoderCeiling, prev_y);
}

namespace {

static_assert(!kLadderMbps.empty());
constexpr int kHorizon = 5;               ///< MPC lookahead (paper: n = 5)
constexpr Seconds kChunkDuration = 1.0;   ///< one GoP per chunk
/// MPC QoE weights (Yin et al.).
constexpr double kRebufferPenalty = 4.3;
constexpr double kSwitchPenalty = 1.0;
/// Residual loss for the unicast MAC-ARQ link.
constexpr double kResidualLoss = 0.01;
/// Quality decay per frozen frame after a GoP loss.
constexpr double kFreezeDecay = 0.02;

/// Per-user controller state.
struct UserState {
  std::deque<double> samples;       ///< past chunk goodputs (Mbps)
  std::deque<double> errors;        ///< past relative prediction errors
  double last_prediction = 0.0;
  double last_quality = 0.0;
  int last_rate_index = 0;
};

double predict(const AbrConfig& cfg, Predictor p, const UserState& s) {
  if (s.samples.empty()) return 0.0;
  std::vector<double> v(s.samples.begin(), s.samples.end());
  const double hm = w4k::harmonic_mean(v);
  if (p == Predictor::kFastMpc) return hm;
  // RobustMPC: discount by the max recent relative error.
  double max_err = 0.0;
  for (double e : s.errors) max_err = std::max(max_err, e);
  return hm / (1.0 + max_err);
}

/// Stock-firmware sector codebook the DASH clients beamform with: a plain
/// DASH receiver runs standard SLS on pre-defined sectors, not the
/// multicast system's CSI-optimized beams.
const beamforming::Codebook& stock_codebook() {
  static const beamforming::Codebook cb = [] {
    beamforming::CodebookConfig cfg;
    cfg.n_beams = 24;
    return beamforming::make_sector_codebook(cfg);
  }();
  return cb;
}

/// Unicast goodput (Mbps, already rate-scaled and airtime-shared) for one
/// user at one CSI snapshot. The DASH receiver rides the same physics as
/// the multicast system: the sector beam and MCS come from the *previous*
/// beacon's CSI (`h_stale`), and losses depend on how the current channel
/// (`h_now`) holds up under those choices — ARQ recovers them at the cost
/// of goodput.
double snapshot_goodput(const AbrConfig& cfg, const linalg::CVector& h_stale,
                        const linalg::CVector& h_now, std::size_t n_users) {
  const auto& cb = stock_codebook();
  std::size_t best = 0;
  double best_rss = -1e300;
  for (std::size_t k = 0; k < cb.size(); ++k) {
    const double rss = channel::beam_rss(h_stale, cb[k]).value;
    if (rss > best_rss) {
      best_rss = rss;
      best = k;
    }
  }
  const auto mcs = channel::select_mcs(Dbm{best_rss});
  if (!mcs) return 0.0;
  const double loss =
      emu::associated_loss(channel::beam_rss(h_now, cb[best]), *mcs);
  const double p = std::max(kResidualLoss, loss);
  return mcs->udp_throughput.value * cfg.rate_scale * (1.0 - p) /
         static_cast<double>(n_users);
}

}  // namespace

AbrRunResult run_abr_trace(const AbrConfig& cfg, Predictor predictor,
                           const channel::CsiTrace& trace,
                           const std::vector<core::FrameContext>& contexts,
                           std::size_t n_users) {
  if (contexts.empty())
    throw std::invalid_argument("run_abr_trace: no frame contexts");
  if (trace.steps() == 0 || trace.users() < n_users)
    throw std::invalid_argument("run_abr_trace: trace too small");

  const auto snaps_per_chunk = static_cast<std::size_t>(
      std::max(1.0, kChunkDuration / trace.interval));
  const auto frames_per_chunk =
      static_cast<std::size_t>(kFrameRate * kChunkDuration);
  const std::size_t n_chunks = trace.steps() / snaps_per_chunk;

  AbrRunResult res;
  std::vector<UserState> users(n_users);
  // Bootstrap each user's first prediction from the first snapshot.
  for (std::size_t u = 0; u < n_users; ++u) {
    users[u].samples.push_back(std::max(
        1e-3, snapshot_goodput(cfg, trace.snapshots[0][u],
                               trace.snapshots[0][u], n_users)));
  }

  std::size_t misses = 0;
  std::size_t chunk_count = 0;
  std::size_t frame_index = 0;
  res.ssim.resize(n_chunks * frames_per_chunk * n_users);

  for (std::size_t c = 0; c < n_chunks; ++c, ++chunk_count) {
    for (std::size_t u = 0; u < n_users; ++u) {
      UserState& s = users[u];
      const double pred = std::max(1e-3, predict(cfg, predictor, s));
      s.last_prediction = pred;

      // MPC: evaluate each ladder option held constant over the horizon.
      const core::FrameContext& rep_ctx =
          contexts[frame_index % contexts.size()];
      double best_qoe = -1e300;
      int best_idx = 0;
      for (std::size_t r = 0; r < kLadderMbps.size(); ++r) {
        const double rate = kLadderMbps[r] * cfg.rate_scale;
        const double q = dash_quality(cfg, rep_ctx, kLadderMbps[r]);
        const double download = rate / pred * kChunkDuration;
        const double rebuffer = std::max(0.0, download - kChunkDuration);
        const double qoe =
            static_cast<double>(kHorizon) * (q - kRebufferPenalty * rebuffer) -
            kSwitchPenalty * std::abs(q - s.last_quality);
        if (qoe > best_qoe) {
          best_qoe = qoe;
          best_idx = static_cast<int>(r);
        }
      }
      s.last_rate_index = best_idx;
      const double chosen = kLadderMbps[static_cast<std::size_t>(best_idx)];
      res.chosen_mbps.push_back(chosen);

      // Actual delivery over the chunk's snapshots.
      double goodput_sum = 0.0;
      for (std::size_t k = 0; k < snaps_per_chunk; ++k) {
        const std::size_t t = c * snaps_per_chunk + k;
        const std::size_t t_prev = t > 0 ? t - 1 : 0;
        goodput_sum += snapshot_goodput(cfg, trace.snapshots[t_prev][u],
                                        trace.snapshots[t][u], n_users);
      }
      const double goodput = goodput_sum / static_cast<double>(snaps_per_chunk);
      const double need_mbps = chosen * cfg.rate_scale;
      const double fraction =
          need_mbps <= 0.0 ? 1.0 : std::min(1.0, goodput / need_mbps);
      // Live edge: a chunk that misses its deadline is worthless, the whole
      // GoP freezes (the failure mode [20] reports under mobile links).
      const std::size_t ok_frames = fraction >= 1.0 ? frames_per_chunk : 0;
      if (ok_frames < frames_per_chunk) ++misses;

      double last_q = 0.0;
      for (std::size_t i = 0; i < frames_per_chunk; ++i) {
        const std::size_t fi = frame_index + i;
        const core::FrameContext& ctx = contexts[fi % contexts.size()];
        double ssim;
        if (i < ok_frames) {
          ssim = dash_quality(cfg, ctx, chosen);
          last_q = ssim;
        } else {
          // GoP loss: the display freezes on the last decoded frame; its
          // similarity to the advancing original decays with the gap.
          const double gap = static_cast<double>(i - ok_frames + 1);
          const double frozen =
              std::min(last_q, ctx.prev_frame_ssim) - kFreezeDecay * gap;
          ssim = std::max(ctx.content.blank_ssim, frozen);
        }
        res.ssim[fi * n_users + u] = ssim;
      }
      s.last_quality = dash_quality(cfg, rep_ctx, chosen);

      // Record the measured sample + prediction error.
      s.samples.push_back(std::max(1e-3, goodput));
      if (s.samples.size() > 5) s.samples.pop_front();
      s.errors.push_back(std::abs(pred - goodput) / std::max(1e-3, goodput));
      if (s.errors.size() > 5) s.errors.pop_front();
    }
    frame_index += frames_per_chunk;
  }
  res.deadline_miss_fraction =
      chunk_count == 0 ? 0.0
                       : static_cast<double>(misses) /
                             static_cast<double>(chunk_count * n_users);
  return res;
}

}  // namespace w4k::abr
