// Pre-computed per-frame state shared by the sender and the evaluation
// harness: the layered encoding, the quality-model content features, the
// coding-unit layout, and the original luma's SSIM/PSNR reference sums.
// Building a context is the expensive part of a streaming step (encode,
// the reference sums, and four luma-only reconstructions each scored
// against those sums), so sessions cycle through a small pool of contexts
// instead of re-encoding every simulated frame — the paper's clips are
// long, but their per-frame content features vary slowly.
#pragma once

#include "quality/metrics.h"
#include "sched/allocate.h"
#include "sched/unitmap.h"
#include "video/layered.h"
#include "video/synthetic.h"

#include <vector>

namespace w4k::core {

struct FrameContext {
  video::Frame original;
  video::EncodedFrame encoded;
  sched::FrameContent content;        ///< layer sizes + SSIM features
  std::vector<sched::UnitSpec> units; ///< coding-unit layout
  /// Σx/Σx² window sums of original.y: every score against this frame
  /// (features, blank, previous frame, each user's reconstruction) reads
  /// the reference side from here instead of recomputing it.
  quality::ReferenceSums reference;
  /// SSIM between this frame and the previous one in the clip (1.0 for the
  /// first frame); used by the ABR baselines' freeze model.
  double prev_frame_ssim = 1.0;
  /// PSNR of this frame against the blank (mid-gray) reference — pairs
  /// with content.blank_ssim so a deep-outage frame (nothing schedulable)
  /// can be scored without rebuilding the blank frame on the hot path.
  double blank_psnr = 0.0;
};

/// Builds the context for one frame. `previous` (may be null) enables the
/// prev_frame_ssim computation.
FrameContext make_frame_context(video::Frame frame,
                                const video::Frame* previous = nullptr,
                                std::size_t symbol_size = fec::kDefaultSymbolSize,
                                std::size_t symbols_per_unit =
                                    fec::kDefaultSymbolsPerUnit);

/// Builds contexts for `count` frames sampled from the start of a clip.
std::vector<FrameContext> make_contexts(const video::SyntheticVideo& clip,
                                        int count,
                                        std::size_t symbol_size =
                                            fec::kDefaultSymbolSize);

/// Reconstructs the frame a user decoded: every decoded unit contributes
/// its byte range of its sublayer, spliced straight from ctx.encoded into
/// a ReconstructWorkspace.
video::Frame reconstruct_from_units(const FrameContext& ctx,
                                    const std::vector<bool>& unit_decoded);

/// Luma-only variant for scoring: splices only the luma slice of each
/// decoded unit and decodes only Y into `out`. Bit-identical to
/// reconstruct_from_units(ctx, unit_decoded).y.
void reconstruct_luma_from_units_into(const FrameContext& ctx,
                                      const std::vector<bool>& unit_decoded,
                                      video::ReconstructWorkspace& ws,
                                      video::Plane& out);

/// The rate-scale that maps Table 2 throughputs onto reduced-resolution
/// frames: rates are multiplied by frame_bytes / bytes-of-a-4K-frame so
/// the bandwidth-to-content ratio (and hence the whole operating regime)
/// matches the paper's full-4K testbed.
double rate_scale_for(int width, int height);

/// Symbol size scaled to the frame resolution so a frame consists of the
/// same number of symbols (~3000) as a 4K frame does at the paper's 6000 B
/// — keeping coding-unit granularity and packet counts representative.
std::size_t scaled_symbol_size(int width, int height);

}  // namespace w4k::core
