// Full-reference video quality metrics (stand-in for the paper's FFmpeg
// SSIM computation).
//
// SSIM follows Wang et al. 2004 in the FFmpeg variant: 8x8 box windows
// with stride 4 on the luma plane, C1 = (0.01*255)^2, C2 = (0.03*255)^2.
// PSNR is the standard 10*log10(255^2 / MSE) on luma.
//
// Like FFmpeg's vf_ssim, the kernel first takes integer 4x4 block sums
// (Σx, Σy, Σx², Σy², Σxy) and forms each stride-4 8x8 window from 2x2
// blocks, so every pixel is read once instead of four times. All sums are
// exact integers and the per-window double arithmetic and its summation
// order are fixed, so results do not depend on the tiling or pool size.
// The reference side (Σx, Σx²) of a plane can be computed once as a
// ReferenceSums and shared by every score against that plane.
#pragma once

#include "video/frame.h"
#include "video/layered.h"

#include <array>
#include <cstdint>
#include <vector>

namespace w4k::quality {

/// Mean SSIM between two luma planes of identical dimensions.
/// Throws std::invalid_argument on dimension mismatch.
double ssim(const video::Plane& reference, const video::Plane& distorted);

/// Mean SSIM on the luma planes of two frames.
double ssim(const video::Frame& reference, const video::Frame& distorted);

/// PSNR in dB on luma; identical planes yield +inf capped at 100 dB
/// (FFmpeg's convention for lossless frames).
double psnr(const video::Plane& reference, const video::Plane& distorted);

/// The reference side of every SSIM/PSNR against one plane: Σx and Σx²
/// of each 8x8 stride-4 window (row-major over the window grid), plus
/// plane totals over every pixel, including the edge strips outside the
/// 4x4 block grid that only PSNR reads.
struct ReferenceSums {
  int width = 0;
  int height = 0;
  std::vector<std::int32_t> win_s;
  std::vector<std::int32_t> win_ss;
  std::int64_t total_s = 0;
  std::int64_t total_ss = 0;
};

/// Fills `out` for `reference` (capacity reused). Throws
/// std::invalid_argument if the plane is smaller than one window.
void reference_sums_into(const video::Plane& reference, ReferenceSums& out);
ReferenceSums reference_sums(const video::Plane& reference);

struct Scores {
  double ssim = 0.0;
  double psnr = 0.0;
};

/// SSIM and PSNR of `distorted` against `reference` in one pass, reading
/// the reference side from `ref` (built from `reference`). Bit-identical
/// to {ssim(reference, distorted), psnr(reference, distorted)}. Throws
/// std::invalid_argument on a dimension mismatch between any two.
Scores scores(const video::Plane& reference, const ReferenceSums& ref,
              const video::Plane& distorted);

/// Scores of the blank (constant mid-gray 128) plane against the plane
/// `ref` was built from, from the sums alone. Bit-identical to scores
/// against the luma of an explicit video::Frame::blank.
Scores blank_scores(const ReferenceSums& ref);

/// The quality-model features of Sec. 2.3 that depend only on content:
/// cumulative SSIM when everything up to layer i is received, and the SSIM
/// of the blank (mid-gray) frame.
struct ContentFeatures {
  /// up_to[i]: SSIM of the reconstruction from layers 0..i complete.
  std::array<double, video::kNumLayers> up_to_layer{};
  double blank = 0.0;
  /// PSNR of the blank frame. Not a model feature; it comes free with
  /// `blank` and scores outage frames.
  double blank_psnr = 0.0;
};

/// Computes the content features for a frame given its encoding.
ContentFeatures content_features(const video::Frame& original,
                                 const video::EncodedFrame& encoded);

/// Same, for a luma plane whose sums are already in `ref`. Decodes only
/// the luma of each layer prefix.
ContentFeatures content_features(const video::Plane& original,
                                 const ReferenceSums& ref,
                                 const video::EncodedFrame& encoded);

}  // namespace w4k::quality
