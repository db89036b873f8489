// Quality-model dataset construction (Sec. 2.3).
//
// For every sampled frame of every clip we encode the layer hierarchy,
// compute the content features (per-layer cumulative SSIM + blank-frame
// SSIM), then sweep random per-layer reception fractions, reconstruct the
// frame from exactly those bytes, and record the measured SSIM as label.
// The fraction of received bytes per layer stands in for the paper's
// "number of packets received at each layer" (it is the same quantity
// normalized by the layer size, which makes the model resolution-
// independent).
#pragma once

#include "common/rng.h"
#include "model/nn.h"
#include "quality/metrics.h"
#include "video/layered.h"
#include "video/synthetic.h"

#include <array>
#include <vector>

namespace w4k::model {

/// Input features of the quality model, in physical terms.
struct Features {
  std::array<double, video::kNumLayers> fraction{};   ///< received/total per layer
  std::array<double, video::kNumLayers> up_to_layer{};///< SSIM with layers 0..i full
  double blank = 0.0;                                 ///< SSIM of mid-gray frame

  /// Flattens to the 9-element network input.
  Vec to_input() const;

  /// Allocation-free variant: writes into `x` (resized to kFeatureCount,
  /// capacity reused). to_input() wraps this.
  void to_input_into(Vec& x) const;
};

inline constexpr std::size_t kFeatureCount = 9;

/// Resets `ws` to the frame's size and splices in the first
/// `fraction[l] * layer_bytes` bytes of each layer (sublayers filled in
/// ascending k order, mirroring the sender's in-order coding-unit
/// schedule; fractions are clamped to [0, 1]). Finishing `ws` then decodes
/// what a receiver of exactly those bytes sees.
void splice_fractions(const video::EncodedFrame& enc,
                      const std::array<double, video::kNumLayers>& fraction,
                      video::ReconstructWorkspace& ws);

/// Which quality metric the model learns. The paper trains on SSIM and
/// notes the methodology generalizes to PSNR; PSNR targets and anchor
/// features are normalized by kPsnrScale so they live in the same [0, 1]
/// range the sigmoid network likes.
enum class TargetMetric { kSsim, kPsnr };

/// Normalization for PSNR-valued features/targets (50 dB ~ visually
/// lossless on 8-bit content).
inline constexpr double kPsnrScale = 50.0;

/// Dataset generation knobs.
struct DatasetConfig {
  int frames_per_video = 4;       ///< frames sampled uniformly per clip
  int fractions_per_frame = 24;   ///< random reception vectors per frame
  TargetMetric metric = TargetMetric::kSsim;
  std::uint64_t seed = 1234;
};

/// A labelled dataset split.
struct Dataset {
  std::vector<Example> train;
  std::vector<Example> test;
};

/// Generates the dataset from the given clips.
Dataset build_dataset(const std::vector<video::VideoSpec>& specs,
                      const DatasetConfig& cfg);

}  // namespace w4k::model
