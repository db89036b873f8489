// Jigsaw-style layered video codec (Sec. 2.2).
//
// A frame is decomposed into a pixel-domain hierarchy:
//   layer 0: the mean of every 8x8 block (a 512x270 thumbnail for 4K);
//   layer 1: per 4x4 block, mean(4x4) - mean(parent 8x8);
//   layer 2: per 2x2 block, mean(2x2) - mean(parent 4x4);
//   layer 3: per pixel,     pixel     - mean(parent 2x2).
// Each of layers 1-3 has four *sublayers*: sublayer k holds the k-th child
// block of every parent (raster order: 0=top-left, 1=top-right,
// 2=bottom-left, 3=bottom-right). The decomposition is applied to all
// three YUV planes; a sublayer buffer is the concatenation Y|U|V.
//
// The decoder is progressive: any subset of sublayer bytes reconstructs a
// frame — missing differences are treated as zero, so the affected region
// falls back to the coarser layer's mean. This is the property that lets
// the multicast scheduler trade bytes for quality continuously.
//
// Differences are quantized to 8 bits as (diff + 128) clamped to [0, 255];
// quantization noise is at most 1 LSB per stage except in the rare
// saturation case, so full reception is visually lossless.
#pragma once

#include "video/frame.h"

#include <array>
#include <cstdint>
#include <vector>

namespace w4k::video {

inline constexpr int kNumLayers = 4;
/// Layers 1..3 have 4 sublayers each; layer 0 has a single sublayer.
inline constexpr int kSublayersPerDiffLayer = 4;

/// Number of sublayers in the given layer (1 for layer 0, else 4).
constexpr int sublayer_count(int layer) {
  return layer == 0 ? 1 : kSublayersPerDiffLayer;
}

/// Byte size of one sublayer buffer of `layer` for a frame of the given
/// luma dimensions (includes all three planes).
std::size_t sublayer_bytes(int layer, int width, int height);

/// Byte size of the luma (Y) slice that leads every sublayer buffer of
/// `layer` — all the luma-only decoder reads.
std::size_t sublayer_luma_bytes(int layer, int width, int height);

/// Total byte size of a layer (all its sublayers).
std::size_t layer_bytes(int layer, int width, int height);

/// Fully encoded frame: 1 + 4 + 4 + 4 = 13 sublayer buffers.
struct EncodedFrame {
  int width = 0;
  int height = 0;
  /// layers[l][k] is sublayer k of layer l. layers[0] has one entry.
  std::array<std::vector<std::vector<std::uint8_t>>, kNumLayers> layers;

  std::size_t total_bytes() const;
};

/// Encodes a frame into the full layer hierarchy.
/// Throws std::invalid_argument if dimensions are not multiples of 16.
EncodedFrame encode(const Frame& frame);

/// Reusable scratch for the progressive decoder: owns the 13 assembled
/// sublayer buffers plus the intermediate mean planes, all of which keep
/// their capacity across frames. Usage per reconstruction:
///   ws.begin(w, h);                 // buffers reset to "no information"
///   ws.write(l, k, offset, p, n);   // splice received byte ranges in
///   ws.finish(frame);               // decode into a reusable Frame
/// One workspace serves any number of frames of any (bounded) size; the
/// steady state performs zero heap allocations.
class ReconstructWorkspace {
 public:
  /// Resets every sublayer buffer to the default byte 128 (mid-gray for
  /// layer 0, zero difference for layers 1-3) at the given dimensions.
  void begin(int width, int height);

  /// Copies `n` bytes into sublayer (layer, k) at byte `offset`, clipped
  /// to the buffer: an offset past its end writes nothing, a run past its
  /// end is cut there.
  void write(int layer, int k, std::size_t offset, const std::uint8_t* data,
             std::size_t n);

  /// Decodes the assembled buffers into `out` (planes resized in place,
  /// capacity reused). Must follow a begin().
  void finish(Frame& out);

  /// Decodes only the luma plane into `out` (resized in place). SSIM and
  /// PSNR read nothing else. Bit-identical to finish()'s out.y.
  void finish_luma(Plane& out);

 private:
  int width_ = 0;
  int height_ = 0;
  std::array<std::vector<std::vector<std::uint8_t>>, kNumLayers> bufs_;
  std::vector<int> m4_, m2_;  // decoder mean-plane scratch
};

}  // namespace w4k::video
