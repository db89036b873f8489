// Whole-frame decodes of encoded-layer prefixes for tests, through the one
// partial-frame decoder (video::ReconstructWorkspace).
#pragma once

#include "video/layered.h"

namespace w4k::testdecode {

/// Splices every sublayer of layers 0..`layer` of `enc` in full into `ws`
/// (reset first), as a receiver of exactly those layers holds them.
inline void splice_layers(const video::EncodedFrame& enc, int layer,
                          video::ReconstructWorkspace& ws) {
  ws.begin(enc.width, enc.height);
  for (int l = 0; l <= layer && l < video::kNumLayers; ++l) {
    for (int k = 0; k < video::sublayer_count(l); ++k) {
      const auto& sub = enc.layers[l][static_cast<std::size_t>(k)];
      ws.write(l, k, 0, sub.data(), sub.size());
    }
  }
}

/// The frame decoded from layers 0..`layer` of `enc`, nothing above.
inline video::Frame decode_layers(const video::EncodedFrame& enc, int layer) {
  video::ReconstructWorkspace ws;
  splice_layers(enc, layer, ws);
  video::Frame out;
  ws.finish(out);
  return out;
}

/// The frame decoded from every layer of `enc`.
inline video::Frame decode_all(const video::EncodedFrame& enc) {
  return decode_layers(enc, video::kNumLayers - 1);
}

}  // namespace w4k::testdecode
