#include "video/layered.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace w4k::video {
namespace {

/// Per-plane element count of one sublayer of `layer`.
std::size_t plane_elems(int layer, int w, int h) {
  switch (layer) {
    case 0: return static_cast<std::size_t>(w / 8) * (h / 8);
    case 1: return static_cast<std::size_t>(w / 8) * (h / 8);
    case 2: return static_cast<std::size_t>(w / 4) * (h / 4);
    case 3: return static_cast<std::size_t>(w / 2) * (h / 2);
    default: throw std::invalid_argument("bad layer index");
  }
}

int clamp_byte(int v) { return std::clamp(v, 0, 255); }

/// Quantizes a difference to the byte representation (d + 128, clamped).
std::uint8_t quantize_diff(int d) {
  return static_cast<std::uint8_t>(std::clamp(d + 128, 0, 255));
}

/// Recovers a difference from its byte representation.
int dequantize_diff(std::uint8_t b) { return static_cast<int>(b) - 128; }

/// Rounded integer mean of the s x s block at (bx*s, by*s).
int block_mean(const Plane& p, int bx, int by, int s) {
  int sum = 0;
  const int x0 = bx * s;
  const int y0 = by * s;
  for (int dy = 0; dy < s; ++dy)
    for (int dx = 0; dx < s; ++dx) sum += p.at(x0 + dx, y0 + dy);
  return (sum + s * s / 2) / (s * s);
}

/// Encodes one plane, writing into the plane's slice of each sublayer
/// buffer. `base[l][k]` is the byte offset of this plane inside sublayer
/// buffer (l, k).
struct PlaneEncoder {
  const Plane& plane;
  EncodedFrame& out;
  const std::array<std::array<std::size_t, 4>, kNumLayers>& base;

  void run() const {
    const int w8 = plane.width / 8;
    const int h8 = plane.height / 8;
    // Reconstructed means of the previous stage, kept so differences chain
    // against what the decoder will actually have (no drift).
    std::vector<int> m4rec(static_cast<std::size_t>(w8 * 2) * (h8 * 2));
    std::vector<int> m2rec(static_cast<std::size_t>(w8 * 4) * (h8 * 4));

    // Layer 0: 8x8 means.
    for (int by = 0; by < h8; ++by) {
      for (int bx = 0; bx < w8; ++bx) {
        const int m8 = block_mean(plane, bx, by, 8);
        out.layers[0][0][base[0][0] + static_cast<std::size_t>(by) * w8 + bx] =
            static_cast<std::uint8_t>(m8);
      }
    }
    // Layer 1: 4x4 means relative to parent 8x8.
    const int w4 = w8 * 2;
    for (int by = 0; by < h8 * 2; ++by) {
      for (int bx = 0; bx < w4; ++bx) {
        const int parent =
            out.layers[0][0][base[0][0] +
                             static_cast<std::size_t>(by / 2) * w8 + bx / 2];
        const int m4 = block_mean(plane, bx, by, 4);
        const int d = std::clamp(m4 - parent, -128, 127);
        const int k = (by % 2) * 2 + (bx % 2);
        out.layers[1][k][base[1][k] +
                         static_cast<std::size_t>(by / 2) * w8 + bx / 2] =
            quantize_diff(d);
        m4rec[static_cast<std::size_t>(by) * w4 + bx] = parent + d;
      }
    }
    // Layer 2: 2x2 means relative to parent 4x4.
    const int w2 = w8 * 4;
    for (int by = 0; by < h8 * 4; ++by) {
      for (int bx = 0; bx < w2; ++bx) {
        const int parent = m4rec[static_cast<std::size_t>(by / 2) * w4 + bx / 2];
        const int m2 = block_mean(plane, bx, by, 2);
        const int d = std::clamp(m2 - parent, -128, 127);
        const int k = (by % 2) * 2 + (bx % 2);
        out.layers[2][k][base[2][k] +
                         static_cast<std::size_t>(by / 2) * w4 + bx / 2] =
            quantize_diff(d);
        m2rec[static_cast<std::size_t>(by) * w2 + bx] = parent + d;
      }
    }
    // Layer 3: pixels relative to parent 2x2.
    const int w1 = plane.width;
    for (int y = 0; y < plane.height; ++y) {
      for (int x = 0; x < w1; ++x) {
        const int parent = m2rec[static_cast<std::size_t>(y / 2) * w2 + x / 2];
        const int d = std::clamp(plane.at(x, y) - parent, -128, 127);
        const int k = (y % 2) * 2 + (x % 2);
        out.layers[3][k][base[3][k] +
                         static_cast<std::size_t>(y / 2) * w2 + x / 2] =
            quantize_diff(d);
      }
    }
  }
};

/// One decoder stage: every parent value spawns a 2x2 child block, child
/// (2py+dy, 2px+dx) = parent + difference from sublayer k = dy*2+dx.
/// Walking child rows in pairs of sublayers keeps the inner loop free of
/// the per-pixel index arithmetic. The final stage clamps to a byte; the
/// mean planes stay unclamped ints, as the encoder chained them.
template <typename Parent, typename Child>
void upsample_stage(const Parent* parent, std::size_t pw, std::size_t ph,
                    const std::array<const std::uint8_t*, 4>& diffs,
                    Child* child) {
  const std::size_t cw = 2 * pw;
  for (std::size_t py = 0; py < ph; ++py) {
    const Parent* prow = parent + py * pw;
    for (std::size_t dy = 0; dy < 2; ++dy) {
      const std::uint8_t* d0 = diffs[dy * 2] + py * pw;
      const std::uint8_t* d1 = diffs[dy * 2 + 1] + py * pw;
      Child* crow = child + (2 * py + dy) * cw;
      for (std::size_t px = 0; px < pw; ++px) {
        const int p = prow[px];
        const int c0 = p + dequantize_diff(d0[px]);
        const int c1 = p + dequantize_diff(d1[px]);
        if constexpr (std::is_same_v<Child, std::uint8_t>) {
          crow[2 * px] = static_cast<std::uint8_t>(clamp_byte(c0));
          crow[2 * px + 1] = static_cast<std::uint8_t>(clamp_byte(c1));
        } else {
          crow[2 * px] = c0;
          crow[2 * px + 1] = c1;
        }
      }
    }
  }
}

/// Reconstructs one plane from assembled sublayer buffers (missing bytes
/// already defaulted to "no information": 128).
struct PlaneDecoder {
  Plane& plane;
  const std::array<std::vector<std::vector<std::uint8_t>>, kNumLayers>& bufs;
  const std::array<std::array<std::size_t, 4>, kNumLayers>& base;
  // Caller-provided mean-plane scratch (every element is written before it
  // is read, so resize without zeroing is enough).
  std::vector<int>& m4;
  std::vector<int>& m2;

  void run() const {
    const auto w8 = static_cast<std::size_t>(plane.width / 8);
    const auto h8 = static_cast<std::size_t>(plane.height / 8);
    m4.resize(w8 * 2 * h8 * 2);
    m2.resize(w8 * 4 * h8 * 4);
    const auto diffs = [&](int l) {
      std::array<const std::uint8_t*, 4> d{};
      for (std::size_t k = 0; k < 4; ++k)
        d[k] = bufs[l][k].data() + base[l][k];
      return d;
    };
    upsample_stage(bufs[0][0].data() + base[0][0], w8, h8, diffs(1),
                   m4.data());
    upsample_stage(m4.data(), w8 * 2, h8 * 2, diffs(2), m2.data());
    upsample_stage(m2.data(), w8 * 4, h8 * 4, diffs(3), plane.pix.data());
  }
};

/// Byte offsets of the Y/U/V plane slices inside each sublayer buffer.
struct PlaneBases {
  std::array<std::array<std::size_t, 4>, kNumLayers> y{};
  std::array<std::array<std::size_t, 4>, kNumLayers> u{};
  std::array<std::array<std::size_t, 4>, kNumLayers> v{};
};

PlaneBases plane_bases(int width, int height) {
  PlaneBases b;
  for (int l = 0; l < kNumLayers; ++l) {
    const std::size_t ye = plane_elems(l, width, height);
    const std::size_t ce = plane_elems(l, width / 2, height / 2);
    for (int k = 0; k < sublayer_count(l); ++k) {
      b.y[l][static_cast<std::size_t>(k)] = 0;
      b.u[l][static_cast<std::size_t>(k)] = ye;
      b.v[l][static_cast<std::size_t>(k)] = ye + ce;
    }
  }
  return b;
}

void check_dims(int width, int height) {
  if (width <= 0 || height <= 0 || width % 16 != 0 || height % 16 != 0)
    throw std::invalid_argument(
        "layered codec: dimensions must be positive multiples of 16");
}

}  // namespace

std::size_t sublayer_bytes(int layer, int width, int height) {
  check_dims(width, height);
  return plane_elems(layer, width, height) +
         2 * plane_elems(layer, width / 2, height / 2);
}

std::size_t sublayer_luma_bytes(int layer, int width, int height) {
  check_dims(width, height);
  return plane_elems(layer, width, height);
}

std::size_t layer_bytes(int layer, int width, int height) {
  return sublayer_bytes(layer, width, height) *
         static_cast<std::size_t>(sublayer_count(layer));
}

std::size_t EncodedFrame::total_bytes() const {
  std::size_t n = 0;
  for (const auto& layer : layers)
    for (const auto& sub : layer) n += sub.size();
  return n;
}

EncodedFrame encode(const Frame& frame) {
  check_dims(frame.width(), frame.height());
  EncodedFrame out;
  out.width = frame.width();
  out.height = frame.height();
  for (int l = 0; l < kNumLayers; ++l) {
    out.layers[l].assign(
        static_cast<std::size_t>(sublayer_count(l)),
        std::vector<std::uint8_t>(
            sublayer_bytes(l, frame.width(), frame.height())));
  }
  const PlaneBases bases = plane_bases(frame.width(), frame.height());
  PlaneEncoder{frame.y, out, bases.y}.run();
  PlaneEncoder{frame.u, out, bases.u}.run();
  PlaneEncoder{frame.v, out, bases.v}.run();
  return out;
}

void ReconstructWorkspace::begin(int width, int height) {
  check_dims(width, height);
  width_ = width;
  height_ = height;
  // Reset to the "no information" default: 128 decodes as mid-gray for
  // layer 0 and as a zero difference for layers 1-3. assign() reuses each
  // buffer's capacity.
  for (int l = 0; l < kNumLayers; ++l) {
    const std::size_t sz = sublayer_bytes(l, width, height);
    bufs_[l].resize(static_cast<std::size_t>(sublayer_count(l)));
    for (auto& sub : bufs_[l]) sub.assign(sz, 128);
  }
}

void ReconstructWorkspace::write(int layer, int k, std::size_t offset,
                                 const std::uint8_t* data, std::size_t n) {
  auto& buf = bufs_[layer][static_cast<std::size_t>(k)];
  if (offset > buf.size()) return;  // malformed; ignore
  n = std::min(n, buf.size() - offset);
  std::copy(data, data + n,
            buf.begin() + static_cast<std::ptrdiff_t>(offset));
}

namespace {

/// In-place plane (re)size; element values are left unspecified, which is
/// fine for the decoder (it writes every pixel).
void resize_plane(Plane& p, int w, int h) {
  p.width = w;
  p.height = h;
  p.pix.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
}

}  // namespace

void ReconstructWorkspace::finish(Frame& out) {
  resize_plane(out.y, width_, height_);
  resize_plane(out.u, width_ / 2, height_ / 2);
  resize_plane(out.v, width_ / 2, height_ / 2);
  const PlaneBases bases = plane_bases(width_, height_);
  PlaneDecoder{out.y, bufs_, bases.y, m4_, m2_}.run();
  PlaneDecoder{out.u, bufs_, bases.u, m4_, m2_}.run();
  PlaneDecoder{out.v, bufs_, bases.v, m4_, m2_}.run();
}

void ReconstructWorkspace::finish_luma(Plane& out) {
  resize_plane(out, width_, height_);
  PlaneDecoder{out, bufs_, plane_bases(width_, height_).y, m4_, m2_}.run();
}

}  // namespace w4k::video
