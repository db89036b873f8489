// Reference implementations of the quality metrics, kept only as the test
// oracle for src/quality/metrics.cpp.
//
// The direct formulations, with no shared sums: every 8x8 stride-4 window
// reads its 64 pixels for all five sums, and PSNR sums squared differences
// in fixed 64 Ki-pixel bands of doubles. SSIM reduces in the library's
// fixed 32-window-row bands, in order, so the library's block-sum kernel
// must match these bit for bit on any plane and at any pool size.
#pragma once

#include "common/thread_pool.h"
#include "video/frame.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace w4k::oracle {
namespace detail {

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
constexpr int kWindow = 8;
constexpr int kStride = 4;
constexpr std::size_t kBandRows = 32;

inline void check_same(const video::Plane& a, const video::Plane& b) {
  if (a.width != b.width || a.height != b.height)
    throw std::invalid_argument("oracle: plane dimension mismatch");
  if (a.width < kWindow || a.height < kWindow)
    throw std::invalid_argument("oracle: plane smaller than window");
}

struct BandSums {
  double ssim = 0.0;
  long windows = 0;
};

inline BandSums band_sums(const video::Plane& a, const video::Plane& b,
                          std::size_t wr_begin, std::size_t wr_end) {
  BandSums out;
  for (std::size_t wr = wr_begin; wr < wr_end; ++wr) {
    const int wy = static_cast<int>(wr) * kStride;
    for (int wx = 0; wx + kWindow <= a.width; wx += kStride) {
      long sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
      for (int y = 0; y < kWindow; ++y) {
        const std::uint8_t* ra =
            a.pix.data() + static_cast<std::size_t>(wy + y) * a.width + wx;
        const std::uint8_t* rb =
            b.pix.data() + static_cast<std::size_t>(wy + y) * b.width + wx;
        for (int x = 0; x < kWindow; ++x) {
          const int va = ra[x];
          const int vb = rb[x];
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      constexpr double n = kWindow * kWindow;
      const double ma = sa / n;
      const double mb = sb / n;
      const double va = saa / n - ma * ma;
      const double vb = sbb / n - mb * mb;
      const double cov = sab / n - ma * mb;
      const double cs = (2.0 * cov + kC2) / (va + vb + kC2);
      const double l = (2.0 * ma * mb + kC1) / (ma * ma + mb * mb + kC1);
      out.ssim += l * cs;
      ++out.windows;
    }
  }
  return out;
}

inline BandSums plane_sums(const video::Plane& a, const video::Plane& b) {
  const std::size_t n_wrows =
      static_cast<std::size_t>((a.height - kWindow) / kStride) + 1;
  const std::size_t n_bands = (n_wrows + kBandRows - 1) / kBandRows;
  std::vector<BandSums> bands(n_bands);
  ThreadPool::shared().parallel_for(
      0, n_wrows, kBandRows, [&](std::size_t wr_begin, std::size_t wr_end) {
        bands[wr_begin / kBandRows] = band_sums(a, b, wr_begin, wr_end);
      });
  BandSums total;
  for (const BandSums& s : bands) {
    total.ssim += s.ssim;
    total.windows += s.windows;
  }
  return total;
}

}  // namespace detail

/// Mean SSIM, recomputing all five sums for every window.
inline double ssim(const video::Plane& reference,
                   const video::Plane& distorted) {
  detail::check_same(reference, distorted);
  const detail::BandSums s = detail::plane_sums(reference, distorted);
  return s.windows
             ? std::max(s.ssim / static_cast<double>(s.windows), 0.0)
             : 1.0;
}

/// PSNR from squared differences summed in fixed 64 Ki-pixel double bands.
inline double psnr(const video::Plane& reference,
                   const video::Plane& distorted) {
  detail::check_same(reference, distorted);
  const std::size_t n = reference.pix.size();
  constexpr std::size_t kGrain = 1 << 16;
  std::vector<double> partial((n + kGrain - 1) / kGrain, 0.0);
  ThreadPool::shared().parallel_for(
      0, n, kGrain, [&](std::size_t b, std::size_t e) {
        double se = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          const double d =
              static_cast<double>(reference.pix[i]) - distorted.pix[i];
          se += d * d;
        }
        partial[b / kGrain] = se;
      });
  double se = 0.0;
  for (double p : partial) se += p;
  const double mse = se / static_cast<double>(n);
  if (mse <= 0.0) return 100.0;
  return std::min(100.0, 10.0 * std::log10(255.0 * 255.0 / mse));
}

}  // namespace w4k::oracle
