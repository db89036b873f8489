#include "quality/metrics.h"

#include "common/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace w4k::quality {
namespace {

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
constexpr int kWindow = 8;
// Window stride and block edge: a window is 2x2 blocks of 4x4 pixels.
constexpr int kStride = 4;
constexpr std::int32_t kBlankLevel = 128;

// Window rows per parallel_for chunk. Fixed (never derived from the pool
// size) so the band boundaries — and therefore the floating-point
// summation order — are identical for any thread count.
constexpr std::size_t kBandRows = 32;

// Planes below this many pixels run their bands in order on the calling
// thread: waking the pool costs more than it saves there. Same bands, same
// reduction, same result.
constexpr std::size_t kMinParallelPixels = std::size_t{1} << 16;

void check_same(const video::Plane& a, const video::Plane& b) {
  if (a.width != b.width || a.height != b.height)
    throw std::invalid_argument("quality metric: plane dimension mismatch");
  if (a.width < kWindow || a.height < kWindow)
    throw std::invalid_argument("quality metric: plane smaller than window");
}

/// Whole 4x4 blocks of a plane; the window grid is one smaller each way.
struct Grid {
  std::size_t bcols = 0;
  std::size_t brows = 0;
  std::size_t wcols() const { return bcols - 1; }
  std::size_t wrows() const { return brows - 1; }
};

Grid grid_of(int width, int height) {
  return {static_cast<std::size_t>(width / kStride),
          static_cast<std::size_t>(height / kStride)};
}

/// Partial sums of one horizontal band of SSIM windows: the per-window
/// SSIM (luminance * contrast-structure) and the window count.
struct BandSums {
  double ssim = 0.0;
  long windows = 0;
};

/// Exact integer plane sums for PSNR: Σy, Σy² and Σxy.
struct Totals {
  std::int64_t s = 0;
  std::int64_t ss = 0;
  std::int64_t xy = 0;

  Totals& operator+=(const Totals& o) {
    s += o.s;
    ss += o.ss;
    xy += o.xy;
    return *this;
  }
};

/// One window's SSIM (luminance * contrast-structure) from its five
/// integer sums. Shared by every scoring path so they stay bit-identical
/// to each other.
inline double window_ssim(std::int32_t sa, std::int32_t sb,
                                std::int32_t saa, std::int32_t sbb,
                                std::int32_t sab) {
  constexpr double n = kWindow * kWindow;
  const double ma = sa / n;
  const double mb = sb / n;
  const double va = saa / n - ma * ma;
  const double vb = sbb / n - mb * mb;
  const double cov = sab / n - ma * mb;
  const double cs = (2.0 * cov + kC2) / (va + vb + kC2);
  const double l = (2.0 * ma * mb + kC1) / (ma * ma + mb * mb + kC1);
  return l * cs;
}

/// Horizontal pair sums of one block row: entry c covers blocks c and
/// c+1, the top or bottom half of window c.
struct PairRow {
  std::int32_t* s;
  std::int32_t* ss;
  std::int32_t* xy;
};

/// One band's working rows. Carved from buffers the dispatching thread
/// owns, so pool workers never allocate.
struct BandScratch {
  std::int32_t* col_s;  ///< per pixel column of a block row
  std::int32_t* col_ss;
  std::int32_t* col_xy;
  std::int32_t* blk_s;  ///< per block of a block row
  std::int32_t* blk_ss;
  std::int32_t* blk_xy;
  PairRow rows[2];
  double* lcs;  ///< per window of a window row
};

struct Band {
  BandSums sums;
  Totals totals;
};

/// Per-thread scratch of the dispatching thread; capacity persists so the
/// steady state performs no allocation.
struct Workspace {
  std::vector<std::int32_t> ints;
  std::vector<double> reals;
  std::vector<Band> bands;

  void reserve(std::size_t n_bands, const Grid& g) {
    ints.resize(n_bands * ints_per_band(g));
    reals.resize(n_bands * g.wcols());
    bands.assign(n_bands, Band{});
  }

  BandScratch band(std::size_t i, const Grid& g) {
    std::int32_t* p = ints.data() + i * ints_per_band(g);
    const std::size_t gw = g.bcols * kStride;
    const auto take = [&p](std::size_t n) {
      std::int32_t* q = p;
      p += n;
      return q;
    };
    BandScratch s{};
    s.col_s = take(gw);
    s.col_ss = take(gw);
    s.col_xy = take(gw);
    s.blk_s = take(g.bcols);
    s.blk_ss = take(g.bcols);
    s.blk_xy = take(g.bcols);
    for (PairRow& r : s.rows) {
      r.s = take(g.wcols());
      r.ss = take(g.wcols());
      r.xy = take(g.wcols());
    }
    s.lcs = reals.data() + i * g.wcols();
    return s;
  }

 private:
  static std::size_t ints_per_band(const Grid& g) {
    return 3 * g.bcols * kStride + 3 * g.bcols + 6 * g.wcols();
  }
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Block row r of `b` (and of a·b when kCross): 4-row column sums, then
/// 4x4 block sums, then pair sums into `out`. Returns the row's totals.
template <bool kCross>
Totals block_row(const video::Plane& a, const video::Plane& b, std::size_t r,
                 const Grid& g, const BandScratch& s, const PairRow& out) {
  const auto w = static_cast<std::size_t>(b.width);
  const std::size_t gw = g.bcols * kStride;
  const std::size_t row0 = r * kStride * w;
  const std::uint8_t* b0 = b.pix.data() + row0;
  const std::uint8_t* b1 = b0 + w;
  const std::uint8_t* b2 = b1 + w;
  const std::uint8_t* b3 = b2 + w;
  for (std::size_t x = 0; x < gw; ++x) {
    const std::int32_t y0 = b0[x], y1 = b1[x], y2 = b2[x], y3 = b3[x];
    s.col_s[x] = y0 + y1 + y2 + y3;
    s.col_ss[x] = y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3;
  }
  if constexpr (kCross) {
    const std::uint8_t* a0 = a.pix.data() + row0;
    const std::uint8_t* a1 = a0 + w;
    const std::uint8_t* a2 = a1 + w;
    const std::uint8_t* a3 = a2 + w;
    for (std::size_t x = 0; x < gw; ++x)
      s.col_xy[x] = a0[x] * b0[x] + a1[x] * b1[x] + a2[x] * b2[x] +
                    a3[x] * b3[x];
  }
  Totals t;
  for (std::size_t c = 0; c < g.bcols; ++c) {
    const std::size_t x = c * kStride;
    s.blk_s[c] = s.col_s[x] + s.col_s[x + 1] + s.col_s[x + 2] + s.col_s[x + 3];
    s.blk_ss[c] =
        s.col_ss[x] + s.col_ss[x + 1] + s.col_ss[x + 2] + s.col_ss[x + 3];
    t.s += s.blk_s[c];
    t.ss += s.blk_ss[c];
    if constexpr (kCross) {
      s.blk_xy[c] =
          s.col_xy[x] + s.col_xy[x + 1] + s.col_xy[x + 2] + s.col_xy[x + 3];
      t.xy += s.blk_xy[c];
    }
  }
  for (std::size_t c = 0; c < g.wcols(); ++c) {
    out.s[c] = s.blk_s[c] + s.blk_s[c + 1];
    out.ss[c] = s.blk_ss[c] + s.blk_ss[c + 1];
    if constexpr (kCross) out.xy[c] = s.blk_xy[c] + s.blk_xy[c + 1];
  }
  return t;
}

/// Totals over the pixels outside the block grid: the right strip, then
/// the bottom strip. Empty for dimensions that are multiples of 4.
template <bool kCross>
Totals edge_totals(const video::Plane& a, const video::Plane& b,
                   const Grid& g) {
  const auto gw = static_cast<int>(g.bcols) * kStride;
  const auto gh = static_cast<int>(g.brows) * kStride;
  Totals t;
  const auto add = [&](int x, int y) {
    const std::int64_t vb = b.at(x, y);
    t.s += vb;
    t.ss += vb * vb;
    if constexpr (kCross) t.xy += a.at(x, y) * vb;
  };
  for (int y = 0; y < b.height; ++y)
    for (int x = gw; x < b.width; ++x) add(x, y);
  for (int y = gh; y < b.height; ++y)
    for (int x = 0; x < gw; ++x) add(x, y);
  return t;
}

/// Walks the window grid of (a, b) in fixed row bands on the shared pool.
/// Each band slides two pair rows down its block rows and hands every
/// window row to on_row(r, top, bottom, scratch, band_sums); bands are
/// reduced in order (deterministic for any pool size; see kBandRows).
/// Returns the reduced window sums and adds the block-grid totals to
/// `totals` (every block row counted once).
template <bool kCross, typename RowFn>
BandSums tile(const video::Plane& a, const video::Plane& b, const Grid& g,
              Totals& totals, RowFn&& on_row) {
  const std::size_t n_wrows = g.wrows();
  const std::size_t n_bands = (n_wrows + kBandRows - 1) / kBandRows;
  // The local reference is load-bearing: thread_local variables are not
  // captured by lambdas, so without it each pool worker would touch its
  // own (empty) instance instead of the dispatcher's.
  Workspace& ws = workspace();
  ws.reserve(n_bands, g);
  const auto run_band = [&](std::size_t wr_begin, std::size_t wr_end) {
    const std::size_t i = wr_begin / kBandRows;
    const BandScratch s = ws.band(i, g);
    Band& band = ws.bands[i];
    PairRow top = s.rows[0];
    PairRow bottom = s.rows[1];
    band.totals = block_row<kCross>(a, b, wr_begin, g, s, top);
    // Block row wr_end is also the next band's first row, so only the last
    // band counts it.
    for (std::size_t r = wr_begin; r < wr_end; ++r) {
      const Totals t = block_row<kCross>(a, b, r + 1, g, s, bottom);
      if (r + 1 < wr_end || wr_end == n_wrows) band.totals += t;
      on_row(r, top, bottom, s, band.sums);
      std::swap(top, bottom);
    }
  };
  if (b.pix.size() < kMinParallelPixels) {
    for (std::size_t r = 0; r < n_wrows; r += kBandRows)
      run_band(r, std::min(r + kBandRows, n_wrows));
  } else {
    ThreadPool::shared().parallel_for(0, n_wrows, kBandRows, run_band);
  }
  BandSums total;
  for (const Band& band : ws.bands) {
    total.ssim += band.sums.ssim;
    total.windows += band.sums.windows;
    totals += band.totals;
  }
  return total;
}

/// Window sums of `distorted` against `reference` with the reference side
/// read from `ref`. `totals` receives Σy², Σxy over every pixel.
BandSums fused_sums(const video::Plane& reference, const ReferenceSums& ref,
                    const video::Plane& distorted, Totals& totals) {
  check_same(reference, distorted);
  if (ref.width != reference.width || ref.height != reference.height)
    throw std::invalid_argument(
        "quality metric: reference sums built for another plane size");
  const Grid g = grid_of(reference.width, reference.height);
  const std::size_t wcols = g.wcols();
  const BandSums sums = tile<true>(
      reference, distorted, g, totals,
      [&](std::size_t r, const PairRow& top, const PairRow& bottom,
          const BandScratch& s, BandSums& acc) {
        const std::int32_t* ra = ref.win_s.data() + r * wcols;
        const std::int32_t* raa = ref.win_ss.data() + r * wcols;
        for (std::size_t c = 0; c < wcols; ++c)
          s.lcs[c] =
              window_ssim(ra[c], top.s[c] + bottom.s[c], raa[c],
                          top.ss[c] + bottom.ss[c], top.xy[c] + bottom.xy[c]);
        for (std::size_t c = 0; c < wcols; ++c) acc.ssim += s.lcs[c];
        acc.windows += static_cast<long>(wcols);
      });
  totals += edge_totals<true>(reference, distorted, g);
  return sums;
}

/// Anti-correlated windows can push the mean below zero; clamp to the
/// documented [0, 1] range (zero structural similarity is the floor the
/// pipeline reasons about).
double mean_ssim(const BandSums& s) {
  return s.windows ? std::max(s.ssim / static_cast<double>(s.windows), 0.0)
                   : 1.0;
}

/// PSNR from the exact integer sum of squared errors over n pixels.
double psnr_from_se(std::int64_t se, std::size_t n) {
  const double mse = static_cast<double>(se) / static_cast<double>(n);
  if (mse <= 0.0) return 100.0;
  return std::min(100.0, 10.0 * std::log10(255.0 * 255.0 / mse));
}

}  // namespace

void reference_sums_into(const video::Plane& reference, ReferenceSums& out) {
  check_same(reference, reference);
  const Grid g = grid_of(reference.width, reference.height);
  const std::size_t wcols = g.wcols();
  out.width = reference.width;
  out.height = reference.height;
  out.win_s.resize(wcols * g.wrows());
  out.win_ss.resize(wcols * g.wrows());
  Totals totals;
  tile<false>(reference, reference, g, totals,
              [&](std::size_t r, const PairRow& top, const PairRow& bottom,
                  const BandScratch&, BandSums&) {
                std::int32_t* ws = out.win_s.data() + r * wcols;
                std::int32_t* wss = out.win_ss.data() + r * wcols;
                for (std::size_t c = 0; c < wcols; ++c) {
                  ws[c] = top.s[c] + bottom.s[c];
                  wss[c] = top.ss[c] + bottom.ss[c];
                }
              });
  totals += edge_totals<false>(reference, reference, g);
  out.total_s = totals.s;
  out.total_ss = totals.ss;
}

ReferenceSums reference_sums(const video::Plane& reference) {
  ReferenceSums out;
  reference_sums_into(reference, out);
  return out;
}

Scores scores(const video::Plane& reference, const ReferenceSums& ref,
              const video::Plane& distorted) {
  Totals t;
  const BandSums s = fused_sums(reference, ref, distorted, t);
  // Σ(x−y)² = Σx² − 2Σxy + Σy², exact in 64-bit integers.
  return {mean_ssim(s),
          psnr_from_se(ref.total_ss - 2 * t.xy + t.ss, reference.pix.size())};
}

Scores blank_scores(const ReferenceSums& ref) {
  if (ref.width < kWindow || ref.height < kWindow)
    throw std::invalid_argument("blank_scores: no reference sums");
  const Grid g = grid_of(ref.width, ref.height);
  const std::size_t wcols = g.wcols();
  // A window of the constant plane: Σy = 64·128, Σy² = 64·128², Σxy = 128·Σx.
  constexpr std::int32_t kArea = kWindow * kWindow;
  constexpr std::int32_t sb = kArea * kBlankLevel;
  constexpr std::int32_t sbb = kArea * kBlankLevel * kBlankLevel;
  // Same band partials and in-order reduction as the pooled path.
  BandSums total;
  for (std::size_t b = 0; b < g.wrows(); b += kBandRows) {
    BandSums band;
    for (std::size_t r = b; r < std::min(b + kBandRows, g.wrows()); ++r) {
      for (std::size_t c = 0; c < wcols; ++c) {
        const std::int32_t sa = ref.win_s[r * wcols + c];
        band.ssim += window_ssim(sa, sb, ref.win_ss[r * wcols + c], sbb,
                                 kBlankLevel * sa);
      }
      band.windows += static_cast<long>(wcols);
    }
    total.ssim += band.ssim;
    total.windows += band.windows;
  }
  const auto n = static_cast<std::size_t>(ref.width) *
                 static_cast<std::size_t>(ref.height);
  const std::int64_t se = ref.total_ss - 2 * kBlankLevel * ref.total_s +
                          static_cast<std::int64_t>(n) * kBlankLevel *
                              kBlankLevel;
  return {mean_ssim(total), psnr_from_se(se, n)};
}

namespace {

/// Both scores without cached sums: the reference side is summed first,
/// into per-thread scratch.
Scores scores(const video::Plane& reference, const video::Plane& distorted) {
  check_same(reference, distorted);
  thread_local ReferenceSums ref_tls;
  ReferenceSums& ref = ref_tls;
  reference_sums_into(reference, ref);
  return scores(reference, ref, distorted);
}

}  // namespace

double ssim(const video::Plane& reference, const video::Plane& distorted) {
  return scores(reference, distorted).ssim;
}

double ssim(const video::Frame& reference, const video::Frame& distorted) {
  return ssim(reference.y, distorted.y);
}

double psnr(const video::Plane& reference, const video::Plane& distorted) {
  return scores(reference, distorted).psnr;
}

ContentFeatures content_features(const video::Frame& original,
                                 const video::EncodedFrame& encoded) {
  return content_features(original.y, reference_sums(original.y), encoded);
}

ContentFeatures content_features(const video::Plane& original,
                                 const ReferenceSums& ref,
                                 const video::EncodedFrame& encoded) {
  ContentFeatures f;
  const Scores blank = blank_scores(ref);
  f.blank = blank.ssim;
  f.blank_psnr = blank.psnr;
  // Layer prefixes are cumulative: splicing layer l into the workspace
  // that already holds layers 0..l-1 gives the up_to_layer(l) frame.
  video::ReconstructWorkspace ws;
  video::Plane rec;
  ws.begin(encoded.width, encoded.height);
  for (int l = 0; l < video::kNumLayers; ++l) {
    const std::size_t luma =
        video::sublayer_luma_bytes(l, encoded.width, encoded.height);
    for (int k = 0; k < video::sublayer_count(l); ++k)
      ws.write(l, k, 0,
               encoded.layers[l][static_cast<std::size_t>(k)].data(), luma);
    ws.finish_luma(rec);
    f.up_to_layer[static_cast<std::size_t>(l)] =
        scores(original, ref, rec).ssim;
  }
  return f;
}

}  // namespace w4k::quality
