#include "linalg/decompose.h"

#include "common/bits.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace w4k::linalg {

DominantSVD dominant_right_singular(const CMatrix& a, Rng& rng,
                                    int max_iters, double tol) {
  DominantSVD out;
  if (a.rows() == 0 || a.cols() == 0) return out;

  // Power-iterate on the *smaller* of the two Gram matrices. A^H A
  // (cols x cols) and A A^H (rows x rows) share their nonzero spectrum,
  // and the dominant right singular vector is recoverable from the
  // dominant left one as v1 = A^H u1 / sigma1. The scheduler's stacked
  // channel matrices are short and wide (<= max_group_size member rows,
  // one column per antenna), so iterating on the row-side Gram drops the
  // per-step cost from cols^2 to rows^2.
  const bool row_side = a.rows() < a.cols();
  const CMatrix ah = a.hermitian();
  const CMatrix g = row_side ? a * ah : ah * a;

  CVector v(g.rows());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = Complex(rng.gaussian(), rng.gaussian());
  if (v.norm() == 0.0) v[0] = 1.0;
  v = v.normalized();

  double prev_lambda = 0.0;
  bool zero_matrix = false;
  for (int it = 0; it < max_iters; ++it) {
    // One Gram matvec per iteration: w = G v feeds both the Rayleigh
    // quotient of the current iterate and the next power step.
    const CVector w = g * v;
    const double lambda = std::real(dot(v, w));
    const double wn = w.norm();
    out.iterations = it + 1;
    if (wn == 0.0) {
      // A is (numerically) zero: sigma = 0, any unit vector is a valid v1.
      zero_matrix = true;
      prev_lambda = 0.0;
      break;
    }
    v = w * Complex(1.0 / wn, 0.0);
    if (it > 0 && std::abs(lambda - prev_lambda) <=
                      tol * std::max(1.0, std::abs(lambda))) {
      prev_lambda = lambda;
      break;
    }
    prev_lambda = lambda;
  }
  if (!row_side) {
    out.right_singular = v;
  } else {
    // Map the left singular vector back: A^H u1 has norm sigma1; if that
    // is zero (zero matrix) fall back to an arbitrary unit vector.
    const CVector rv = ah * v;
    const double rn = rv.norm();
    if (rn > 0.0 && !zero_matrix) {
      out.right_singular = rv * Complex(1.0 / rn, 0.0);
    } else {
      CVector e(a.cols());
      e[0] = 1.0;
      out.right_singular = e;
    }
  }
  out.singular_value = std::sqrt(std::max(0.0, prev_lambda));
  return out;
}

namespace {

/// Tall/square stack: the column-side Gram is the cheaper one and the
/// CMatrix path already handles it; rebuild and delegate. (Allocating,
/// but the scheduler's stacks are short-wide: group size < antennas.)
template <class RowAt>
void tall_stack(RowAt row, std::size_t m, std::size_t cols, Rng& rng,
                DominantSVD& out, int max_iters, double tol) {
  CMatrix a(m, cols);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < cols; ++c) a(r, c) = row(r)[c];
  out = dominant_right_singular(a, rng, max_iters, tol);
}

/// Row-side Gram G = A A^H of the m rows row(0..m-1), accumulated exactly
/// as CMatrix::operator* does for (a * a.hermitian()): r outer, k
/// ascending with the zero-skip on a(r, k), c inner — so every G entry
/// sums its terms in the same floating-point order as
/// dominant_right_singular.
/// Entry (r, c) depends only on rows r and c, which is what makes a
/// subset's Gram a gather of the whole set's (row_gram_into).
template <class RowAt>
void stack_gram(RowAt row, std::size_t m, std::size_t cols, CMatrix& g) {
  g.reshape_zero(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    const Complex* row_r = row(r);
    for (std::size_t k = 0; k < cols; ++k) {
      const Complex a = row_r[k];
      if (a == Complex{}) continue;
      for (std::size_t c = 0; c < m; ++c) g(r, c) += a * std::conj(row(c)[k]);
    }
  }
}

/// The starting iterate: m complex Gaussian draws from `rng`, normalized
/// in place (the same element-wise x /= n as CVector::normalized()).
void start_vector(Rng& rng, std::size_t m, CVector& v) {
  v.resize_zero(m);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = Complex(rng.gaussian(), rng.gaussian());
  if (v.norm() == 0.0) v[0] = 1.0;
  const double n0 = v.norm();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] /= n0;
}

struct PowerResult {
  double lambda = 0.0;  ///< last accepted Rayleigh quotient
  int iterations = 0;
  bool zero_matrix = false;
};

/// Power iteration on the Hermitian PSD Gram `g`, iterate `v` in place.
/// One Gram matvec per step (CMatrix::operator*'s sums), the Rayleigh
/// quotient real(dot(v, w)), ||w||, then v = w * (1/||w||, 0). This file
/// is compiled with -ffp-contract=off, so the SIMD lanes below and this
/// loop round every product and sum alike on every target.
PowerResult power_iterate(const CMatrix& g, CVector& v, CVector& w,
                          int max_iters, double tol) {
  const std::size_t m = v.size();
  PowerResult r;
  double prev_lambda = 0.0;
  w.resize_zero(m);
  for (int it = 0; it < max_iters; ++it) {
    for (std::size_t i = 0; i < m; ++i) {
      Complex s = 0.0;
      for (std::size_t c = 0; c < m; ++c) s += g(i, c) * v[c];
      w[i] = s;
    }
    Complex d = 0.0;
    for (std::size_t i = 0; i < m; ++i) d += std::conj(v[i]) * w[i];
    const double lambda = std::real(d);
    double nsq = 0.0;
    for (std::size_t i = 0; i < m; ++i) nsq += std::norm(w[i]);
    const double wn = std::sqrt(nsq);
    r.iterations = it + 1;
    if (wn == 0.0) {
      r.zero_matrix = true;
      prev_lambda = 0.0;
      break;
    }
    // v = w * Complex(1/wn, 0): same complex multiply as operator*=.
    const Complex s(1.0 / wn, 0.0);
    for (std::size_t i = 0; i < m; ++i) v[i] = w[i] * s;
    if (it > 0 && std::abs(lambda - prev_lambda) <=
                      tol * std::max(1.0, std::abs(lambda))) {
      prev_lambda = lambda;
      break;
    }
    prev_lambda = lambda;
  }
  r.lambda = prev_lambda;
  return r;
}

/// Recovery v1 = A^H u1 / ||A^H u1||: rv[k] = sum_c conj(a(c, k)) v[c], c
/// ascending — the same term order as (a.hermitian() * v). Accumulated
/// straight into the output vector (capacity reused) and scaled in place.
template <class RowAt>
void recover(RowAt row, std::size_t m, std::size_t cols, const CVector& v,
             const PowerResult& r, DominantSVD& out) {
  out.right_singular.resize_zero(cols);
  for (std::size_t k = 0; k < cols; ++k) {
    Complex s = 0.0;
    for (std::size_t c = 0; c < m; ++c) s += std::conj(row(c)[k]) * v[c];
    out.right_singular[k] = s;
  }
  const double rn = out.right_singular.norm();
  if (rn > 0.0 && !r.zero_matrix) {
    out.right_singular *= Complex(1.0 / rn, 0.0);
  } else {
    out.right_singular.resize_zero(cols);
    out.right_singular[0] = 1.0;
  }
  out.iterations = r.iterations;
  out.singular_value = std::sqrt(std::max(0.0, r.lambda));
}

}  // namespace

void row_gram_into(std::span<const CVector> rows, CMatrix& g) {
  const std::size_t cols = rows.empty() ? 0 : rows[0].size();
  for (const CVector& r : rows)
    if (r.size() != cols)
      throw std::invalid_argument("row_gram_into: rows differ in length");
  stack_gram([&](std::size_t u) { return rows[u].raw().data(); },
             rows.size(), cols, g);
}

std::size_t subset_lane_width(gf256::Tier tier) {
  switch (tier) {
    case gf256::Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return 4;
#else
      return 2;
#endif
    case gf256::Tier::kSsse3:
    case gf256::Tier::kNeon:
      return 2;
    case gf256::Tier::kScalar:
      break;
  }
  return 1;
}

namespace {

/// One subset batch in flight: its inputs, outputs and scratch.
struct SubsetBatch {
  std::span<const CVector> rows;
  const CMatrix& gram;
  std::span<const SubsetProblem> problems;
  std::span<DominantSVD> out;
  SubsetLaneScratch& s;
  std::size_t cols;
  int max_iters;
  double tol;
  SubsetBatchStats stats;

  /// Recovery and bookkeeping for problem p, whose final iterate is s.v.
  void finish(std::size_t p, const std::array<std::size_t, 64>& idx,
              std::size_t m, const PowerResult& r) {
    recover([&](std::size_t c) { return rows[idx[c]].raw().data(); }, m,
            cols, s.v, r, out[p]);
    stats.iterations += static_cast<std::uint64_t>(r.iterations);
  }

  /// Problem p start to end on the scalar path.
  void scalar(std::size_t p) {
    std::array<std::size_t, 64> idx;
    const std::size_t m = bit_indices(problems[p].rows, idx).size();
    DominantSVD& o = out[p];
    o.singular_value = 0.0;
    o.iterations = 0;
    Rng rng(problems[p].seed);
    if (m == 0 || cols == 0) {
      o.right_singular.resize_zero(0);
      return;
    }
    const auto row = [&](std::size_t c) { return rows[idx[c]].raw().data(); };
    if (m >= cols) {
      tall_stack(row, m, cols, rng, o, max_iters, tol);
      stats.iterations += static_cast<std::uint64_t>(o.iterations);
      return;
    }
    s.gram.reshape_zero(m, m);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < m; ++c) s.gram(r, c) = gram(idx[r], idx[c]);
    start_vector(rng, m, s.v);
    finish(p, idx, m, power_iterate(s.gram, s.v, s.w, max_iters, tol));
  }
};

template <std::size_t L>
struct LaneVector {
  typedef double type __attribute__((vector_size(8 * L)));
};

/// The problem a lane holds: its index and row indices.
struct LaneSlot {
  std::size_t p = 0;
  std::array<std::size_t, 64> idx;
};

/// Runs `count` problems of member count m (indices in `queue`) on L
/// SIMD lanes; M is m when it is a compile-time constant, else 0. Every
/// lane executes power_iterate's op sequence on its own problem: the
/// matvec sums start from zero and run c ascending, each complex product
/// is (ac - bd, ad + bc), lambda adds Re(conj(v_i) w_i) and ||w||^2 adds
/// (re^2 + im^2) in ascending i, sqrt is the scalar std::sqrt per lane,
/// 1/||w|| and the convergence test are the scalar expressions lane-wise
/// (IEEE divide, |x| by clearing the sign bit, max(1, |lambda|) as a
/// select), and the step keeps the `* 0` terms of w * (1/wn, 0). A lane
/// that meets a non-finite ||w||, Rayleigh quotient or 1/||w|| hands its
/// problem to the scalar path, which reruns it from the start: only there
/// can a complex product take the runtime's NaN-recovery branch, which
/// the lanes do not model. Always inlined, so the vector code is
/// generated for the target of the wrapper below that calls it.
template <std::size_t L, std::size_t M>
__attribute__((always_inline)) inline void run_lanes(
    SubsetBatch& b, std::size_t m_any, const std::uint32_t* queue,
    std::size_t count) {
  using V = typename LaneVector<L>::type;
  const std::size_t m = M != 0 ? M : m_any;
  const std::size_t mm = m * m;
  const std::size_t need = (2 * mm + 4 * m) * L;
  if (b.s.lanes.size() < need) b.s.lanes.resize(need);
  double* const gre = b.s.lanes.data();
  double* const gim = gre + mm * L;
  double* const vre = gim + mm * L;
  double* const vim = vre + m * L;
  double* const wre = vim + m * L;
  double* const wim = wre + m * L;
  // Lane vectors move through memcpy: the lane arrays are plain (8-byte
  // aligned) double buffers. References, not values, cross the lambdas.
  const auto ld = [](V& x, const double* p) { __builtin_memcpy(&x, p, sizeof x); };
  const auto st = [](double* p, const V& x) { __builtin_memcpy(p, &x, sizeof x); };

  using Mask = decltype(V{} == V{});  // per-lane all-ones / all-zeros
  const V z = {};
  const V one = z + 1.0;
  const Mask sign = (Mask)(-z);      // the sign bit of each lane
  const V cap = z + static_cast<double>(b.max_iters);

  LaneSlot lane[L];
  V prev = z, its = z;  // per lane: last Rayleigh quotient, steps taken
  Mask alive = {};
  std::size_t next = 0;
  std::size_t live = 0;

  // Loads the next queued problem into lane l. A problem whose gathered
  // Gram holds a non-finite entry runs on the scalar path instead. With
  // the queue empty the lane is zeroed and idles.
  const auto fill = [&](std::size_t l) {
    LaneSlot& ln = lane[l];
    alive[l] = 0;
    prev[l] = 0.0;
    its[l] = 0.0;
    while (next < count) {
      const std::size_t p = queue[next++];
      bit_indices(b.problems[p].rows, ln.idx);
      bool finite = true;
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < m; ++c) {
          const Complex x = b.gram(ln.idx[r], ln.idx[c]);
          finite = finite && std::isfinite(x.real()) && std::isfinite(x.imag());
          gre[(r * m + c) * L + l] = x.real();
          gim[(r * m + c) * L + l] = x.imag();
        }
      if (!finite) {
        b.scalar(p);
        continue;
      }
      Rng rng(b.problems[p].seed);
      start_vector(rng, m, b.s.v);
      for (std::size_t i = 0; i < m; ++i) {
        vre[i * L + l] = b.s.v[i].real();
        vim[i * L + l] = b.s.v[i].imag();
      }
      ln.p = p;
      alive[l] = -1;
      ++live;
      return;
    }
    for (std::size_t e = 0; e < mm; ++e) gre[e * L + l] = gim[e * L + l] = 0.0;
    for (std::size_t i = 0; i < m; ++i) vre[i * L + l] = vim[i * L + l] = 0.0;
  };
  for (std::size_t l = 0; l < L; ++l) fill(l);

  V ar, ai, xr, xi, yr, yi;
  while (live > 0) {
    for (std::size_t r = 0; r < m; ++r) {
      V sr = z, si = z;
      for (std::size_t c = 0; c < m; ++c) {
        ld(ar, gre + (r * m + c) * L);
        ld(ai, gim + (r * m + c) * L);
        ld(xr, vre + c * L);
        ld(xi, vim + c * L);
        sr = sr + (ar * xr - ai * xi);
        si = si + (ar * xi + ai * xr);
      }
      st(wre + r * L, sr);
      st(wim + r * L, si);
    }
    V lv = z, nv = z;
    for (std::size_t i = 0; i < m; ++i) {
      ld(xr, vre + i * L);
      ld(xi, vim + i * L);
      ld(yr, wre + i * L);
      ld(yi, wim + i * L);
      lv = lv + (xr * yr - (-xi) * yi);
      nv = nv + (yr * yr + yi * yi);
    }

    // The step bookkeeping of power_iterate, every lane at once: a lane is
    // `zero` when ||w|| == 0, `ok` when ||w||, lambda and 1/||w|| are all
    // finite, and done when ok and converged or at the iteration cap.
    // Anything else is non-finite and goes back to the scalar path.
    V wn;
    for (std::size_t l = 0; l < L; ++l) wn[l] = std::sqrt(nv[l]);
    its = its + one;
    const Mask finite = ((wn - wn) == z) & ((lv - lv) == z);
    const Mask zero = finite & (wn == z);
    V iv = one / wn;
    const Mask ok = finite & ~zero & ((iv - iv) == z);
    const V alv = (V)((Mask)lv & ~sign);               // |lambda|
    const V adiff = (V)((Mask)(lv - prev) & ~sign);    // |lambda - prev|
    const Mask converged =
        (its > one) & (adiff <= b.tol * (alv > one ? alv : one));
    const Mask done = ok & (converged | (its == cap));
    prev = ok ? lv : prev;
    iv = ok ? iv : z;

    // v = w * (inv, 0), the `* 0` terms kept.
    for (std::size_t i = 0; i < m; ++i) {
      ld(yr, wre + i * L);
      ld(yi, wim + i * L);
      st(vre + i * L, yr * iv - yi * z);
      st(vim + i * L, yr * z + yi * iv);
    }

    const Mask event = alive & (done | ~ok);
    for (std::size_t l = 0; l < L; ++l) {
      if (!event[l]) continue;
      LaneSlot& ln = lane[l];
      --live;
      if (!ok[l] && !zero[l]) {
        b.scalar(ln.p);
      } else {
        PowerResult r;
        r.iterations = static_cast<int>(its[l]);
        r.zero_matrix = zero[l] != 0;
        r.lambda = r.zero_matrix ? 0.0 : prev[l];
        b.s.v.resize_zero(m);
        for (std::size_t i = 0; i < m; ++i)
          b.s.v[i] = Complex(vre[i * L + l], vim[i * L + l]);
        b.finish(ln.p, ln.idx, m, r);
        ++b.stats.lane_subsets;
      }
      fill(l);
    }
  }
}

// One function per (width, member count): member counts up to 8, the
// scheduler's group sizes, get fully unrolled loops; slot 0 takes any m.
using LaneRun = void (*)(SubsetBatch&, std::size_t, const std::uint32_t*,
                         std::size_t);

#if defined(__x86_64__) || defined(__i386__)
template <std::size_t M>
__attribute__((target("avx2"))) void run_lanes_x4(SubsetBatch& b,
                                                  std::size_t m,
                                                  const std::uint32_t* queue,
                                                  std::size_t count) {
  run_lanes<4, M>(b, m, queue, count);
}
constexpr LaneRun kLanesX4[] = {
    run_lanes_x4<0>, run_lanes_x4<1>, run_lanes_x4<2>,
    run_lanes_x4<3>, run_lanes_x4<4>, run_lanes_x4<5>,
    run_lanes_x4<6>, run_lanes_x4<7>, run_lanes_x4<8>};
#endif

template <std::size_t M>
void run_lanes_x2(SubsetBatch& b, std::size_t m, const std::uint32_t* queue,
                  std::size_t count) {
  run_lanes<2, M>(b, m, queue, count);
}
constexpr LaneRun kLanesX2[] = {
    run_lanes_x2<0>, run_lanes_x2<1>, run_lanes_x2<2>,
    run_lanes_x2<3>, run_lanes_x2<4>, run_lanes_x2<5>,
    run_lanes_x2<6>, run_lanes_x2<7>, run_lanes_x2<8>};

}  // namespace

SubsetBatchStats subset_dominant_right_singular_into(
    std::span<const CVector> rows, const CMatrix& gram,
    std::span<const SubsetProblem> problems, gf256::Tier tier,
    SubsetLaneScratch& scratch, std::span<DominantSVD> out, int max_iters,
    double tol) {
  const std::size_t n = rows.size();
  if (gram.rows() != n || gram.cols() != n)
    throw std::invalid_argument(
        "subset_dominant_right_singular_into: gram is not rows x rows");
  if (out.size() < problems.size())
    throw std::invalid_argument(
        "subset_dominant_right_singular_into: output span too small");
  const std::uint64_t all = n >= 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << n) - 1;
  for (const SubsetProblem& pr : problems)
    if (pr.rows & ~all)
      throw std::invalid_argument(
          "subset_dominant_right_singular_into: problem names a missing row");

  SubsetBatch b{rows, gram, problems, out, scratch,
                n == 0 ? 0 : rows[0].size(), max_iters, tol, {}};
  const std::size_t lanes = subset_lane_width(tier);
  if (lanes == 1 || max_iters < 1 || b.cols == 0) {
    for (std::size_t p = 0; p < problems.size(); ++p) b.scalar(p);
    return b.stats;
  }

  // Bucket the lane-eligible problems by member count (ascending count,
  // problem order within a count); the rest run on the scalar path.
  std::array<std::uint32_t, 66> start{};
  for (const SubsetProblem& pr : problems) {
    const auto m = static_cast<std::size_t>(__builtin_popcountll(pr.rows));
    if (m >= 1 && m < b.cols) ++start[m + 1];
  }
  for (std::size_t m = 1; m < start.size(); ++m) start[m] += start[m - 1];
  scratch.order.resize(start.back());
  std::array<std::uint32_t, 66> fill = start;
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const auto m = static_cast<std::size_t>(
        __builtin_popcountll(problems[p].rows));
    if (m >= 1 && m < b.cols)
      scratch.order[fill[m]++] = static_cast<std::uint32_t>(p);
    else
      b.scalar(p);
  }
  for (std::size_t m = 1; m + 1 < start.size(); ++m) {
    const std::size_t count = start[m + 1] - start[m];
    if (count == 0) continue;
    const std::uint32_t* queue = scratch.order.data() + start[m];
    const std::size_t slot = m <= 8 ? m : 0;
#if defined(__x86_64__) || defined(__i386__)
    if (lanes == 4) {
      kLanesX4[slot](b, m, queue, count);
      continue;
    }
#endif
    kLanesX2[slot](b, m, queue, count);
  }
  return b.stats;
}

CVector solve_least_squares(const CMatrix& a, const CVector& b,
                            double ridge) {
  if (a.rows() != b.size())
    throw std::invalid_argument("solve_least_squares: dimension mismatch");
  const std::size_t n = a.cols();
  const CMatrix ah = a.hermitian();
  CMatrix g = ah * a;                 // n x n
  for (std::size_t i = 0; i < n; ++i) g(i, i) += ridge;
  CVector rhs = ah * b;

  // Gaussian elimination with partial pivoting on the (small) normal system.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    double best = std::abs(g(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(g(r, col));
      if (mag > best) {
        best = mag;
        piv = r;
      }
    }
    if (best == 0.0)
      throw std::domain_error("solve_least_squares: singular system");
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(g(piv, c), g(col, c));
      std::swap(rhs[piv], rhs[col]);
    }
    const Complex d = g(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const Complex f = g(r, col) / d;
      if (f == Complex{}) continue;
      for (std::size_t c = col; c < n; ++c) g(r, c) -= f * g(col, c);
      rhs[r] -= f * rhs[col];
    }
  }
  CVector x(n);
  for (std::size_t i = n; i-- > 0;) {
    Complex s = rhs[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= g(i, c) * x[c];
    x[i] = s / g(i, i);
  }
  return x;
}

}  // namespace w4k::linalg
