// Matrix decompositions needed by multicast beamforming.
//
// The paper's max-sum RSS heuristic (Sec. 2.5) needs only the *dominant*
// right singular vector of the stacked channel matrix H, which we obtain by
// power iteration on the smaller of the two Hermitian PSD Gram matrices
// (H H^H for the short-wide stacks the scheduler builds). The scheduler
// runs thousands of such stacks per beacon, all row subsets of one user
// set, through the subset-lane kernel: one Gram of all rows, and one
// subset per SIMD lane, bit-identical to the one-stack scalar path.
#pragma once

#include "common/rng.h"
#include "gf256/gf256.h"
#include "linalg/matrix.h"

#include <cstdint>
#include <span>
#include <vector>

namespace w4k::linalg {

/// Result of the dominant-singular-vector computation.
struct DominantSVD {
  CVector right_singular;  ///< v1: first right singular vector (unit norm)
  double singular_value = 0.0;  ///< sigma1 >= 0
  int iterations = 0;           ///< power iterations actually used
};

/// Computes the dominant right singular vector of A (rows x cols) by power
/// iteration on the smaller of the two Gram matrices (A^H A or A A^H; for
/// short-wide channel stacks the row-side Gram is far cheaper, and v1 is
/// recovered as A^H u1 / sigma1). Deterministic: the starting vector is
/// derived from `rng`. Converges to |lambda2/lambda1|^k; `tol` bounds the
/// relative change of the Rayleigh quotient between iterations.
DominantSVD dominant_right_singular(const CMatrix& a, Rng& rng,
                                    int max_iters = 500, double tol = 1e-12);

/// Row-side Gram of a set of equal-length rows: g(u, v) = sum over k of
/// rows[u][k] * conj(rows[v][k]), k ascending, skipping every k with
/// rows[u][k] == 0. That is entry for entry the sum CMatrix's A * A^H
/// forms for the same two rows, so the row-side Gram of any stack of these
/// rows is a gather of g, bit for bit. Throws
/// std::invalid_argument if the rows differ in length.
void row_gram_into(std::span<const CVector> rows, CMatrix& g);

/// One problem of a subset batch: the stack of the rows whose bits are set
/// in `rows` (ascending row index), with its starting iterate drawn from
/// Rng(seed).
struct SubsetProblem {
  std::uint64_t rows = 0;
  std::uint64_t seed = 0;
};

/// Work done by one subset batch.
struct SubsetBatchStats {
  std::uint64_t iterations = 0;    ///< power iterations, summed over problems
  std::uint64_t lane_subsets = 0;  ///< problems that finished on SIMD lanes
};

/// Buffers of subset_dominant_right_singular_into. They grow to their
/// high-water mark and are then reused, so a steady stream of batches
/// performs no heap allocation. One instance per concurrent caller.
struct SubsetLaneScratch {
  std::vector<double> lanes;         ///< lane-interleaved Grams and iterates
  std::vector<std::uint32_t> order;  ///< problems bucketed by member count
  CMatrix gram;                      ///< one gathered Gram (scalar path)
  CVector v, w;                      ///< one iterate and its matvec
};

/// SIMD lanes the subset kernel uses on `tier`: 4 on AVX2, 2 on SSSE3 and
/// NEON, 1 (one problem at a time) on the scalar tier.
std::size_t subset_lane_width(gf256::Tier tier);

/// Dominant right singular vectors of many row subsets of one matrix.
/// out[p] is bit-identical to dominant_right_singular on the CMatrix of
/// problem p's rows, with Rng(problems[p].seed): the same iterations,
/// singular value and right singular vector.
///
/// `gram` must be row_gram_into(rows). Each problem's Gram is gathered
/// from it; the starting iterate and the recovery A^H u1 are the scalar
/// code's own. On a tier wider than scalar (`tier` must be supported by
/// the CPU), problems with equal member counts share SIMD lanes, one
/// problem per lane: every lane runs the scalar op sequence (no FMA,
/// ascending sums from zero, IEEE sqrt and divide), checks its own
/// convergence and iteration cap, and takes the next problem of its size
/// when it finishes. A problem whose gathered Gram holds a non-finite
/// entry, or whose lane meets a non-finite value, runs on the scalar path
/// from the start; stacks with rows >= cols run dominant_right_singular
/// itself (allocating). Throws std::invalid_argument if
/// `gram`, `rows`, `problems` and `out` disagree in size, or a problem
/// names a row past rows.size().
SubsetBatchStats subset_dominant_right_singular_into(
    std::span<const CVector> rows, const CMatrix& gram,
    std::span<const SubsetProblem> problems, gf256::Tier tier,
    SubsetLaneScratch& scratch, std::span<DominantSVD> out,
    int max_iters = 500, double tol = 1e-12);

/// Solves the least-squares problem min ||A x - b||_2 via normal equations
/// with Tikhonov damping `ridge` (used by ACO-style CSI estimation where A
/// holds per-beam measurement weights). Throws on dimension mismatch.
CVector solve_least_squares(const CMatrix& a, const CVector& b,
                            double ridge = 1e-9);

}  // namespace w4k::linalg
