#include "beamforming/csi.h"

#include "channel/array.h"
#include "linalg/decompose.h"

#include <cmath>
#include <stdexcept>

namespace w4k::beamforming {
namespace {

/// Gerchberg-Saxton iteration cap.
constexpr int kMaxIterations = 60;
/// Stop once an iteration improves the residual by less than this.
constexpr double kTolerance = 1e-9;

}  // namespace

CsiEstimate estimate_csi(const SweepResult& sweep, const Codebook& codebook) {
  const std::size_t k = codebook.size();
  if (k == 0 || sweep.rss_dbm.size() != k)
    throw std::invalid_argument("estimate_csi: sweep/codebook mismatch");
  const std::size_t nt = codebook[0].size();
  if (k < nt)
    throw std::invalid_argument(
        "estimate_csi: need at least as many beams as antennas");

  // Measurement matrix A with row k = f_k (beam response is the plain
  // product f_k . h, see channel::beam_response).
  linalg::CMatrix a(k, nt);
  for (std::size_t row = 0; row < k; ++row)
    for (std::size_t col = 0; col < nt; ++col) a(row, col) = codebook[row][col];

  // Measured magnitudes.
  std::vector<double> mag(k);
  for (std::size_t row = 0; row < k; ++row)
    mag[row] = std::sqrt(std::pow(10.0, sweep.rss_dbm[row] / 10.0));

  // Initial phase guesses: zero. (A spectral initializer would converge
  // faster but Gerchberg-Saxton with damping is robust enough at K >= 2N.)
  linalg::CVector b(k);
  for (std::size_t row = 0; row < k; ++row) b[row] = mag[row];

  CsiEstimate est;
  double prev_res = 1e300;
  for (int it = 0; it < kMaxIterations; ++it) {
    est.h = linalg::solve_least_squares(a, b, 1e-9);
    // Project: keep model phases, measured magnitudes.
    double res = 0.0, scale = 0.0;
    for (std::size_t row = 0; row < k; ++row) {
      const linalg::Complex pred = channel::beam_response(est.h, codebook[row]);
      const double pmag = std::abs(pred);
      res += (pmag - mag[row]) * (pmag - mag[row]);
      scale += mag[row] * mag[row];
      b[row] = pmag > 0.0 ? pred / pmag * mag[row]
                          : linalg::Complex(mag[row], 0.0);
    }
    est.residual = scale > 0.0 ? std::sqrt(res / scale) : 0.0;
    est.iterations = it + 1;
    if (prev_res - est.residual < kTolerance) break;
    prev_res = est.residual;
  }
  return est;
}

double csi_alignment(const linalg::CVector& estimate,
                     const linalg::CVector& truth) {
  const double ne = estimate.norm();
  const double nt = truth.norm();
  if (ne == 0.0 || nt == 0.0) return 0.0;
  return std::abs(linalg::dot(estimate, truth)) / (ne * nt);
}

}  // namespace w4k::beamforming
