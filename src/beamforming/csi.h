// ACO-style CSI estimation (Palacios et al., MobiCom'18; Sec. 2.5/2.8).
//
// Commodity 802.11ad firmware reports only the *magnitude* (RSS) of each
// sector beam's response, never the phase, so recovering the channel
// vector h from a sweep is a phase-retrieval problem:
//     given r_k = |f_k . h|^2 for all beams k, find h.
// We solve it with Gerchberg-Saxton alternating projections: fix phase
// guesses psi_k, solve the linear least-squares system
// f_k . h = sqrt(r_k) e^{j psi_k}, re-derive psi_k from the solution, and
// iterate. With K >= 2 N_t diverse beams this converges to h up to a
// global phase — which is all beamforming needs.
#pragma once

#include "beamforming/codebook.h"
#include "beamforming/sls.h"
#include "linalg/matrix.h"

namespace w4k::beamforming {

struct CsiEstimate {
  linalg::CVector h;        ///< estimated channel (global phase arbitrary)
  double residual = 0.0;    ///< final relative LS residual
  int iterations = 0;
};

/// Estimates the channel from a sweep's per-beam RSS over `codebook`, in
/// at most 60 iterations, stopping early once an iteration improves the
/// residual by less than 1e-9. Requires codebook.size() >= number of
/// antennas (throws otherwise).
CsiEstimate estimate_csi(const SweepResult& sweep, const Codebook& codebook);

/// Alignment quality in [0, 1] between an estimate and the true channel:
/// |<h_est, h_true>| / (||h_est|| ||h_true||). 1 = perfect up to phase.
double csi_alignment(const linalg::CVector& estimate,
                     const linalg::CVector& truth);

}  // namespace w4k::beamforming
