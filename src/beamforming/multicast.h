// Multicast beamforming (Sec. 2.5).
//
// For every candidate multicast group the sender derives a transmit beam,
// evaluates the per-member RSS, and maps the *minimum* member RSS to the
// group's MCS/UDP rate (the bottleneck member limits a multicast
// transmission). Four schemes, matching the paper's comparison:
//
//   kOptimizedMulticast  max-min via the SVD max-sum heuristic: the beam is
//                        the dominant right singular vector of the stacked
//                        channel matrix H = [h_1; ...; h_N] (Eq. 3);
//   kPredefinedMulticast best single codebook sector by min-member RSS;
//   kOptimizedUnicast    MRT beam conj(h)/||h|| (CSI-based; groups are
//                        restricted to singletons by the scheduler);
//   kPredefinedUnicast   best codebook sector for the single member.
#pragma once

#include "beamforming/codebook.h"
#include "channel/mcs.h"
#include "common/units.h"
#include "linalg/matrix.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace w4k::beamforming {

enum class Scheme {
  kOptimizedMulticast,
  kPredefinedMulticast,
  kOptimizedUnicast,
  kPredefinedUnicast,
};

/// True for the two schemes that may serve groups larger than one user.
bool allows_multicast(Scheme s);

/// Display name used by bench harness output.
std::string to_string(Scheme s);

/// A group's beam and what it delivers. A member's own RSS is
/// channel::beam_rss(h_u, beam); only the bottleneck is kept.
struct GroupBeam {
  linalg::CVector beam;          ///< transmit precoder F (unit norm)
  Dbm min_rss{-300.0};           ///< bottleneck member
  Mbps rate{0.0};                ///< Table 2 UDP rate at min_rss (0 = unusable)
};

/// Evaluates an externally-derived unit-norm beam against the group's
/// members into a reusable GroupBeam (the beam keeps its capacity):
/// bottleneck RSS, and the Table 2 rate at the bottleneck.
/// `members` are ascending indices into `users`, whose rows are read in
/// place. This is the evaluation every scheme performs; the scheduler's
/// subset-lane beamformer uses it to close the loop on its beams.
void evaluate_beam_into(const linalg::CVector& beam,
                        std::span<const linalg::CVector> users,
                        std::span<const std::size_t> members,
                        GroupBeam& out);

/// Derives the beam and rate for the group `members` (ascending indices
/// into `users`, read in place) into a reusable GroupBeam. The SVD power
/// iteration draws from a private Rng(seed), so the result is a pure
/// function of (scheme, member channels, codebook, seed) — what makes
/// per-subset caching and parallel group enumeration safe. Unicast schemes
/// require exactly one member (throws otherwise); `codebook` is consulted
/// only by the pre-defined schemes (may be empty for the optimized ones).
/// MRT, uniform and codebook beams are allocation-free once `out` is warm;
/// the multi-member SVD builds its stacked matrix (the scheduler sends
/// those subsets to linalg::subset_dominant_right_singular_into instead).
void group_beam_into(Scheme scheme, std::span<const linalg::CVector> users,
                     std::span<const std::size_t> members,
                     const Codebook& codebook, std::uint64_t seed,
                     GroupBeam& out);

}  // namespace w4k::beamforming
