#include "beamforming/multicast.h"

#include "channel/array.h"
#include "common/rng.h"
#include "linalg/decompose.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace w4k::beamforming {
namespace {

// A zeroed channel (corrupt CSI sanitized upstream, or a fully blocked
// link) has no direction to steer toward: any beam is equally useless, so
// use a uniform one and let beam_rss report the link as dead (-300 dBm)
// instead of throwing on normalization.
void uniform_beam_into(std::size_t n, linalg::CVector& out) {
  out.resize_zero(std::max<std::size_t>(1, n));
  const double mag = 1.0 / std::sqrt(static_cast<double>(out.size()));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = linalg::Complex(mag, 0.0);
}

/// MRT beam conj(h)/||h|| into a reusable vector. Bit-identical to
/// h.conj().normalized(): norm(conj(x)) sums the same re^2 + im^2 terms,
/// and the element-wise complex /= double matches normalized()'s loop.
void mrt_beam_into(const linalg::CVector& h, linalg::CVector& out) {
  const double n = h.norm();
  if (n <= 0.0) {
    uniform_beam_into(h.size(), out);
    return;
  }
  out.resize_zero(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    out[i] = std::conj(h[i]);
    out[i] /= n;
  }
}

/// Bottleneck RSS and rate of the beam already in g.beam.
void score_into(std::span<const linalg::CVector> users,
                std::span<const std::size_t> members, GroupBeam& g) {
  g.min_rss = Dbm{1e300};
  for (const std::size_t u : members)
    g.min_rss = std::min(g.min_rss, channel::beam_rss(users[u], g.beam));
  g.rate = channel::rate_for_rss(g.min_rss);
}

/// The first sector with the highest min-member RSS, evaluated once. The
/// min runs exactly as score_into's, so the winner's min_rss is the one
/// the search compared.
void best_codebook_beam_into(std::span<const linalg::CVector> users,
                             std::span<const std::size_t> members,
                             const Codebook& codebook, GroupBeam& out) {
  if (codebook.size() == 0)
    throw std::invalid_argument("pre-defined scheme needs a codebook");
  std::size_t best = 0;
  Dbm best_min{-1e300};
  for (std::size_t k = 0; k < codebook.size(); ++k) {
    Dbm min_rss{1e300};
    for (const std::size_t u : members)
      min_rss = std::min(min_rss, channel::beam_rss(users[u], codebook[k]));
    if (min_rss > best_min) {
      best_min = min_rss;
      best = k;
    }
  }
  out.beam = codebook[best];  // copy-assign: capacity reused
  score_into(users, members, out);
}

}  // namespace

void evaluate_beam_into(const linalg::CVector& beam,
                        std::span<const linalg::CVector> users,
                        std::span<const std::size_t> members,
                        GroupBeam& out) {
  out.beam = beam;  // copy-assign: capacity reused
  score_into(users, members, out);
}

bool allows_multicast(Scheme s) {
  return s == Scheme::kOptimizedMulticast || s == Scheme::kPredefinedMulticast;
}

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kOptimizedMulticast: return "optimized-multicast";
    case Scheme::kPredefinedMulticast: return "pre-defined-multicast";
    case Scheme::kOptimizedUnicast: return "optimized-unicast";
    case Scheme::kPredefinedUnicast: return "pre-defined-unicast";
  }
  return "unknown";
}

void group_beam_into(Scheme scheme, std::span<const linalg::CVector> users,
                     std::span<const std::size_t> members,
                     const Codebook& codebook, std::uint64_t seed,
                     GroupBeam& out) {
  if (members.empty())
    throw std::invalid_argument("group_beam: empty group");
  if (!allows_multicast(scheme) && members.size() != 1)
    throw std::invalid_argument(
        "group_beam: unicast scheme with a multi-member group");

  switch (scheme) {
    case Scheme::kPredefinedUnicast:
    case Scheme::kPredefinedMulticast:
      best_codebook_beam_into(users, members, codebook, out);
      return;
    case Scheme::kOptimizedUnicast:
    case Scheme::kOptimizedMulticast: {
      if (members.size() == 1) {
        // MRT: F = conj(h) / ||h|| maximizes |F . h|.
        mrt_beam_into(users[members[0]], out.beam);
        score_into(users, members, out);
        return;
      }
      // Max-sum SVD heuristic for the NP-hard max-min problem: F is the
      // dominant right singular vector of the stacked channel matrix
      // (Sec. 2.5). The rows are *normalized* channels: with raw rows the
      // max-sum beam pours all power toward the strongest member and
      // starves the weak one — the opposite of the max-min intent. On
      // direction-only rows the SVD splits power across the members'
      // subspaces, which tracks min-RSS far better while keeping the
      // same O(N_t^2 N) cost. Dead (zero) members drop out of the stack.
      std::vector<linalg::CVector> rows;
      rows.reserve(members.size());
      for (const std::size_t u : members)
        if (users[u].norm() > 0.0) rows.push_back(users[u].normalized());
      if (rows.empty()) {
        uniform_beam_into(users[members[0]].size(), out.beam);
      } else {
        Rng rng(seed);
        out.beam = linalg::dominant_right_singular(
                       linalg::CMatrix::from_rows(rows), rng)
                       .right_singular;
      }
      score_into(users, members, out);
      return;
    }
  }
  throw std::logic_error("group_beam: unhandled scheme");
}

}  // namespace w4k::beamforming
