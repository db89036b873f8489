// Property suite: the subset-lane power-iteration kernel
// (linalg::subset_dominant_right_singular_into) against the scalar
// oracle, dominant_right_singular on each stack's own CMatrix, bit for bit
// (iterations, singular value and right singular vector), on every SIMD
// tier the CPU supports; the user-Gram gather against each stack's own
// Gram; and the batched beamformer (sched::beamform_priority_into)
// against subset_beam over a whole 12-user lattice. ctest also runs this
// suite under W4K_THREADS=1/4 x W4K_FORCE_SCALAR=0/1 (tests/CMakeLists.txt).
#include "channel/array.h"
#include "channel/propagation.h"
#include "common/bits.h"
#include "common/thread_pool.h"
#include "linalg/decompose.h"
#include "sched/groups.h"
#include "sched/workspace.h"
#include "support/proptest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

namespace w4k {
namespace {

using linalg::CMatrix;
using linalg::Complex;
using linalg::CVector;
using linalg::DominantSVD;
using linalg::SubsetProblem;
using proptest::prop_assert;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(Complex a, Complex b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

/// Where `got` differs from `want` in iterations, singular value or any
/// bit of the right singular vector; empty if bit-identical.
std::string svd_diff(const DominantSVD& got, const DominantSVD& want) {
  std::ostringstream os;
  os.precision(17);
  if (got.iterations != want.iterations)
    os << "iterations " << got.iterations << " != " << want.iterations << "; ";
  if (!same_bits(got.singular_value, want.singular_value))
    os << "singular_value " << got.singular_value
       << " != " << want.singular_value << "; ";
  if (got.right_singular.size() != want.right_singular.size()) {
    os << "right_singular size " << got.right_singular.size()
       << " != " << want.right_singular.size();
  } else {
    for (std::size_t k = 0; k < got.right_singular.size(); ++k)
      if (!same_bits(got.right_singular[k], want.right_singular[k])) {
        os << "right_singular[" << k << "] " << got.right_singular[k]
           << " != " << want.right_singular[k];
        break;
      }
  }
  return os.str();
}

/// The scalar reference for one problem: the CMatrix of its rows.
DominantSVD reference(std::span<const CVector> rows, const SubsetProblem& p) {
  std::vector<CVector> stack;
  for (std::size_t u = 0; u < rows.size(); ++u)
    if (p.rows & (std::uint64_t{1} << u)) stack.push_back(rows[u]);
  Rng rng(p.seed);
  return linalg::dominant_right_singular(CMatrix::from_rows(stack), rng);
}

std::vector<gf256::Tier> supported_tiers() {
  std::vector<gf256::Tier> out;
  for (gf256::Tier t : {gf256::Tier::kScalar, gf256::Tier::kSsse3,
                        gf256::Tier::kAvx2, gf256::Tier::kNeon})
    if (gf256::tier_supported(t)) out.push_back(t);
  return out;
}

/// Random rows of one length. Row kinds: unit-normalized (as the
/// scheduler feeds them), raw Gaussian, Gaussian scaled by 1e-12..1e12
/// (tiny stacks reach the convergence test with lambda ~ 0), zero, a
/// duplicate of an earlier row, or (if allowed) a row poisoned with NaN
/// or inf.
std::vector<CVector> random_rows(Rng& rng, std::size_t n, std::size_t cols,
                                 bool allow_nonfinite) {
  std::vector<CVector> rows(n, CVector(cols));
  for (std::size_t u = 0; u < n; ++u) {
    const double kind = rng.uniform();
    if (kind < 0.08) continue;  // zero row
    if (kind < 0.18 && u > 0) {
      rows[u] = rows[rng.below(u)];  // duplicate
      continue;
    }
    for (std::size_t k = 0; k < cols; ++k)
      rows[u][k] = Complex(rng.gaussian(), rng.gaussian());
    if (kind < 0.7 && rows[u].norm() > 0.0) {
      rows[u] = rows[u].normalized();
    } else if (kind < 0.8) {
      rows[u] *= Complex(std::pow(10.0, rng.uniform(-12.0, 12.0)), 0.0);
    }
    if (allow_nonfinite && kind > 0.96) {
      const double bad = rng.chance(0.5)
                             ? std::numeric_limits<double>::quiet_NaN()
                             : std::numeric_limits<double>::infinity();
      rows[u][rng.below(cols)] = Complex(bad, 0.0);
    }
  }
  return rows;
}

/// Random problems: member counts 1..8 (some past cols, the tall path),
/// occasionally the empty stack.
std::vector<SubsetProblem> random_problems(Rng& rng, std::size_t n,
                                           std::size_t count) {
  std::vector<SubsetProblem> out(count);
  for (auto& p : out) {
    p.seed = rng.next();
    if (rng.chance(0.02)) continue;  // no rows
    const std::size_t m = 1 + rng.below(std::min<std::size_t>(n, 8));
    while (static_cast<std::size_t>(__builtin_popcountll(p.rows)) < m)
      p.rows |= std::uint64_t{1} << rng.below(n);
  }
  return out;
}

void check_batch(std::span<const CVector> rows,
                 std::span<const SubsetProblem> problems,
                 linalg::SubsetLaneScratch& scratch) {
  CMatrix gram;
  linalg::row_gram_into(rows, gram);
  for (gf256::Tier tier : supported_tiers()) {
    std::vector<DominantSVD> out(problems.size());
    const auto stats = linalg::subset_dominant_right_singular_into(
        rows, gram, problems, tier, scratch, out);
    std::uint64_t iterations = 0;
    for (std::size_t p = 0; p < problems.size(); ++p) {
      const DominantSVD want = reference(rows, problems[p]);
      iterations += static_cast<std::uint64_t>(want.iterations);
      const std::string diff = svd_diff(out[p], want);
      prop_assert(diff.empty(), std::string("tier ") + gf256::tier_name(tier) +
                                    ", problem " + std::to_string(p) +
                                    " (rows 0x" + [&] {
                                      std::ostringstream h;
                                      h << std::hex << problems[p].rows;
                                      return h.str();
                                    }() + "): " + diff);
    }
    prop_assert(stats.iterations == iterations,
                "stats.iterations " + std::to_string(stats.iterations) +
                    " != " + std::to_string(iterations));
    // Every problem that can run on lanes does, so the comparison above
    // covered the lanes: 1 <= m < cols and every member row finite.
    std::uint64_t lane_eligible = 0;
    for (const SubsetProblem& p : problems) {
      const auto m = static_cast<std::size_t>(__builtin_popcountll(p.rows));
      bool finite = true;
      for (std::size_t u = 0; u < rows.size(); ++u)
        if (p.rows & (std::uint64_t{1} << u))
          for (std::size_t k = 0; k < rows[u].size(); ++k)
            finite = finite && std::isfinite(rows[u][k].real()) &&
                     std::isfinite(rows[u][k].imag());
      if (m >= 1 && m < rows[0].size() && finite) ++lane_eligible;
    }
    const std::uint64_t want_lanes =
        linalg::subset_lane_width(tier) == 1 ? 0 : lane_eligible;
    prop_assert(stats.lane_subsets == want_lanes,
                std::string("tier ") + gf256::tier_name(tier) + ": " +
                    std::to_string(stats.lane_subsets) + " lane subsets, " +
                    std::to_string(want_lanes) + " expected");
  }
}

TEST(PropsSubsetLanes, LaneKernelMatchesScalarBitForBit) {
  linalg::SubsetLaneScratch scratch;  // reused: the refill path grows it
  W4K_PROP("linalg.subset-lanes", [&](Rng& rng) {
    const std::size_t cols = 4 + rng.below(29);  // 4..32
    const std::size_t n = 1 + rng.below(12);
    const auto rows = random_rows(rng, n, cols, /*allow_nonfinite=*/false);
    const auto problems = random_problems(rng, n, 1 + rng.below(60));
    check_batch(rows, problems, scratch);
  });
}

TEST(PropsSubsetLanes, NonFiniteEntriesTakeTheScalarPath) {
  linalg::SubsetLaneScratch scratch;
  W4K_PROP("linalg.subset-lanes-nonfinite", [&](Rng& rng) {
    const std::size_t cols = 4 + rng.below(29);
    const std::size_t n = 2 + rng.below(11);
    auto rows = random_rows(rng, n, cols, /*allow_nonfinite=*/true);
    // At least one poisoned row, so every iteration covers the fallback.
    const double bad = rng.chance(0.5) ? std::numeric_limits<double>::quiet_NaN()
                                       : -std::numeric_limits<double>::infinity();
    rows[rng.below(n)][rng.below(cols)] = Complex(0.0, bad);
    const auto problems = random_problems(rng, n, 1 + rng.below(40));
    check_batch(rows, problems, scratch);
  });
}

TEST(PropsSubsetLanes, DegenerateStacksMatchScalar) {
  // Hand-built corner cases at every member count 1..8: an all-zero stack,
  // zero rows among live ones, duplicate rows (rank one), orthonormal rows
  // (lambda1 == lambda2: the quotient is flat from the first step), and a
  // near-degenerate pair (lambda2/lambda1 = 0.999) that runs into the
  // 500-iteration cap.
  const std::size_t cols = 16;
  std::vector<CVector> rows(10, CVector(cols));
  Rng rng(7);
  for (std::size_t k = 0; k < cols; ++k)
    rows[0][k] = Complex(rng.gaussian(), rng.gaussian());
  rows[0] = rows[0].normalized();
  rows[1] = rows[0];                                // duplicate
  rows[2][3] = 1.0;                                 // orthonormal pair
  rows[3][5] = Complex(0.0, 1.0);
  rows[4][7] = 1.0;                                 // near-degenerate pair
  rows[5][9] = std::sqrt(0.999);
  // Rows 6..9 stay zero. Each core (a single row, the duplicate pair, the
  // orthonormal pair, the near-degenerate pair, all six live rows, no
  // live row) is padded with 0..4 of them, up to 8 members in all.
  std::vector<SubsetProblem> problems;
  const std::uint64_t cores[] = {0b1, 0b11, 0b1100, 0b110000, 0b111111, 0};
  std::uint64_t seed = 11;
  for (const std::uint64_t core : cores)
    for (std::uint64_t pad = 0; pad <= 4; ++pad) {
      const std::uint64_t rows_mask = core | (((1ULL << pad) - 1) << 6);
      if (rows_mask != 0 && __builtin_popcountll(rows_mask) <= 8)
        problems.push_back({rows_mask, seed++});
    }
  linalg::SubsetLaneScratch scratch;
  std::vector<DominantSVD> out(problems.size());
  CMatrix gram;
  linalg::row_gram_into(rows, gram);
  bool hit_cap = false, hit_zero = false, flat = false;
  for (const SubsetProblem& p : problems) {
    const DominantSVD want = reference(rows, p);
    hit_cap |= want.iterations == 500;
    hit_zero |= want.singular_value == 0.0 && want.iterations == 1;
    flat |= want.iterations == 2 && (p.rows & 0b1100) == 0b1100;
  }
  EXPECT_TRUE(hit_cap) << "no case reached the iteration cap";
  EXPECT_TRUE(hit_zero) << "no all-zero stack";
  EXPECT_TRUE(flat) << "the orthonormal pair did not stop at step 2";
  for (gf256::Tier tier : supported_tiers()) {
    linalg::subset_dominant_right_singular_into(rows, gram, problems, tier,
                                                scratch, out);
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const std::string diff = svd_diff(out[i], reference(rows, problems[i]));
      EXPECT_TRUE(diff.empty()) << gf256::tier_name(tier) << " problem " << i
                                << ": " << diff;
    }
  }
}

TEST(PropsSubsetLanes, UserGramGatherIsEachStacksGram) {
  // Every subset's Gram, gathered from the one row Gram, equals that
  // subset's own row_gram_into and the CMatrix product A * A^H, bit for
  // bit (zero entries in the rows exercise the zero-skip).
  W4K_PROP("linalg.user-gram-gather", [](Rng& rng) {
    const std::size_t cols = 4 + rng.below(29);
    const std::size_t n = 1 + rng.below(12);
    auto rows = random_rows(rng, n, cols, /*allow_nonfinite=*/false);
    for (auto& r : rows)
      for (std::size_t k = 0; k < cols; ++k)
        if (rng.chance(0.15)) r[k] = Complex{};
    CMatrix gram;
    linalg::row_gram_into(rows, gram);
    for (int t = 0; t < 20; ++t) {
      std::vector<std::size_t> idx;
      std::vector<CVector> sub;
      for (std::size_t u = 0; u < n; ++u)
        if (rng.chance(0.5)) {
          idx.push_back(u);
          sub.push_back(rows[u]);
        }
      if (sub.empty()) continue;
      CMatrix own;
      linalg::row_gram_into(sub, own);
      const CMatrix a = CMatrix::from_rows(sub);
      const CMatrix product = a * a.hermitian();
      for (std::size_t r = 0; r < idx.size(); ++r)
        for (std::size_t c = 0; c < idx.size(); ++c) {
          const Complex g = gram(idx[r], idx[c]);
          prop_assert(same_bits(g, own(r, c)),
                      "gathered Gram differs from the stack's own");
          prop_assert(same_bits(g, product(r, c)),
                      "gathered Gram differs from A * A^H");
        }
    }
  });
}

TEST(PropsSubsetLanes, RejectsRaggedRowsAndMissingRows) {
  std::vector<CVector> rows = {CVector(4), CVector(5)};
  CMatrix g;
  EXPECT_THROW(linalg::row_gram_into(rows, g), std::invalid_argument);
  rows.pop_back();
  linalg::row_gram_into(rows, g);
  std::vector<SubsetProblem> problems = {{0b10, 1}};  // row 1 is missing
  std::vector<DominantSVD> out(1);
  linalg::SubsetLaneScratch scratch;
  EXPECT_THROW(linalg::subset_dominant_right_singular_into(
                   rows, g, problems, gf256::Tier::kScalar, scratch, out),
               std::invalid_argument);
}

/// Same beam, rate and bottleneck bits, and each member of `mask`
/// receives the same RSS from both beams, the lowest of which is the
/// bottleneck.
bool same_beam(const beamforming::GroupBeam& a,
               const beamforming::GroupBeam& b, sched::GroupMask mask,
               const std::vector<linalg::CVector>& users) {
  if (a.beam.size() != b.beam.size() ||
      !same_bits(a.rate.value, b.rate.value) ||
      !same_bits(a.min_rss.value, b.min_rss.value))
    return false;
  for (std::size_t i = 0; i < a.beam.size(); ++i)
    if (!same_bits(a.beam[i], b.beam[i])) return false;
  double lowest = 1e300;
  for (std::size_t u : SetBits{mask}) {
    const Dbm ra = channel::beam_rss(users[u], a.beam);
    const Dbm rb = channel::beam_rss(users[u], b.beam);
    if (!same_bits(ra.value, rb.value)) return false;
    lowest = std::min(lowest, ra.value);
  }
  return same_bits(lowest, a.min_rss.value);
}

TEST(PropsSubsetLanes, BeamformSubsetsMatchesSubsetBeamOnTwelveUsers) {
  // The whole 12-user lattice (4095 masks) through the batched path, then
  // again on the same workspace after two walkers moved — the mobile-crowd
  // beacon — on the shared pool (sized by W4K_THREADS).
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> users;
  for (int i = 0; i < 12; ++i)
    users.push_back(channel::make_channel(
        prop, channel::Position::from_polar(3.0 + 0.3 * i, -0.9 + 0.15 * i)));
  std::vector<sched::GroupMask> masks;
  for (sched::GroupMask m = 1; m < (sched::GroupMask{1} << 12); ++m)
    masks.push_back(m);
  const std::uint64_t seed = 0x5eed;
  sched::SchedWorkspace ws;
  for (int step = 0; step < 2; ++step) {
    if (step == 1) {
      users[0] = channel::make_channel(
          prop, channel::Position::from_polar(5.5, 0.35));
      users[1] = channel::make_channel(
          prop, channel::Position::from_polar(2.7, -0.6));
    }
    sched::beamform_priority_into(beamforming::Scheme::kOptimizedMulticast,
                                  users, masks, masks.size(), {},
                                  beamforming::Codebook{}, seed,
                                  &ThreadPool::shared(), ws);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
      const auto direct =
          sched::subset_beam(beamforming::Scheme::kOptimizedMulticast, users,
                             masks[i], beamforming::Codebook{}, seed);
      if (!same_beam(ws.beams[i], direct, masks[i], users)) {
        if (mismatches++ < 5)
          ADD_FAILURE() << "step " << step << ": mask 0x" << std::hex
                        << masks[i] << " differs from subset_beam";
      }
    }
    EXPECT_EQ(mismatches, 0u) << "step " << step;
  }
}

}  // namespace
}  // namespace w4k
