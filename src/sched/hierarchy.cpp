#include "sched/hierarchy.h"

#include "common/bits.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace w4k::sched {
namespace {

struct Cluster {
  GroupMask members = 0;  ///< user ids
  bool alive = true;
};

}  // namespace

std::vector<GroupMask> cluster_candidates(
    const std::vector<linalg::CVector>& channels,
    const std::vector<std::uint8_t>& active, const GroupEnumConfig& cfg) {
  const std::size_t n = channels.size();
  std::vector<GroupMask> out;

  // Singletons for every active user: whatever else the tree proposes,
  // each user can always be served alone (the anytime mandatory prefix).
  for (std::size_t u = 0; u < n; ++u)
    if (u >= active.size() || active[u]) out.push_back(GroupMask{1} << u);

  // Only users with a direction participate in clustering.
  std::vector<std::size_t> user_of;           // clusterable index -> user id
  std::vector<linalg::CVector> unit;
  for (std::size_t u = 0; u < n; ++u) {
    if (u < active.size() && !active[u]) continue;
    if (channels[u].norm() <= 0.0) continue;
    user_of.push_back(u);
    unit.push_back(channels[u].normalized());
  }
  const std::size_t m = user_of.size();
  if (m < 2) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // Pairwise direction correlation |<h_i/|h_i|, h_j/|h_j|>| in [0, 1].
  std::vector<double> link(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j) {
      const double c = std::abs(linalg::dot(unit[i], unit[j]));
      link[i * m + j] = c;
      link[j * m + i] = c;
    }

  // Average-linkage agglomeration with the Lance–Williams update:
  //   link(k, i u j) = (|i| link(k,i) + |j| link(k,j)) / (|i| + |j|).
  // Strictly-greater comparisons break ties toward the lowest (i, j)
  // pair, so the tree is a deterministic function of the correlations.
  const std::size_t cap =
      std::max<std::size_t>(2, std::min(kMaxClusterSize, cfg.max_group_size));
  std::vector<Cluster> clusters(m);
  for (std::size_t i = 0; i < m; ++i)
    clusters[i].members = GroupMask{1} << user_of[i];
  std::vector<GroupMask> merges;  // every tree-internal set
  for (;;) {
    double best = kClusterCorrelation;
    std::size_t bi = m, bj = m;
    for (std::size_t i = 0; i < m; ++i) {
      if (!clusters[i].alive) continue;
      for (std::size_t j = i + 1; j < m; ++j) {
        if (!clusters[j].alive) continue;
        const int merged =
            std::popcount(clusters[i].members | clusters[j].members);
        if (static_cast<std::size_t>(merged) > cap) continue;
        const double v = link[i * m + j];
        if (v > best) {
          best = v;
          bi = i;
          bj = j;
        }
      }
    }
    if (bi == m) break;
    const double si = std::popcount(clusters[bi].members);
    const double sj = std::popcount(clusters[bj].members);
    clusters[bi].members |= clusters[bj].members;
    clusters[bj].alive = false;
    merges.push_back(clusters[bi].members);
    for (std::size_t k = 0; k < m; ++k) {
      if (k == bi || k == bj || !clusters[k].alive) continue;
      const double v =
          (si * link[bi * m + k] + sj * link[bj * m + k]) / (si + sj);
      link[bi * m + k] = v;
      link[k * m + bi] = v;
    }
  }

  // "Gain order": strongest channel first, index as the tie-break. The
  // prefixes of a merge set in this order are its most defensible
  // sub-groups — dropping the weakest member is how a group's bottleneck
  // rate improves.
  const auto gain_order = [&](GroupMask set) {
    std::vector<std::size_t> list;
    for (std::size_t u : SetBits{set}) list.push_back(u);
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      const double ga = channels[a].norm_sq();
      const double gb = channels[b].norm_sq();
      if (ga != gb) return ga > gb;
      return a < b;
    });
    return list;
  };
  const auto emit_prefixes = [&](GroupMask set) {
    GroupMask mask = 0;
    std::size_t taken = 0;
    for (std::size_t u : gain_order(set)) {
      mask |= GroupMask{1} << u;
      ++taken;
      if (taken > cfg.max_group_size) break;
      if (taken >= 2) out.push_back(mask);
    }
  };

  // Intra-cluster candidates: every merge set at every tree level.
  for (GroupMask set : merges) emit_prefixes(set);

  // Pairs among the strongest members of each final cluster — small
  // groups the prefix walk may have skipped over.
  constexpr std::size_t kTopPairs = 6;
  for (std::size_t i = 0; i < m; ++i) {
    if (!clusters[i].alive || std::popcount(clusters[i].members) < 2) continue;
    auto ordered = gain_order(clusters[i].members);
    if (ordered.size() > kTopPairs) ordered.resize(kTopPairs);
    for (std::size_t a = 0; a < ordered.size(); ++a)
      for (std::size_t b = a + 1; b < ordered.size(); ++b)
        out.push_back((GroupMask{1} << ordered[a]) |
                      (GroupMask{1} << ordered[b]));
  }

  // Cross-cluster merges: each final cluster with its most-correlated
  // peer, so near-threshold cluster boundaries still get probed.
  for (std::size_t i = 0; i < m; ++i) {
    if (!clusters[i].alive) continue;
    double best = 0.0;
    std::size_t bj = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i || !clusters[j].alive) continue;
      if (link[i * m + j] > best) {
        best = link[i * m + j];
        bj = j;
      }
    }
    if (bj == m || bj < i) continue;  // each unordered pair once
    emit_prefixes(clusters[i].members | clusters[bj].members);
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace w4k::sched
