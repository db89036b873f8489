// Cluster-tree candidate generation for large user counts (DESIGN.md
// Sec. 4f).
//
// Past ~12 users the exhaustive subset lattice is unaffordable, but the
// groups worth transmitting to are far from arbitrary: a multicast beam
// only serves several users well when their channels point the same way.
// So we cluster users by normalized channel correlation (average-linkage
// agglomeration with deterministic index tie-breaks) and propose exactly
// the subsets the cluster tree suggests:
//
//   - every active user as a singleton (the coverage floor),
//   - each agglomeration merge set, plus its gain-ordered prefixes
//     (strongest members first), at every level of the tree,
//   - all pairs among the strongest few members of each final cluster,
//   - each final cluster unioned with its most-correlated peer
//     (cross-cluster merges), again as gain-ordered prefixes.
//
// The output is a deduplicated ascending mask list — a pure function of
// (channels, active, cfg); no clock, no RNG — typically a few hundred
// candidates at N=64 instead of 2^64.
#pragma once

#include "sched/groups.h"

#include <cstdint>
#include <vector>

namespace w4k::sched {

/// Candidate member bitmasks from the cluster tree, ascending and
/// deduplicated. `active[u] == 0` keeps user u out of every candidate
/// (quarantined/departed); zero-norm channels get a singleton but are
/// never clustered (they have no direction). Respects cfg.max_group_size,
/// kMaxClusterSize and kClusterCorrelation; rate bounds and the
/// kMaxCandidates budget are applied by plan_candidates_into.
std::vector<GroupMask> cluster_candidates(
    const std::vector<linalg::CVector>& channels,
    const std::vector<std::uint8_t>& active, const GroupEnumConfig& cfg);

}  // namespace w4k::sched
