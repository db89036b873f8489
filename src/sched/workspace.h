// Per-session scheduler workspace (DESIGN.md Sec. 4g).
//
// Every buffer the per-frame enumeration path touches lives here and only
// ever grows: candidate plans, the normalized user rows with their Gram
// and the subset-lane kernel's problems, results and per-chunk scratch,
// beam/done scratch for the deadline batcher, and the GroupSpec output
// and spare pools of the emit step.
// After a few warmup frames every vector has reached its steady-state
// capacity and the whole enumerate -> beamform -> emit pipeline performs
// zero heap allocations (asserted by the W4K_COUNT_ALLOCS tier-1 gate).
//
// Ownership rule: the workspace belongs to the session (or bench/test
// driver) that owns the frame loop, one per concurrent decide_into() caller —
// it is NOT thread-safe and must not be shared across sessions. Spans
// returned by the enumeration functions point into the workspace and are
// invalidated by the next call that takes the same workspace.
#pragma once

#include "linalg/decompose.h"
#include "sched/groups.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace w4k {

/// Resizes a vector of buffer-owning elements without churning the heap:
/// a shrink parks the victims in `pool`, a growth takes them back, and a
/// new high-water reserves `pool` so any later shrink is heap-free.
template <class T>
void resize_recycled(std::vector<T>& v, std::size_t n, std::vector<T>& pool) {
  while (v.size() > n) {
    pool.push_back(std::move(v.back()));
    v.pop_back();
  }
  while (v.size() < n) {
    if (pool.empty()) {
      v.emplace_back();
    } else {
      v.push_back(std::move(pool.back()));
      pool.pop_back();
    }
  }
  if (pool.capacity() < v.size() + pool.size())
    pool.reserve(v.size() + pool.size());
}

}  // namespace w4k

namespace w4k::sched {

/// A bound-pruning survivor: candidate mask plus its rate upper bound
/// (plan_candidates_into scratch, kept here so its buffer persists).
struct ScoredCandidate {
  GroupMask mask = 0;
  double ub = 0.0;
};

/// Scratch of one beamformer chunk: the subset-lane kernel's buffers.
/// Chunk k of the pool's parallel_for always uses slot k, whichever
/// thread runs it, so the buffers warm up the same way at any pool size.
struct BeamformChunk {
  linalg::SubsetLaneScratch lanes;
};

struct SchedWorkspace {
  // --- plan_candidates_into ---------------------------------------------
  CandidatePlan plan;                  ///< the current frame's plan
  std::vector<GroupMask> raw;          ///< pre-pruning candidate masks
  std::vector<double> cap_mw;          ///< per-user ||h_u||^2 bound input
  std::vector<ScoredCandidate> scored; ///< bound-pruning survivors
  std::vector<std::uint8_t> active;    ///< hierarchical generator's mask

  // --- the batched beamformer (beamform_priority_into) --------------------
  std::vector<linalg::CVector> unit;   ///< per-user normalized channels
                                       ///< (zero rows for unusable users);
                                       ///< never shrunk (inner capacity)
  linalg::CMatrix user_gram;           ///< row Gram of `unit`, N x N
  GroupMask usable = 0;                ///< users with a unit row
  GroupMask mixed = 0;                 ///< live users of the wrong length
  std::vector<linalg::SubsetProblem> subsets;  ///< lane-kernel problems
  std::vector<std::size_t> first_subset;  ///< mask i -> first problem index
                                          ///< at or after i (size masks+1)
  std::vector<linalg::DominantSVD> svd;   ///< per-problem results
  std::vector<BeamformChunk> chunks;      ///< slot k serves pool chunk k

  // --- beamform_priority_into -------------------------------------------
  /// Masks in beamforming order (BeamCache: the uncached ones).
  std::vector<GroupMask> ordered;
  std::vector<beamforming::GroupBeam> beams;  ///< result pool, never shrunk
  std::vector<std::uint8_t> done;      ///< beams[i] computed this call
  std::size_t deferred = 0;            ///< masks cut by the deadline

  // --- enumerate paths ---------------------------------------------------
  /// Per plan mask, its beam this frame (nullptr = deferred, or filtered
  /// out by emit_groups).
  std::vector<const beamforming::GroupBeam*> by_index;
  std::vector<GroupSpec> groups;       ///< enumerate_groups' output
  /// Parked GroupSpecs of every emit target (ws.groups or a caller's
  /// vector): a shrink moves slots here, a regrowth takes them back.
  std::vector<GroupSpec> spare_groups;
};

}  // namespace w4k::sched
