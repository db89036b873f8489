// Multicast group candidate generation (Sec. 2.4) — the anytime scheduler
// front end.
//
// For small N the sender enumerates every non-empty user subset, beams to
// it, maps the bottleneck RSS to a UDP rate, and drops groups whose rate
// falls below a threshold ("we omit the groups whose throughput is below a
// threshold to speed up computation"). Past kHierarchicalThreshold users
// the exhaustive lattice is replaced by a cluster-tree generator (see
// sched/hierarchy.h): users are clustered by channel direction and
// candidates are the singletons plus intra- and cross-cluster merges —
// hundreds of subsets at N=64 instead of 2^64. Unicast schemes only admit
// singleton groups at any N.
//
// Before any SVD runs, every candidate is screened by a cheap rate upper
// bound: a unit-norm beam can deliver at most ||h_u||^2 mW to member u
// (Cauchy–Schwarz), so a group's bottleneck rate never exceeds the Table 2
// rate at min_u ||h_u||^2. The bound is monotone (supersets only shrink
// it) and *exact* with respect to the emission filter — a pruned subset
// could never have been emitted — so pruning changes nothing but the work.
//
// Every subset's beam is a pure function of (scheme, member channels,
// codebook, beam_seed): the SVD power iteration for subset `mask` draws
// from a private Rng seeded by subset_seed(beam_seed, mask), never from a
// generator shared across subsets. Changing the filter knobs
// (rate_threshold / max_group_size / Membership) therefore cannot perturb the
// beams of unrelated surviving subsets, and per-subset caching
// (sched::BeamCache), ThreadPool-parallel enumeration, and the batched
// subset-lane path (linalg::subset_dominant_right_singular_into) are
// bit-identical to the serial full enumeration.
#pragma once

#include "beamforming/multicast.h"
#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace w4k::sched {

struct SchedWorkspace;  // sched/workspace.h — reusable enumeration buffers

/// Member bitmask of a candidate group. 64-bit: the hierarchical generator
/// serves up to 64 users; the exhaustive lattice keeps its historic
/// 16-user ceiling. Masks below 2^32 keep the exact subset_seed values the
/// 32-bit masks produced, so cached-beam determinism survives the widening.
using GroupMask = std::uint64_t;

/// One candidate multicast group: who is in it and the beam that serves
/// them. Every consumer walks the members as the mask's set bits
/// (SetBits, common/bits.h), so in ascending user order.
struct GroupSpec {
  GroupMask mask = 0;                 ///< bit u set = user u is a member
  beamforming::GroupBeam beam;        ///< precoder + bottleneck RSS + rate

  bool contains(std::size_t user) const {
    return user < 64 && ((mask >> user) & 1u) != 0;
  }
};

/// Throws std::invalid_argument (prefixed by `who`) unless `n_users` fits
/// a GroupMask and every group's mask names only users below it: the
/// contract of every entry point that takes groups (any range of elements
/// with a `mask` field: GroupSpec, emu::GroupTx).
template <class Groups>
void check_group_masks(const Groups& groups, std::size_t n_users,
                       const char* who) {
  bool ok = n_users <= 64;
  for (const auto& g : groups) ok &= n_users >= 64 || g.mask >> n_users == 0;
  if (!ok)
    throw std::invalid_argument(std::string(who) +
                                ": more than 64 users or a member >= n_users");
}

/// The element of a mask-sorted range with exactly `mask`, or nullptr.
template <class Entries>
auto* find_mask(Entries& entries, GroupMask mask) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), mask,
      [](const auto& e, GroupMask m) { return e.mask < m; });
  return it != entries.end() && it->mask == mask ? &*it : nullptr;
}

/// Wall-clock cutoff of an anytime stage. nullopt = no clock reads: the
/// output is a pure function of the inputs (the determinism contract).
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// This frame's grouping constraints: views over caller-owned per-user
/// vectors, so nothing is copied per frame.
struct Membership {
  /// exclude[u] != 0 drops every subset containing user u (empty = none).
  /// Member indices in the returned groups stay in the *full* user index
  /// space — excluded users simply appear in no group. The hardened
  /// session uses this to quarantine persistently blocked users and to
  /// drop departed ones without re-indexing anything downstream.
  std::span<const std::uint8_t> exclude;
  /// partition[u] = the transmitter (AP) serving user u. Non-empty: every
  /// emitted group must be partition-pure — a multicast beam is formed by
  /// one physical array, so a group can never span APs. Empty = all users
  /// share one transmitter (the single-AP behaviour, bit-identical to the
  /// pre-partition enumeration). Values must be < 16.
  std::span<const std::uint8_t> partition;
};

// --- Anytime candidate generation (DESIGN.md Sec. 4f) -------------------

/// User counts above this switch from the paper's exhaustive subset
/// lattice to the cluster-tree candidate generator. It keeps every small-N
/// scenario on the exact exhaustive path while the lattice is still
/// affordable.
inline constexpr std::size_t kHierarchicalThreshold = 12;
/// The exhaustive lattice enumerates all 2^n subsets; it keeps its
/// historic 16-user ceiling.
static_assert(kHierarchicalThreshold <= 16);
/// Minimum normalized channel correlation |<h_u/|h_u|, h_v/|h_v|>|
/// (average linkage between clusters) for two beam clusters to merge.
inline constexpr double kClusterCorrelation = 0.6;
/// Agglomeration stops growing a cluster past this many members.
inline constexpr std::size_t kMaxClusterSize = 8;
/// Cap on hierarchical candidates per frame. Singletons are always kept
/// (they are what guarantees coverage); the merge candidates with the best
/// bound-rate x size score fill the remainder.
inline constexpr std::size_t kMaxCandidates = 128;

struct GroupEnumConfig {
  /// Groups slower than this are pruned (0 keeps everything usable).
  Mbps rate_threshold{0.0};
  /// Upper bound on group size (paper uses all subsets; capping is an
  /// ablation knob for the pruning bench).
  std::size_t max_group_size = 8;
};

/// Deterministic per-subset RNG seed: a splitmix64-style mix of the
/// session-level beam seed and the member bitmask. Each subset's beam
/// derives its randomness from this value alone, independent of what else
/// is enumerated in the same pass.
std::uint64_t subset_seed(std::uint64_t beam_seed, GroupMask mask);

/// The candidate set decide_into() will consider this frame, bound-pruned
/// and ordered for the anytime loop.
struct CandidatePlan {
  /// Bound-surviving candidate masks, ascending (the emission order).
  std::vector<GroupMask> masks;
  /// Beamforming order: indices into `masks`. Singleton candidates come
  /// first (base coverage — the mandatory prefix), then merges by
  /// descending bound-rate x member-count (airtime-efficiency), ties by
  /// ascending mask.
  std::vector<std::size_t> priority;
  std::size_t mandatory = 0;  ///< prefix of `priority` never deadline-cut
  std::size_t generated = 0;  ///< candidates before bound pruning
  std::size_t pruned = 0;     ///< dropped by the rate upper bound
  std::size_t capped = 0;     ///< dropped by the kMaxCandidates budget
};

/// The beam for one member subset (bits of `mask` index into
/// `user_channels`) through beamforming::group_beam_into. Pure function of
/// its arguments; the per-mask reference the batched beamformer must match.
beamforming::GroupBeam subset_beam(
    beamforming::Scheme scheme,
    const std::vector<linalg::CVector>& user_channels, GroupMask mask,
    const beamforming::Codebook& codebook, std::uint64_t beam_seed);

/// The batched beamformer, shared by enumerate_groups and BeamCache:
/// beamforms `masks` front to back (they must already be in beamforming
/// priority order), optionally on `pool`. The first `mandatory` entries
/// always run; the rest run in small batches with a clock check between
/// batches once `deadline` is set. Each user is normalized once and one
/// user Gram is built from those rows; multi-member kOptimizedMulticast
/// subsets run their power iterations on the subset-lane kernel
/// (linalg::subset_dominant_right_singular_into), every other beam through
/// beamforming::group_beam_into. Bit-identical to subset_beam per mask.
/// Results land in ws.beams / ws.done / ws.deferred (never-shrinking;
/// ws.done[i] == 0 marks a deferred subset).
void beamform_priority_into(
    beamforming::Scheme scheme,
    const std::vector<linalg::CVector>& user_channels,
    std::span<const GroupMask> masks, std::size_t mandatory,
    const Deadline& deadline, const beamforming::Codebook& codebook,
    std::uint64_t beam_seed, ThreadPool* pool, SchedWorkspace& ws);

/// Builds the candidate plan for `channels` under `cfg` and `who` into
/// ws.plan, reusing its vectors and the workspace's pruning scratch: the
/// exhaustive lattice up to the hierarchical threshold, the cluster-tree
/// generator above it (up to 64 users; throws past that). Pure function of
/// its arguments — no clock, no RNG — so any thread count sees the same
/// plan.
void plan_candidates_into(beamforming::Scheme scheme,
                          const std::vector<linalg::CVector>& channels,
                          const GroupEnumConfig& cfg, const Membership& who,
                          SchedWorkspace& ws);

/// The one emit step of every enumeration: copies, in ascending mask
/// order, each ws.plan mask whose beam (ws.by_index[i]; nullptr =
/// deferred) has a positive rate >= `rate_threshold` into `out`, mask and
/// beam once, the copy's rate multiplied by `rate_scale` (the filter reads
/// the unscaled Table 2 rate). `out` ends up exactly that size; its
/// elements move to and from ws.spare_groups, so every slot keeps its beam
/// buffer.
void emit_groups(Mbps rate_threshold, double rate_scale, SchedWorkspace& ws,
                 std::vector<GroupSpec>& out);

/// Bit u set = row u of `now` differs from row u of `kept`, element by
/// element (a NaN entry always differs). Both hold the same number of
/// rows, at most 64.
GroupMask changed_rows(const std::vector<linalg::CVector>& now,
                       const std::vector<linalg::CVector>& kept);

/// Bumps the sched.anytime.* counters for one enumeration pass (no-op with
/// telemetry disabled). Shared by the stateless path and the BeamCache.
void note_anytime(const CandidatePlan& plan, std::size_t beamformed,
                  std::size_t deferred);

/// Enumerates candidate groups for the given per-user channels under
/// `scheme`. Groups are ordered by ascending bitmask of members, which is
/// the "increasing group id" order the Eq. 4 greedy relies on. When `pool`
/// is non-null the per-subset beamforming of the admissible subsets runs
/// on it; results are bit-identical for any pool size (each subset is
/// independent and individually seeded). `who` filters the subsets;
/// `deadline` cuts optional merge candidates (beamform_priority_into).
///
/// The returned span points into ws.groups and stays valid until the next
/// enumeration on the same workspace. In steady state — stable user count
/// and candidate plan — the whole call performs zero heap allocations.
std::span<const GroupSpec> enumerate_groups(
    beamforming::Scheme scheme,
    const std::vector<linalg::CVector>& user_channels,
    const beamforming::Codebook& codebook, std::uint64_t beam_seed,
    const GroupEnumConfig& cfg, ThreadPool* pool, SchedWorkspace& ws,
    const Membership& who = {}, const Deadline& deadline = {});

}  // namespace w4k::sched
