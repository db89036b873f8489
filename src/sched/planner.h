// The per-frame scheduling decision (Fig. 3, Sec. 2.4): beamform every
// candidate group, solve Eq. 1 for their airtime, map coding units onto it
// with the Eq. 4 greedy. sched::Planner runs the three stages into a
// caller-owned Decision over state it alone owns — the beam cache (with
// its enumeration workspace), the solvers' scratch and the previous plan
// that warm-starts Eq. 1 — so two planners share nothing.
#pragma once

#include "sched/allocate.h"
#include "sched/beam_cache.h"
#include "sched/unitmap.h"

#include <cstdint>
#include <span>
#include <vector>

namespace w4k::sched {

/// One frame's schedule. A reused Decision is overwritten in place, so
/// the decision reuses capacity in steady state.
struct Decision {
  /// Ascending member mask; rates scaled to the frame resolution where the
  /// beam cache emits them.
  std::vector<GroupSpec> groups;
  Allocation allocation;          ///< Eq. 1 airtime per group and layer
  UnitMapResult unit_map;         ///< Eq. 4 coding-unit assignments
  /// The beam-cache pass whose emission `groups` holds (BeamCache::
  /// enumerate_into; 0: none). Unique across planners: two decisions with
  /// the same nonzero id hold the same groups in the same order. A pass
  /// the cache reuses leaves `groups` of a decision that holds it as is.
  std::uint64_t pass = 0;
};

class Planner {
 public:
  /// Fixed for the planner's lifetime; MulticastSession copies every
  /// field from its SessionConfig.
  struct Settings {
    beamforming::Scheme scheme = beamforming::Scheme::kOptimizedMulticast;
    std::uint64_t beam_seed = 1;  ///< sched::subset_seed input
    GroupEnumConfig group_enum;
    bool optimized = true;        ///< Eq. 1 optimizer; false = round robin
    double rate_scale = 1.0;      ///< Table 2 rates -> frame resolution
    Seconds time_budget = kFrameBudget;  ///< airtime Eq. 1 may plan
    std::size_t symbol_size = fec::kDefaultSymbolSize;
    double deadline_ms = 0.0;     ///< anytime budget; 0 reads no clock
  };

  explicit Planner(const Settings& settings);

  /// One decision into `d`: the groups for `channels` under `who` (cached
  /// beams, misses beamformed on the shared ThreadPool, rates scaled; a
  /// reused cache pass leaves `d.groups` alone when `d` holds it), the
  /// Eq. 1 allocation warm-started from the previous plan when enough of
  /// it survives, and the Eq. 4 map of `units`. No schedulable group
  /// leaves `d` empty. This is the one place the deadline is split:
  /// optional merge beams stop at 45 % of it, the optimizer returns its
  /// best plan so far at 90 %, the rest is the unit map's.
  void decide_into(const std::vector<linalg::CVector>& channels,
                   const FrameContent& content,
                   const std::vector<UnitSpec>& units, const Membership& who,
                   const beamforming::Codebook& codebook,
                   model::QualityModel& quality, Decision& d);

  /// Keeps rates[g], the receivers' measured rate of transmitted group
  /// d.groups[g], by member mask until the next call.
  void note_measured(const Decision& d, std::span<const Mbps> rates);
  /// The rate last noted for exactly d.groups[g]'s members; zero if none
  /// was. Read by index when `d` holds the pass the rates were noted on.
  Mbps measured_rate(const Decision& d, std::size_t g) const;

  /// Drops the previous plan. Masks index users, so a user-count change
  /// must call this.
  void forget_plan();
  /// Drops the cached beams, the previous plan and the measured rates
  /// (session reset).
  void clear();

 private:
  /// The previous plan remapped by member mask onto d.groups (g-major,
  /// layer-minor; by index when `d` holds the previous plan's pass);
  /// nullptr when the user count changed or under half of the previous
  /// airtime maps onto a surviving group.
  const std::vector<double>* warm_start(const Decision& d,
                                        std::size_t n_users);

  Settings settings_;
  BeamCache cache_;
  AllocScratch alloc_scratch_;
  UnitMapScratch unit_scratch_;
  /// The previous plan's airtime per member mask, mask-sorted (groups are
  /// emitted in ascending-mask order).
  struct PlannedGroup {
    GroupMask mask = 0;
    LayerArray t{};
  };
  std::vector<PlannedGroup> prev_;
  std::uint64_t prev_pass_ = 0; ///< pass prev_ was planned on
  double prev_total_ = 0.0;     ///< airtime of the previous plan
  std::size_t prev_users_ = 0;  ///< user count of the previous plan
  std::vector<double> warm_;    ///< the remapped warm-start vector
  /// The last transmitted frame's measured rate per member mask, sorted
  /// like prev_: a group keeps its own feedback when the list shifts.
  struct MeasuredGroup {
    GroupMask mask = 0;
    Mbps rate{0.0};
  };
  std::vector<MeasuredGroup> measured_;
  std::uint64_t measured_pass_ = 0;  ///< pass measured_ was noted on
};

}  // namespace w4k::sched
