// Per-subset beam cache with dirty-set invalidation — the scheduler fast
// path's first stage (see DESIGN.md Sec. 4e).
//
// The paper's scheduler re-enumerates all 2^N user subsets every frame,
// but between consecutive frames most users' CSI is unchanged (static
// users, or the 3 video frames sharing one 100 ms beacon), so most
// subsets' beams are unchanged too. The cache keys each computed
// beamforming::GroupBeam by its member bitmask and, on every call,
// recomputes only the subsets that contain a *dirty* user — one whose
// channel vector differs from the cached copy. Because each subset's beam
// is a pure function of (scheme, member channels, codebook, beam_seed)
// (see sched::subset_seed), a cache hit is bit-identical to a fresh
// computation, and cache misses can be beamformed in parallel on the
// shared ThreadPool without changing a single bit of output.
//
// Filter knobs (rate_threshold / max_group_size / Membership) only gate which
// subsets are *requested* and which results are *emitted*; cached entries
// outlive filter changes, so quarantining a user or tightening the
// threshold never costs a recompute when the filter relaxes again.
//
// Storage is a flat vector of entries sorted by mask. Invalidation flips a
// valid flag instead of erasing, and recomputed beams are copy-assigned
// into their old slots, so in steady state (stable user count and
// candidate plan) the cache performs zero heap allocations per frame —
// including the mobile scenario's every-3-frames beacon recompute.
#pragma once

#include "sched/groups.h"

#include <cstdint>
#include <vector>

namespace w4k::sched {

class BeamCache {
 public:
  BeamCache(beamforming::Scheme scheme, std::uint64_t beam_seed)
      : scheme_(scheme), beam_seed_(beam_seed) {}

  /// Enumerates candidate groups into `out` exactly like the stateless
  /// enumerate_groups(scheme, channels, codebook, beam_seed, cfg, pool, ws,
  /// who, deadline) — bit-identical output, asserted by the property suite
  /// — but reuses cached beams for every subset whose members' channels
  /// are unchanged since the previous call. `pool` (optional) parallelizes
  /// the misses, beamformed in the plan's priority order so a `deadline`
  /// defers only the least valuable merge subsets. Bumps the
  /// sched.beam_cache.hit/miss and sched.anytime.* counters.
  void enumerate_into(const std::vector<linalg::CVector>& channels,
                      const beamforming::Codebook& codebook,
                      const GroupEnumConfig& cfg, const Membership& who,
                      const Deadline& deadline, ThreadPool* pool,
                      SchedWorkspace& ws, std::vector<GroupSpec>& out);

  /// Drops every cached beam and the remembered channels (session reset).
  void clear();

 private:
  /// One cached subset. Invalidated entries keep their slot (and their
  /// beam's buffer capacity) so a later recompute of the same mask is a
  /// pure copy-assign.
  struct Entry {
    GroupMask mask = 0;
    beamforming::GroupBeam beam;
    bool valid = false;
  };

  beamforming::Scheme scheme_;
  std::uint64_t beam_seed_;
  std::vector<linalg::CVector> channels_;  ///< channels at last enumerate
  std::vector<Entry> entries_;             ///< sorted by mask
};

}  // namespace w4k::sched
