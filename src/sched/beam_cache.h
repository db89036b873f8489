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
// A call whose inputs equal the last pass's — no dirty user, the same
// filter knobs and Membership, and no subset deferred by the last pass's
// deadline — has the same candidate plan and an all-hit lookup, so it
// reuses the plan and beam pointers the cache kept (the two non-beacon
// frames of every beacon period). Every full pass takes a fresh pass id,
// unique across caches, and a reused pass keeps it; a reused pass emits
// nothing into an output that already holds that id's emission, and
// re-emits into any other. The cache owns its SchedWorkspace, so that
// reuse rests on nothing a caller can swap out.
//
// Storage is a flat vector of entries sorted by mask. Invalidation flips a
// valid flag instead of erasing, and recomputed beams are copy-assigned
// into their old slots, so once the store holds every mask the plans ask
// for, a frame (beacon or not) performs zero heap allocations. A mask
// seen for the first time — frame 0, or a bound-pruned subset that clears
// the bound as a walker moves — still allocates its entry and beam; first
// sightings are appended and merged into the sorted store once per call.
#pragma once

#include "sched/workspace.h"

#include <cstdint>
#include <vector>

namespace w4k::sched {

class BeamCache {
 public:
  /// `rate_scale` multiplies every emitted group's rate (emit_groups).
  BeamCache(beamforming::Scheme scheme, std::uint64_t beam_seed,
            double rate_scale = 1.0)
      : scheme_(scheme), beam_seed_(beam_seed), rate_scale_(rate_scale) {}

  /// Enumerates candidate groups into `out` exactly like the stateless
  /// enumerate_groups(scheme, channels, codebook, beam_seed, cfg, pool, ws,
  /// who, deadline) — bit-identical output up to the rate scale, asserted
  /// by the property suite — but reuses cached beams for every subset
  /// whose members' channels are unchanged since the previous call, and
  /// the whole last pass when nothing it depends on changed. `codebook`
  /// must be the same on every call (beams are cached across calls).
  /// `pool` (optional) parallelizes the misses, beamformed in the plan's
  /// priority order so a `deadline` defers only the least valuable merge
  /// subsets. Bumps the sched.beam_cache.hit/miss/reused and
  /// sched.anytime.* counters; hit, miss and anytime read the same on a
  /// reused pass as on a full one.
  ///
  /// Returns the id of the pass whose emission `out` now holds: never 0,
  /// fresh for every full pass and unique across caches, kept by a reused
  /// pass. `held` is the id `out` already holds (0: none); a reused pass
  /// with that id leaves `out` untouched.
  std::uint64_t enumerate_into(const std::vector<linalg::CVector>& channels,
                               const beamforming::Codebook& codebook,
                               const GroupEnumConfig& cfg,
                               const Membership& who, const Deadline& deadline,
                               ThreadPool* pool, std::vector<GroupSpec>& out,
                               std::uint64_t held = 0);

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

  /// True when `cfg` and `who` equal the filter inputs of the last pass.
  bool same_filter(const GroupEnumConfig& cfg, const Membership& who) const;

  beamforming::Scheme scheme_;
  std::uint64_t beam_seed_;
  double rate_scale_;
  std::vector<linalg::CVector> channels_;  ///< channels at last enumerate
  std::vector<Entry> entries_;             ///< sorted by mask
  /// Enumeration scratch; after a pass its plan and by_index describe
  /// that pass (by_index points into entries_).
  SchedWorkspace ws_;
  /// Per ws_.ordered mask, its slot in entries_ before this pass's first
  /// sightings are merged in (kNoSlot: first sighting).
  std::vector<std::size_t> slots_;
  /// The last pass's filter inputs, and whether ws_ may be re-emitted:
  /// false before any pass, after clear(), after a pass that deferred a
  /// subset, and while a pass is in flight (an exception leaves it false).
  GroupEnumConfig cfg_;
  std::vector<std::uint8_t> exclude_, partition_;
  bool reusable_ = false;
  std::uint64_t pass_ = 0;  ///< id of the last full pass (0: none yet)
};

}  // namespace w4k::sched
