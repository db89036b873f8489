#include "sched/beam_cache.h"

#include "obs/metrics.h"
#include "sched/workspace.h"

#include <algorithm>

namespace w4k::sched {
namespace {

bool same_channel(const linalg::CVector& a, const linalg::CVector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

}  // namespace

void BeamCache::clear() {
  entries_.clear();
  channels_.clear();
}

std::size_t BeamCache::size() const {
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (e.valid) ++n;
  return n;
}

BeamCache::Entry* BeamCache::find(GroupMask mask) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), mask,
      [](const Entry& e, GroupMask m) { return e.mask < m; });
  if (it == entries_.end() || it->mask != mask) return nullptr;
  return &*it;
}

std::span<const GroupSpec> BeamCache::enumerate_into(
    const std::vector<linalg::CVector>& channels,
    const beamforming::Codebook& codebook, const GroupEnumConfig& cfg,
    ThreadPool* pool, SchedWorkspace& ws) {
  const std::size_t n = channels.size();
  plan_candidates_into(scheme_, channels, cfg, ws);  // throws n == 0 / n > 64
  const CandidatePlan& plan = ws.plan;

  // --- Dirty tracking --------------------------------------------------
  if (channels_.size() != n) {
    // Churn: member bitmasks now index a different user set, so every
    // cached beam is meaningless. (Not a steady-state event — the flat
    // storage is rebuilt from scratch.)
    if (size() > 0) ++stats_.invalidations;
    entries_.clear();
  } else {
    GroupMask dirty = 0;
    for (std::size_t u = 0; u < n; ++u)
      if (!same_channel(channels[u], channels_[u])) dirty |= GroupMask{1} << u;
    if (dirty != 0)
      for (Entry& e : entries_)
        if (e.mask & dirty) e.valid = false;
  }
  channels_ = channels;  // element-wise copy-assign: capacities reused

  // --- Compute the misses (deterministic, parallelizable) --------------
  // Walking the plan's priority order keeps all mandatory (singleton)
  // misses at the front, so the deadline only ever defers merge subsets.
  ws.miss_masks.clear();
  std::size_t miss_mandatory = 0;
  for (std::size_t j = 0; j < plan.priority.size(); ++j) {
    const GroupMask mask = plan.masks[plan.priority[j]];
    const Entry* e = find(mask);
    if (e != nullptr && e->valid) continue;
    ws.miss_masks.push_back(mask);
    if (j < plan.mandatory) ++miss_mandatory;
  }

  beamform_priority_into(scheme_, channels, ws.miss_masks, miss_mandatory,
                         cfg.deadline, codebook, beam_seed_, pool, ws);
  std::size_t computed = 0;
  for (std::size_t i = 0; i < ws.miss_masks.size(); ++i) {
    if (!ws.done[i]) continue;
    Entry* e = find(ws.miss_masks[i]);
    if (e == nullptr) {
      // First sighting of this mask: grow the sorted store (warmup /
      // plan-change only). The moves behind insert never allocate.
      const auto it = std::lower_bound(
          entries_.begin(), entries_.end(), ws.miss_masks[i],
          [](const Entry& x, GroupMask m) { return x.mask < m; });
      e = &*entries_.insert(it, Entry{});
      e->mask = ws.miss_masks[i];
    }
    e->beam = ws.beams[i];  // copy-assign: slot capacity reused
    e->valid = true;
    ++computed;
  }

  const std::uint64_t hits = plan.masks.size() - ws.miss_masks.size();
  stats_.hits += hits;
  stats_.misses += computed;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& c_hit = reg.counter("sched.beam_cache.hit");
    static obs::Counter& c_miss = reg.counter("sched.beam_cache.miss");
    c_hit.add(hits);
    c_miss.add(computed);
  }
  note_anytime(plan, computed, ws.deferred);

  // --- Emit in ascending mask order with the rate filters --------------
  // A subset deferred past the deadline is simply absent this frame; it
  // stays a cache miss and becomes a candidate again next frame.
  ws.group_count = 0;
  for (GroupMask mask : plan.masks) {
    const Entry* e = find(mask);
    if (e == nullptr || !e->valid) continue;
    const beamforming::GroupBeam& beam = e->beam;
    if (beam.rate.value <= 0.0) continue;  // cannot sustain any MCS
    if (beam.rate < cfg.rate_threshold) continue;
    if (ws.group_count == ws.groups.size()) ws.groups.emplace_back();
    GroupSpec& g = ws.groups[ws.group_count++];  // pool slot: capacity reused
    g.members.clear();
    for (std::size_t u = 0; u < n; ++u)
      if (mask & (GroupMask{1} << u)) g.members.push_back(u);
    g.beam = beam;
  }
  return ws.emitted();
}

}  // namespace w4k::sched
