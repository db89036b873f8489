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

void BeamCache::enumerate_into(const std::vector<linalg::CVector>& channels,
                               const beamforming::Codebook& codebook,
                               const GroupEnumConfig& cfg,
                               const Membership& who, const Deadline& deadline,
                               ThreadPool* pool, SchedWorkspace& ws,
                               std::vector<GroupSpec>& out) {
  const std::size_t n = channels.size();
  plan_candidates_into(scheme_, channels, cfg, who, ws);  // throws n 0 or >64
  const CandidatePlan& plan = ws.plan;

  // --- Dirty tracking --------------------------------------------------
  if (channels_.size() != n) {
    // Churn: member bitmasks now index a different user set, so every
    // cached beam is meaningless. (Not a steady-state event — the flat
    // storage is rebuilt from scratch.)
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
  ws.ordered.clear();
  std::size_t miss_mandatory = 0;
  for (std::size_t j = 0; j < plan.priority.size(); ++j) {
    const GroupMask mask = plan.masks[plan.priority[j]];
    const Entry* e = find_mask(entries_, mask);
    if (e != nullptr && e->valid) continue;
    ws.ordered.push_back(mask);
    if (j < plan.mandatory) ++miss_mandatory;
  }

  beamform_priority_into(scheme_, channels, ws.ordered, miss_mandatory,
                         deadline, codebook, beam_seed_, pool, ws);
  std::size_t computed = 0;
  for (std::size_t i = 0; i < ws.ordered.size(); ++i) {
    if (!ws.done[i]) continue;
    Entry* e = find_mask(entries_, ws.ordered[i]);
    if (e == nullptr) {
      // First sighting of this mask: grow the sorted store (warmup /
      // plan-change only). The moves behind insert never allocate.
      const auto it = std::lower_bound(
          entries_.begin(), entries_.end(), ws.ordered[i],
          [](const Entry& x, GroupMask m) { return x.mask < m; });
      e = &*entries_.insert(it, Entry{});
      e->mask = ws.ordered[i];
    }
    e->beam = ws.beams[i];  // copy-assign: slot capacity reused
    e->valid = true;
    ++computed;
  }

  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& c_hit = reg.counter("sched.beam_cache.hit");
    static obs::Counter& c_miss = reg.counter("sched.beam_cache.miss");
    c_hit.add(plan.masks.size() - ws.ordered.size());
    c_miss.add(computed);
  }
  note_anytime(plan, computed, ws.deferred);

  // --- Emit in ascending mask order with the rate filters --------------
  // A subset deferred past the deadline is simply absent this frame; it
  // stays a cache miss and becomes a candidate again next frame.
  ws.by_index.resize(plan.masks.size());
  for (std::size_t i = 0; i < plan.masks.size(); ++i) {
    const Entry* e = find_mask(entries_, plan.masks[i]);
    ws.by_index[i] = e != nullptr && e->valid ? &e->beam : nullptr;
  }
  emit_groups(cfg.rate_threshold, ws, out);
}

}  // namespace w4k::sched
