#include "sched/beam_cache.h"

#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <limits>

namespace w4k::sched {
namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// The last pass id handed out by any cache.
std::atomic<std::uint64_t> last_pass{0};

/// Bumps the sched.beam_cache.* counters for one pass (no-op with
/// telemetry disabled).
void note_cache(std::size_t hits, std::size_t misses, bool reused) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& c_hit = reg.counter("sched.beam_cache.hit");
  static obs::Counter& c_miss = reg.counter("sched.beam_cache.miss");
  static obs::Counter& c_reused = reg.counter("sched.beam_cache.reused");
  c_hit.add(hits);
  c_miss.add(misses);
  if (reused) c_reused.add(1);
}

}  // namespace

void BeamCache::clear() {
  entries_.clear();
  channels_.clear();
  reusable_ = false;
}

bool BeamCache::same_filter(const GroupEnumConfig& cfg,
                            const Membership& who) const {
  return cfg.rate_threshold == cfg_.rate_threshold &&
         cfg.max_group_size == cfg_.max_group_size &&
         std::ranges::equal(who.exclude, exclude_) &&
         std::ranges::equal(who.partition, partition_);
}

std::uint64_t BeamCache::enumerate_into(
    const std::vector<linalg::CVector>& channels,
    const beamforming::Codebook& codebook, const GroupEnumConfig& cfg,
    const Membership& who, const Deadline& deadline, ThreadPool* pool,
    std::vector<GroupSpec>& out, std::uint64_t held) {
  const CandidatePlan& plan = ws_.plan;

  // --- Dirty tracking --------------------------------------------------
  // channels_ only ever holds a user set that plan_candidates_into
  // accepted (1..64 users), so an equal count keeps the shifts in range.
  const std::size_t n = channels.size();
  const bool same_users = n > 0 && n == channels_.size();
  const GroupMask dirty = same_users ? changed_rows(channels, channels_) : 0;

  // --- Reuse -------------------------------------------------------------
  // The plan is a pure function of (channels, cfg, who), and the last pass
  // left a valid beam for every plan mask, so ws_'s plan and beam pointers
  // are exactly what a full pass would rebuild. emit_groups' rate filter is
  // idempotent on by_index; an output that holds this pass already would
  // get back what it has.
  if (reusable_ && same_users && dirty == 0 && same_filter(cfg, who)) {
    note_cache(plan.masks.size(), 0, true);
    note_anytime(plan, 0, 0);
    if (held != pass_) emit_groups(cfg.rate_threshold, rate_scale_, ws_, out);
    return pass_;
  }
  reusable_ = false;

  plan_candidates_into(scheme_, channels, cfg, who, ws_);  // throws n 0 or >64
  if (!same_users) {
    // Churn: member bitmasks now index a different user set, so every
    // cached beam is meaningless. (Not a steady-state event — the flat
    // storage is rebuilt from scratch.)
    entries_.clear();
  } else if (dirty != 0) {
    for (Entry& e : entries_)
      if (e.mask & dirty) e.valid = false;
  }
  channels_ = channels;  // element-wise copy-assign: capacities reused

  // --- Compute the misses (deterministic, parallelizable) --------------
  // Walking the plan's priority order keeps all mandatory (singleton)
  // misses at the front, so the deadline only ever defers merge subsets.
  ws_.ordered.clear();
  slots_.clear();
  std::size_t miss_mandatory = 0;
  std::size_t unseen = 0;
  for (std::size_t j = 0; j < plan.priority.size(); ++j) {
    const GroupMask mask = plan.masks[plan.priority[j]];
    const Entry* e = find_mask(entries_, mask);
    if (e != nullptr && e->valid) continue;
    ws_.ordered.push_back(mask);
    slots_.push_back(e != nullptr ? static_cast<std::size_t>(e - entries_.data())
                                  : kNoSlot);
    unseen += e == nullptr ? 1 : 0;
    if (j < plan.mandatory) ++miss_mandatory;
  }

  beamform_priority_into(scheme_, channels, ws_.ordered, miss_mandatory,
                         deadline, codebook, beam_seed_, pool, ws_);

  // Recomputed beams go into their old slots; first sightings (warmup,
  // plan change) are appended in priority order, then sorted and merged
  // into the store once, after one reserve sized from the plan.
  const std::size_t stored = entries_.size();
  if (entries_.capacity() < stored + unseen)
    entries_.reserve(std::max(stored + unseen, plan.generated));
  std::size_t computed = 0;
  for (std::size_t i = 0; i < ws_.ordered.size(); ++i) {
    if (!ws_.done[i]) continue;
    Entry& e = slots_[i] == kNoSlot ? entries_.emplace_back()
                                    : entries_[slots_[i]];
    e.mask = ws_.ordered[i];
    e.beam = ws_.beams[i];  // copy-assign: slot capacity reused
    e.valid = true;
    ++computed;
  }
  if (entries_.size() > stored) {
    const auto by_mask = [](const Entry& a, const Entry& b) {
      return a.mask < b.mask;
    };
    const auto mid = entries_.begin() + static_cast<std::ptrdiff_t>(stored);
    std::sort(mid, entries_.end(), by_mask);
    std::inplace_merge(entries_.begin(), mid, entries_.end(), by_mask);
  }

  note_cache(plan.masks.size() - ws_.ordered.size(), computed, false);
  note_anytime(plan, computed, ws_.deferred);

  // --- Emit in ascending mask order with the rate filters --------------
  // A subset deferred past the deadline is simply absent this frame; it
  // stays a cache miss and becomes a candidate again next frame.
  ws_.by_index.resize(plan.masks.size());
  for (std::size_t i = 0; i < plan.masks.size(); ++i) {
    const Entry* e = find_mask(entries_, plan.masks[i]);
    ws_.by_index[i] = e != nullptr && e->valid ? &e->beam : nullptr;
  }
  emit_groups(cfg.rate_threshold, rate_scale_, ws_, out);

  cfg_ = cfg;
  exclude_.assign(who.exclude.begin(), who.exclude.end());
  partition_.assign(who.partition.begin(), who.partition.end());
  pass_ = last_pass.fetch_add(1, std::memory_order_relaxed) + 1;
  reusable_ = ws_.deferred == 0;
  return pass_;
}

}  // namespace w4k::sched
