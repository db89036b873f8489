#include "sched/groups.h"

#include "channel/mcs.h"
#include "common/bits.h"
#include "gf256/gf256.h"
#include "linalg/decompose.h"
#include "obs/metrics.h"
#include "sched/hierarchy.h"
#include "sched/workspace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace w4k::sched {
namespace {

/// Filters that decide whether a subset is even beamformed. Shared with
/// BeamCache so the cache and the stateless enumerate_groups enumerate
/// exactly the same masks.
struct MaskFilter {
  GroupMask excluded_mask = 0;
  std::size_t max_group_size = 0;
  bool multicast = false;
  bool partitioned = false;
  // Per-partition member masks + each user's partition id (fixed-size
  // arrays: this filter is rebuilt per enumeration inside the
  // zero-allocation frame path).
  GroupMask part_mask[16] = {};
  std::uint8_t part_id[64] = {};

  MaskFilter(beamforming::Scheme scheme, std::size_t n,
             const GroupEnumConfig& cfg, const Membership& who)
      : max_group_size(cfg.max_group_size),
        multicast(beamforming::allows_multicast(scheme)) {
    for (std::size_t u = 0; u < who.exclude.size() && u < n; ++u)
      if (who.exclude[u]) excluded_mask |= GroupMask{1} << u;
    if (!who.partition.empty()) {
      partitioned = true;
      for (std::size_t u = 0; u < n && u < 64; ++u) {
        const std::uint8_t p =
            u < who.partition.size() ? who.partition[u] : 0;
        if (p >= 16)
          throw std::invalid_argument(
              "enumerate_groups: partition id must be < 16");
        part_id[u] = p;
        part_mask[p] |= GroupMask{1} << u;
      }
    }
  }

  bool admits(GroupMask mask) const {
    if (mask & excluded_mask) return false;  // quarantined/departed member
    const auto size = static_cast<std::size_t>(std::popcount(mask));
    if (size > max_group_size) return false;
    if (!multicast && size != 1) return false;
    if (partitioned && mask) {
      // One beam, one array: every member must share the lowest member's
      // serving AP.
      if (mask & ~part_mask[part_id[std::countr_zero(mask)]]) return false;
    }
    return true;
  }
};

bool is_singleton(const ScoredCandidate& c) {
  return std::popcount(c.mask) == 1;
}

/// Candidate priority: singletons first (the coverage floor the deadline
/// must never cut), then merges by descending bound-rate x size (airtime
/// efficiency), ties by ascending mask.
bool ranks_before(const ScoredCandidate& a, const ScoredCandidate& b) {
  if (is_singleton(a) != is_singleton(b)) return is_singleton(a);
  const double va = a.ub * std::popcount(a.mask);
  const double vb = b.ub * std::popcount(b.mask);
  if (va != vb) return va > vb;
  return a.mask < b.mask;
}

/// Bumps the sched.beamform.* counters for one subset-kernel batch (no-op
/// with telemetry disabled): power iterations run, and subsets that
/// finished on SIMD lanes rather than the scalar path.
void note_beamform(const linalg::SubsetBatchStats& stats) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& c_iterations =
      reg.counter("sched.beamform.power_iterations");
  static obs::Counter& c_lanes = reg.counter("sched.beamform.lane_subsets");
  c_iterations.add(stats.iterations);
  c_lanes.add(stats.lane_subsets);
}

/// The rate upper bound behind candidate pruning: a unit-norm beam can
/// deliver at most ||h_u||^2 mW to member u (Cauchy–Schwarz, and every
/// scheme's beam is unit norm), so the group's bottleneck rate never
/// exceeds the Table 2 rate at min over members of ||h_u||^2. Exact with
/// respect to the emission filter: rate_for_rss is monotone in RSS, so a
/// candidate pruned here could only ever have been emitted-filtered.
double rate_upper_bound(GroupMask mask, const std::vector<double>& cap_mw) {
  double cap = 1e300;
  for (std::size_t u : SetBits{mask}) cap = std::min(cap, cap_mw[u]);
  if (cap <= 0.0) return 0.0;  // dead member: no MCS, avoid log(0)
  return channel::rate_for_rss(Dbm::from_milliwatts(cap)).value;
}

}  // namespace

std::uint64_t subset_seed(std::uint64_t beam_seed, GroupMask mask) {
  // splitmix64 finalizer over (beam_seed, mask): neighbouring masks land in
  // statistically independent streams, and the value depends on nothing
  // else — not on enumeration order, filters, or other subsets.
  std::uint64_t z = beam_seed ^
                    (0x9e3779b97f4a7c15ULL * (mask + 0x632be59bd9b4e019ULL));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void plan_candidates_into(beamforming::Scheme scheme,
                          const std::vector<linalg::CVector>& channels,
                          const GroupEnumConfig& cfg, const Membership& who,
                          SchedWorkspace& ws) {
  const std::size_t n = channels.size();
  if (n == 0) throw std::invalid_argument("enumerate_groups: no users");
  if (n > 64)
    throw std::invalid_argument(
        "enumerate_groups: candidate generation limited to 64 users");

  CandidatePlan& plan = ws.plan;
  plan.masks.clear();
  plan.priority.clear();
  plan.mandatory = 0;
  plan.generated = 0;
  plan.pruned = 0;
  plan.capped = 0;

  const MaskFilter filter(scheme, n, cfg, who);
  const bool hierarchical = n > kHierarchicalThreshold;

  std::vector<GroupMask>& raw = ws.raw;
  raw.clear();
  if (!hierarchical) {
    // The exhaustive lattice, filtered in place (n <= threshold <= 16).
    const GroupMask limit = GroupMask{1} << n;
    for (GroupMask mask = 1; mask < limit; ++mask)
      if (filter.admits(mask)) raw.push_back(mask);
  } else if (!filter.multicast) {
    for (std::size_t u = 0; u < n; ++u) {
      const GroupMask mask = GroupMask{1} << u;
      if (filter.admits(mask)) raw.push_back(mask);
    }
  } else {
    // The cluster-tree generator still allocates internally; it runs only
    // past the hierarchical threshold, outside the small-N zero-alloc gate.
    ws.active.assign(n, 1);
    for (std::size_t u = 0; u < who.exclude.size() && u < n; ++u)
      if (who.exclude[u]) ws.active[u] = 0;
    raw = cluster_candidates(channels, ws.active, cfg);
    std::erase_if(raw,
                  [&](GroupMask mask) { return !filter.admits(mask); });
  }
  plan.generated = raw.size();

  // Rate-bound pruning: drop candidates the emission filter could never
  // have kept, before any beamforming is spent on them.
  ws.cap_mw.assign(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) ws.cap_mw[u] = channels[u].norm_sq();
  std::vector<ScoredCandidate>& survivors = ws.scored;
  survivors.clear();
  survivors.reserve(raw.size());
  for (GroupMask mask : raw) {
    const double ub = rate_upper_bound(mask, ws.cap_mw);
    if (ub <= 0.0 || Mbps{ub} < cfg.rate_threshold) {
      ++plan.pruned;
      continue;
    }
    survivors.push_back({mask, ub});
  }

  // The hierarchical generator additionally honors the per-frame
  // candidate budget: singletons are always kept, merges compete by
  // bound-rate x size (airtime efficiency). The exhaustive path never
  // caps — its whole point is the complete lattice.
  if (hierarchical && survivors.size() > kMaxCandidates) {
    std::stable_sort(survivors.begin(), survivors.end(), ranks_before);
    const std::size_t keep = std::max(
        kMaxCandidates,
        static_cast<std::size_t>(std::count_if(
            survivors.begin(), survivors.end(), is_singleton)));
    plan.capped = survivors.size() - keep;
    survivors.resize(keep);
  }

  std::sort(survivors.begin(), survivors.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.mask < b.mask;
            });
  plan.masks.reserve(survivors.size());
  for (const ScoredCandidate& s : survivors) plan.masks.push_back(s.mask);

  // Beamforming priority (ranks_before).
  plan.priority.resize(survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) plan.priority[i] = i;
  std::sort(plan.priority.begin(), plan.priority.end(),
            [&](std::size_t a, std::size_t b) {
              return ranks_before(survivors[a], survivors[b]);
            });
  plan.mandatory = static_cast<std::size_t>(
      std::count_if(survivors.begin(), survivors.end(), is_singleton));
}

beamforming::GroupBeam subset_beam(
    beamforming::Scheme scheme,
    const std::vector<linalg::CVector>& user_channels, GroupMask mask,
    const beamforming::Codebook& codebook, std::uint64_t beam_seed) {
  std::array<std::size_t, 64> idx;
  beamforming::GroupBeam out;
  beamforming::group_beam_into(scheme, user_channels, bit_indices(mask, idx),
                               codebook, subset_seed(beam_seed, mask), out);
  return out;
}

namespace {

/// Normalizes every user's channel once into ws.unit and builds their one
/// N x N Gram (ws.user_gram), shared by every subset of the enumeration.
/// A user with a dead (zero) channel or a channel of the wrong length gets
/// a zero row and is left out of every stack, as group_beam_into leaves it
/// out. Only kOptimizedMulticast uses them, and only with masks to beamform.
void prepare_units(beamforming::Scheme scheme,
                   const std::vector<linalg::CVector>& user_channels,
                   std::span<const GroupMask> masks, SchedWorkspace& ws) {
  if (scheme != beamforming::Scheme::kOptimizedMulticast || masks.empty())
    return;
  const std::size_t n = user_channels.size();
  const std::size_t cols = n > 0 ? user_channels[0].size() : 0;
  if (ws.unit.size() < n) ws.unit.resize(n);  // slot pool: never shrinks
  ws.usable = 0;
  ws.mixed = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const linalg::CVector& h = user_channels[u];
    const double nn = h.norm();
    if (h.size() != cols || nn <= 0.0) {
      if (h.size() != cols && nn > 0.0) ws.mixed |= GroupMask{1} << u;
      ws.unit[u].resize_zero(cols);
      continue;
    }
    ws.usable |= GroupMask{1} << u;
    // normalized() without the temporary: copy-assign into the slot
    // (capacity reused), then the same element-wise divide.
    ws.unit[u] = h;
    for (std::size_t i = 0; i < ws.unit[u].size(); ++i) ws.unit[u][i] /= nn;
  }
  linalg::row_gram_into({ws.unit.data(), n}, ws.user_gram);
}

/// Beamforms `masks` into `out` after prepare_units. Multi-member
/// kOptimizedMulticast subsets become problems of the subset-lane kernel
/// over the normalized rows; everything else (singletons, dead groups, the
/// other schemes, a member of the wrong length) routes through
/// group_beam_into unchanged.
void beamform_prepared(beamforming::Scheme scheme,
                       const std::vector<linalg::CVector>& user_channels,
                       std::span<const GroupMask> masks,
                       const beamforming::Codebook& codebook,
                       std::uint64_t beam_seed, ThreadPool* pool,
                       SchedWorkspace& ws,
                       std::span<beamforming::GroupBeam> out) {
  const std::size_t n = user_channels.size();
  const std::size_t cols = n > 0 ? user_channels[0].size() : 0;
  ws.subsets.clear();
  ws.first_subset.resize(masks.size() + 1);
  const bool lanes =
      scheme == beamforming::Scheme::kOptimizedMulticast && cols > 0;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    ws.first_subset[i] = ws.subsets.size();
    const GroupMask mask = masks[i];
    if (!lanes || std::popcount(mask) < 2 || (mask & ws.mixed) ||
        !(mask & ws.usable))
      continue;
    ws.subsets.push_back({mask & ws.usable, subset_seed(beam_seed, mask)});
  }
  ws.first_subset[masks.size()] = ws.subsets.size();
  if (ws.svd.size() < ws.subsets.size()) ws.svd.resize(ws.subsets.size());

  const bool parallel = pool != nullptr && pool->size() > 1 && masks.size() > 1;
  // Chunks big enough to fill the lanes with subsets of one size, small
  // enough to spread over the pool. Each chunk owns a scratch slot.
  const std::size_t grain =
      parallel ? std::clamp<std::size_t>(masks.size() / (4 * pool->size()),
                                         8, 64)
               : std::max<std::size_t>(masks.size(), 1);
  const std::size_t chunks = (masks.size() + grain - 1) / grain;
  if (ws.chunks.size() < chunks) ws.chunks.resize(chunks);
  const gf256::Tier tier = gf256::active_tier();
  const std::span<const linalg::CVector> rows(ws.unit.data(), n);

  const auto compute = [&](std::size_t lo, std::size_t hi) {
    BeamformChunk& chunk = ws.chunks[lo / grain];
    const std::size_t p_lo = ws.first_subset[lo];
    const std::size_t p_hi = ws.first_subset[hi];
    if (p_hi > p_lo) {
      const linalg::SubsetBatchStats stats =
          linalg::subset_dominant_right_singular_into(
              rows, ws.user_gram,
              std::span<const linalg::SubsetProblem>(ws.subsets).subspan(
                  p_lo, p_hi - p_lo),
              tier, chunk.lanes,
              std::span<linalg::DominantSVD>(ws.svd).subspan(p_lo,
                                                             p_hi - p_lo));
      note_beamform(stats);
    }
    std::array<std::size_t, 64> idx;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto members = bit_indices(masks[i], idx);
      if (ws.first_subset[i + 1] > ws.first_subset[i]) {
        beamforming::evaluate_beam_into(
            ws.svd[ws.first_subset[i]].right_singular, user_channels,
            members, out[i]);
      } else {
        beamforming::group_beam_into(scheme, user_channels, members, codebook,
                                     subset_seed(beam_seed, masks[i]),
                                     out[i]);
      }
    }
  };
  if (parallel) {
    pool->parallel_for(0, masks.size(), grain, compute);
  } else if (!masks.empty()) {
    compute(0, masks.size());
  }
}

}  // namespace

void beamform_priority_into(
    beamforming::Scheme scheme,
    const std::vector<linalg::CVector>& user_channels,
    std::span<const GroupMask> masks, std::size_t mandatory,
    const Deadline& deadline, const beamforming::Codebook& codebook,
    std::uint64_t beam_seed, ThreadPool* pool, SchedWorkspace& ws) {
  if (ws.beams.size() < masks.size())
    ws.beams.resize(masks.size());  // beam pool: never shrinks
  ws.done.assign(masks.size(), 0);
  ws.deferred = 0;

  // One set of normalized rows and one user Gram for every batch.
  prepare_units(scheme, user_channels, masks, ws);
  const auto run = [&](std::size_t lo, std::size_t hi) {
    beamform_prepared(scheme, user_channels, masks.subspan(lo, hi - lo),
                      codebook, beam_seed, pool, ws,
                      std::span<beamforming::GroupBeam>(ws.beams.data() + lo,
                                                        hi - lo));
    for (std::size_t i = lo; i < hi; ++i) ws.done[i] = 1;
  };

  // The mandatory prefix (singleton coverage) always completes, deadline
  // or not — this is what keeps every reachable user servable when the
  // clock fires on the first pass.
  std::size_t pos = std::min(mandatory, masks.size());
  if (pos > 0) run(0, pos);

  if (!deadline) {
    // No deadline: one big batch, zero clock reads (the determinism
    // contract — output is a pure function of the inputs).
    if (pos < masks.size()) run(pos, masks.size());
    pos = masks.size();
  } else {
    constexpr std::size_t kBatch = 16;
    while (pos < masks.size()) {
      if (std::chrono::steady_clock::now() >= *deadline) break;
      const std::size_t hi = std::min(pos + kBatch, masks.size());
      run(pos, hi);
      pos = hi;
    }
  }
  ws.deferred = masks.size() - pos;
}

void note_anytime(const CandidatePlan& plan, std::size_t beamformed,
                  std::size_t deferred) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& c_generated =
      reg.counter("sched.anytime.candidates_generated");
  static obs::Counter& c_pruned = reg.counter("sched.anytime.pruned_by_bound");
  static obs::Counter& c_capped =
      reg.counter("sched.anytime.capped_by_budget");
  static obs::Counter& c_beamformed = reg.counter("sched.anytime.beamformed");
  static obs::Counter& c_deferred = reg.counter("sched.anytime.deferred");
  static obs::Counter& c_deadline = reg.counter("sched.anytime.deadline_hits");
  c_generated.add(plan.generated);
  c_pruned.add(plan.pruned);
  c_capped.add(plan.capped);
  c_beamformed.add(beamformed);
  c_deferred.add(deferred);
  if (deferred > 0) c_deadline.add(1);
}

void emit_groups(Mbps rate_threshold, double rate_scale, SchedWorkspace& ws,
                 std::vector<GroupSpec>& out) {
  // Drop what cannot sustain any MCS or falls below the threshold; a
  // nullptr is a subset deferred past the deadline.
  std::size_t count = 0;
  for (const beamforming::GroupBeam*& beam : ws.by_index) {
    if (beam != nullptr &&
        (beam->rate.value <= 0.0 || beam->rate < rate_threshold))
      beam = nullptr;
    count += beam != nullptr ? 1 : 0;
  }
  resize_recycled(out, count, ws.spare_groups);
  for (std::size_t i = 0, g = 0; i < ws.by_index.size(); ++i) {
    if (ws.by_index[i] == nullptr) continue;
    GroupSpec& spec = out[g++];
    spec.mask = ws.plan.masks[i];
    spec.beam = *ws.by_index[i];  // copy-assign: beam capacity reused
    spec.beam.rate = Mbps{spec.beam.rate.value * rate_scale};
  }
}

GroupMask changed_rows(const std::vector<linalg::CVector>& now,
                       const std::vector<linalg::CVector>& kept) {
  GroupMask changed = 0;
  for (std::size_t u = 0; u < now.size(); ++u) {
    const linalg::CVector& a = now[u];
    const linalg::CVector& b = kept[u];
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) same = a[i] == b[i];
    if (!same) changed |= GroupMask{1} << u;
  }
  return changed;
}

std::span<const GroupSpec> enumerate_groups(
    beamforming::Scheme scheme,
    const std::vector<linalg::CVector>& user_channels,
    const beamforming::Codebook& codebook, std::uint64_t beam_seed,
    const GroupEnumConfig& cfg, ThreadPool* pool, SchedWorkspace& ws,
    const Membership& who, const Deadline& deadline) {
  plan_candidates_into(scheme, user_channels, cfg, who, ws);
  const CandidatePlan& plan = ws.plan;

  // Beamform in priority order (so a deadline defers only the least
  // valuable merges), then emit in ascending mask order as always.
  ws.ordered.clear();
  for (std::size_t j = 0; j < plan.priority.size(); ++j)
    ws.ordered.push_back(plan.masks[plan.priority[j]]);
  beamform_priority_into(scheme, user_channels, ws.ordered, plan.mandatory,
                         deadline, codebook, beam_seed, pool, ws);
  ws.by_index.assign(plan.masks.size(), nullptr);
  for (std::size_t j = 0; j < plan.priority.size(); ++j)
    if (ws.done[j]) ws.by_index[plan.priority[j]] = &ws.beams[j];
  note_anytime(plan, ws.ordered.size() - ws.deferred, ws.deferred);
  emit_groups(cfg.rate_threshold, 1.0, ws, ws.groups);
  return ws.groups;
}

}  // namespace w4k::sched
