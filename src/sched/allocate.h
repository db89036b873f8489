// Time allocation across multicast groups and layers (Eq. 1, Sec. 2.4).
//
//   max_T  sum_i Q(D_i1..D_i4) - lambda * sum_ij D_ij
//   s.t.   D_ij = sum_{G : i in G} T_Gj * R_G,    sum_Gj T_Gj <= 1/FR
//
// Q is the trained DNN quality model; its analytic input gradient turns
// the problem into projected gradient ascent over the scaled simplex
// {T >= 0, sum T <= budget}. The round-robin baseline of Sec. 4.2.2 is
// provided for the Fig. 8/15 comparisons.
#pragma once

#include "model/quality_model.h"
#include "sched/groups.h"
#include "video/layered.h"

#include <array>
#include <memory>
#include <span>
#include <vector>

namespace w4k::sched {

using LayerArray = std::array<double, video::kNumLayers>;

/// Per-frame inputs shared by all users (multicast streams one video).
struct FrameContent {
  LayerArray layer_bytes{};     ///< encoded size of each layer
  LayerArray up_to_layer_ssim{};///< content features for the quality model
  double blank_ssim = 0.0;
};

/// Eq. 1's traffic penalty lambda, per transmitted byte: small enough to
/// act only as a tie-break between plans of equal predicted quality.
inline constexpr double kTrafficPenalty = 1e-8;

struct AllocProblem {
  /// Candidate groups. A view, not storage: typically the span a
  /// SchedWorkspace enumeration returned (a std::vector<GroupSpec>
  /// converts implicitly). Must outlive every optimizer call that reads
  /// the problem.
  std::span<const GroupSpec> groups;
  std::size_t n_users = 0;
  FrameContent content;
  Seconds time_budget = kFrameBudget;
  double lambda = kTrafficPenalty;  ///< traffic penalty per byte
  /// Anytime cutoff of optimize_allocation_into: past it, refinement stops
  /// and later cold starts are skipped; the best plan so far is returned,
  /// coverage-repaired so every group-served user keeps positive airtime.
  Deadline deadline;
};

/// The optimizer's output plan. The three per-(group|user) tables —
/// time[g][j], bytes[g][j] = time * R_g, and per-user delivered bytes —
/// share one flat LayerArray store laid out [time rows | bytes rows |
/// user_bytes rows], accessed through the row methods below. reset()
/// reshapes the store in place (std::vector::assign), so a caller that
/// keeps one Allocation across frames reuses its capacity: the steady
/// state allocates nothing.
class Allocation {
 public:
  /// Reshapes for `n_groups` groups and `n_users` users, zero-filled.
  void reset(std::size_t n_groups, std::size_t n_users) {
    n_groups_ = n_groups;
    n_users_ = n_users;
    store_.assign(2 * n_groups + n_users, LayerArray{});
    predicted_ssim.clear();
    objective = 0.0;
    iterations = 0;
  }

  std::size_t group_count() const { return n_groups_; }
  std::size_t user_count() const { return n_users_; }

  /// time(g)[j]: seconds allotted to group g for layer j.
  LayerArray& time(std::size_t g) { return store_[g]; }
  const LayerArray& time(std::size_t g) const { return store_[g]; }
  /// bytes(g)[j] = time(g)[j] * R_g — what the packet scheduler consumes.
  LayerArray& bytes(std::size_t g) { return store_[n_groups_ + g]; }
  const LayerArray& bytes(std::size_t g) const {
    return store_[n_groups_ + g];
  }
  /// Per-user delivered bytes per layer (includes cross-group overlap).
  LayerArray& user_bytes(std::size_t u) {
    return store_[2 * n_groups_ + u];
  }
  const LayerArray& user_bytes(std::size_t u) const {
    return store_[2 * n_groups_ + u];
  }

  /// Whole-table views for consumers that iterate rows (unit mapping,
  /// report writers, tests).
  std::span<const LayerArray> time_rows() const {
    return {store_.data(), n_groups_};
  }
  std::span<const LayerArray> bytes_rows() const {
    return {store_.data() + n_groups_, n_groups_};
  }

  /// Per-user quality predicted by the model at this allocation.
  std::vector<double> predicted_ssim;
  double objective = 0.0;
  int iterations = 0;

 private:
  std::vector<LayerArray> store_;  ///< [time G | bytes G | user_bytes U]
  std::size_t n_groups_ = 0;
  std::size_t n_users_ = 0;
};

struct OptimizerConfig {
  int max_iterations = 300;
  double initial_step = 2e-3;  ///< seconds of reallocation per step
  double min_step = 1e-6;
};

/// Working memory of optimize_allocation_into and
/// round_robin_allocation_into: never-shrinking buffers, created on first
/// use, that make a warm call allocation-free. One per frame loop.
class AllocScratch {
 public:
  AllocScratch();
  ~AllocScratch();
  AllocScratch(AllocScratch&&) noexcept;
  AllocScratch& operator=(AllocScratch&&) noexcept;

  struct Buffers;  // sched/allocate.cpp
  Buffers& buffers();

 private:
  std::unique_ptr<Buffers> buffers_;
};

/// Projected-gradient optimizer for Eq. 1, writing into a caller-owned
/// Allocation (its store and predicted_ssim reuse their capacity).
/// Throws std::invalid_argument when there are no groups or users, more
/// than 64 users, or a group mask names a user >= n_users.
///
/// `warm_start` (optional) is a flattened time vector (g-major,
/// layer-minor, matching problem.groups) — typically the previous frame's
/// allocation remapped onto the surviving group set. When provided and
/// usable (right size, finite, non-empty after projection onto the budget
/// simplex), the optimizer refines it directly and, if the refined result
/// at least matches the evaluated round-robin cold init, returns it
/// without running the multi-start — the scheduler fast path that makes
/// per-frame re-optimization real-time. Otherwise the warm result is
/// discarded and the full cold multi-start runs from its own four seeds.
/// Every path keeps its working state in `scratch`: zero heap allocations
/// in steady state.
/// Counters: sched.warm_start.{hits,fallbacks,iters_saved}.
void optimize_allocation_into(
    const AllocProblem& problem, model::QualityModel& quality,
    AllocScratch& scratch, Allocation& out, const OptimizerConfig& cfg = {},
    const std::vector<double>* warm_start = nullptr);

/// Round-robin baseline: 1 ms slots rotate over all candidate groups; each
/// slot's bytes go to the lowest layer that group's members still miss.
/// The final partial slot is sized to land exactly on the budget: the
/// summed time plan never exceeds `problem.time_budget` and drops at most
/// 1e-12 s of it. Throws std::invalid_argument for slot <= 0 or non-finite,
/// and on the group-mask contract of optimize_allocation_into.
void round_robin_allocation_into(const AllocProblem& problem,
                                 model::QualityModel& quality,
                                 AllocScratch& scratch, Allocation& out,
                                 Seconds slot = 1e-3);

/// Euclidean projection of `t` onto {t >= 0, sum t <= budget}; exposed for
/// tests. Operates in place. Non-finite entries are reported through the
/// W4K_CHECK_INVARIANTS policy (throw by default) and sanitized so the
/// projection cannot silently corrupt the allocation: NaN/-inf collapse to
/// 0, +inf claims the whole budget. A budget <= 0 (or non-finite) zeroes
/// the vector — the only feasible point. `sorted` is scratch (its capacity
/// is reused).
void project_to_simplex(std::vector<double>& t, double budget,
                        std::vector<double>& sorted);

}  // namespace w4k::sched
