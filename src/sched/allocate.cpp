#include "sched/allocate.h"

#include "common/bits.h"
#include "obs/span.h"
#include "verify/invariants.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

// Every working set of the solvers lives in the caller's AllocScratch
// (never-shrinking buffers): after a few warmup frames every
// evaluate/gradient/refine pass reuses capacity and the whole
// optimization performs zero heap allocations. The solvers run on the
// caller's thread, never on the ThreadPool.

namespace w4k::sched {
namespace {

constexpr std::size_t kLayers = video::kNumLayers;
constexpr std::size_t kNoGroup = ~std::size_t{0};

struct Eval {
  double objective = 0.0;
  std::vector<LayerArray> user_bytes;
  std::vector<double> ssim;
};

/// Per-(user, layer) binding group: the group whose budget is the largest
/// of the user's groups in that layer (kNoGroup when none sends bytes).
using BindingGroups = std::vector<std::array<std::size_t, kLayers>>;

/// Residual worth of non-binding (overlapping) bytes: they mostly repeat
/// the binding group's prefix, but the extras do recover losses and top up
/// units, so they are not worthless. effective = (1-k)*max + k*sum.
inline constexpr double kOverlapValue = 0.25;

/// Lookup tables built once per optimizer call and shared by everything
/// it evaluates (the warm refine, the round-robin floor and all eight cold
/// phases): each group's rate in bytes/s and each layer's cap.
struct Tables {
  std::vector<double> rate;             ///< R_g in bytes/s
  LayerArray cap{};                     ///< max(1, layer bytes)
};

void build_tables(const AllocProblem& p, Tables& tb) {
  tb.rate.resize(p.groups.size());
  for (std::size_t g = 0; g < p.groups.size(); ++g)
    tb.rate[g] = p.groups[g].beam.rate.value * 1e6 / 8.0;
  for (std::size_t j = 0; j < kLayers; ++j)
    tb.cap[j] = std::max(1.0, p.content.layer_bytes[j]);
}

/// The support of t: its nonzero coordinates, ascending. A zero coordinate
/// sends no bytes, and adding its +0.0 to a sum changes nothing, so every
/// sum below walks only the support and still adds exactly the terms a
/// walk over all coordinates adds, in the same order.
void support_into(const std::vector<double>& t,
                  std::vector<std::size_t>& support) {
  support.clear();
  for (std::size_t i = 0; i < t.size(); ++i)
    if (t[i] != 0.0) support.push_back(i);
}

/// Effective D_{u,j} for a flattened allocation t (g-major, layer-minor).
///
/// Eq. 1 writes D as the *sum* over a user's groups, but the Eq. 4 greedy
/// makes every group spend its layer budget walking the same coding-unit
/// prefix (each tops up its own deficient members), so a user belonging
/// to several groups decodes the *longest* prefix any of them paid for —
/// the max, not the sum. Using the sum would let the optimizer buy
/// quality with phantom redundant bytes; the max matches what the packet
/// scheduler actually delivers. `binding` receives the group whose budget
/// is the binding one (the first to reach the max).
///
/// The walk visits u's loaded groups in ascending order (the support is
/// sorted), so the adds happen in the same order whether one cell or the
/// whole table is being computed: a cell recomputed alone is bit-identical
/// to a full recompute.
double effective_bytes(const AllocProblem& p, const Tables& tb,
                       const std::vector<double>& t,
                       std::span<const std::size_t> support, std::size_t u,
                       std::size_t j, std::size_t& binding) {
  double max_d = 0.0;
  double sum_d = 0.0;
  binding = kNoGroup;
  for (std::size_t i : support) {
    if (i % kLayers != j) continue;
    const std::size_t g = i / kLayers;
    if (!p.groups[g].contains(u)) continue;
    const double bytes = t[i] * tb.rate[g];
    if (bytes <= 0.0) continue;
    sum_d += bytes;
    if (bytes > max_d) {
      max_d = bytes;
      binding = g;
    }
  }
  return (1.0 - kOverlapValue) * max_d + kOverlapValue * sum_d;
}

LayerArray fractions(const Tables& tb, const LayerArray& d) {
  LayerArray f;
  for (std::size_t j = 0; j < kLayers; ++j)
    f[j] = std::min(1.0, d[j] / tb.cap[j]);
  return f;
}

model::Features features_for(const AllocProblem& p,
                             const LayerArray& fraction) {
  model::Features f;
  f.fraction = fraction;
  f.up_to_layer = p.content.up_to_layer_ssim;
  f.blank = p.content.blank_ssim;
  return f;
}

/// Transmitted bytes, summed in g-major order. Penalize *transmitted*
/// traffic: with max-based effective reception, penalizing received bytes
/// would make redundant transmissions free.
double traffic(const Tables& tb, const std::vector<double>& t,
               std::span<const std::size_t> support) {
  double sum = 0.0;
  for (std::size_t i : support) sum += t[i] * tb.rate[i / kLayers];
  return sum;
}

/// Full evaluation of t: every user's effective bytes and predicted SSIM,
/// and the objective sum_u Q_u - lambda * traffic.
void evaluate_into(const AllocProblem& p, const Tables& tb,
                   model::QualityModel& q, const std::vector<double>& t,
                   Eval& e, std::vector<std::size_t>& support) {
  support_into(t, support);
  e.user_bytes.resize(p.n_users);
  e.ssim.resize(p.n_users);
  double quality = 0.0;
  for (std::size_t u = 0; u < p.n_users; ++u) {
    std::size_t binding = kNoGroup;
    for (std::size_t j = 0; j < kLayers; ++j)
      e.user_bytes[u][j] = effective_bytes(p, tb, t, support, u, j, binding);
    e.ssim[u] = q.predict(features_for(p, fractions(tb, e.user_bytes[u])));
    quality += e.ssim[u];
  }
  e.objective = quality - p.lambda * traffic(tb, t, support);
}

bool same_bits(const LayerArray& a, const LayerArray& b) {
  return std::memcmp(a.data(), b.data(), sizeof a) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void project_to_simplex(std::vector<double>& t, double budget,
                        std::vector<double>& sorted) {
  // A NaN-poisoned gradient step must not flow through the sort/accumulate
  // below (NaN breaks the strict-weak ordering and poisons the pivot
  // search): report per policy, then sanitize. NaN and -inf carry no
  // usable demand (0); +inf wants everything it can get (the budget).
  for (auto& x : t) {
    if (std::isfinite(x)) continue;
    const double bad = x;
    verify::check(false, "sched.simplex-nonfinite", [&] {
      return "project_to_simplex: non-finite entry " + std::to_string(bad);
    });
    x = (bad > 0.0 && std::isfinite(budget) && budget > 0.0) ? budget : 0.0;
  }
  if (!(budget > 0.0)) {
    // {t >= 0, sum t <= budget} with budget <= 0 admits only the origin.
    verify::check(std::isfinite(budget), "sched.simplex-bad-budget", [&] {
      return "project_to_simplex: non-finite budget " +
             std::to_string(budget);
    });
    std::fill(t.begin(), t.end(), 0.0);
    return;
  }
  for (auto& x : t) x = std::max(0.0, x);
  const double sum = std::accumulate(t.begin(), t.end(), 0.0);
  if (sum <= budget) return;
  // Euclidean projection onto {x >= 0, sum x = budget} (Held et al.):
  // find tau such that sum max(0, x - tau) = budget.
  sorted = t;  // copy-assign: capacity reused
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double cumulative = 0.0;
  double tau = 0.0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    cumulative += sorted[k];
    const double candidate =
        (cumulative - budget) / static_cast<double>(k + 1);
    if (k + 1 == sorted.size() || sorted[k + 1] <= candidate) {
      tau = candidate;
      break;
    }
  }
  for (auto& x : t) x = std::max(0.0, x - tau);
}

namespace {

struct RoundRobinScratch {
  std::vector<std::size_t> order;
  std::vector<LayerArray> delivered;
};

/// Round-robin time vector: 1 ms slots rotate over the groups (all of
/// them, or an explicit subset); each slot goes to the lowest layer that
/// group's members still miss.
void round_robin_times_into(const AllocProblem& p, Seconds slot,
                            const std::vector<std::size_t>* subset,
                            RoundRobinScratch& rr, std::vector<double>& t) {
  t.assign(p.groups.size() * kLayers, 0.0);
  std::vector<std::size_t>& order = rr.order;
  std::vector<LayerArray>& delivered = rr.delivered;
  if (subset != nullptr && !subset->empty()) {
    order = *subset;  // copy-assign: capacity reused
  } else {
    order.resize(p.groups.size());
    std::iota(order.begin(), order.end(), 0);
  }
  delivered.assign(p.n_users, LayerArray{});
  // Remaining-budget accounting (rather than summing `used` upward): the
  // final partial slot is exactly the residue, so the slots sum to the
  // budget minus at most the 1e-12 termination threshold and can never
  // overrun it — even for budgets that are not a multiple of `slot`.
  Seconds remaining = p.time_budget;
  std::size_t idx = 0;
  while (remaining > 1e-12) {
    const Seconds this_slot = std::min(slot, remaining);
    const std::size_t g = order[idx];
    const auto& group = p.groups[g];
    const double rate_bytes_per_s = group.beam.rate.value * 1e6 / 8.0;
    const double bytes = this_slot * rate_bytes_per_s;

    // Lowest layer some member of this group still misses.
    int target = video::kNumLayers - 1;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      bool all_have = true;
      for (std::size_t u : SetBits{group.mask})
        all_have &= delivered[u][js] >= p.content.layer_bytes[js];
      if (!all_have) {
        target = j;
        break;
      }
    }
    const auto ts = static_cast<std::size_t>(target);
    t[g * kLayers + ts] += this_slot;
    for (std::size_t u : SetBits{group.mask}) delivered[u][ts] += bytes;

    remaining -= this_slot;
    idx = (idx + 1) % order.size();
  }
}

/// Greedy cover: repeatedly the group whose uncovered ("fresh") members
/// score best — `better(fresh, rate, best_fresh, best_rate)` against the
/// best so far, starting from (0, -1) — until no group adds a user.
template <class Better>
void cover_groups_into(const AllocProblem& p, Better better,
                       std::vector<std::size_t>& chosen) {
  chosen.clear();
  GroupMask covered = 0;
  while (static_cast<std::size_t>(std::popcount(covered)) < p.n_users) {
    std::size_t best_g = p.groups.size();
    std::size_t best_new = 0;
    double best_rate = -1.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      const auto fresh =
          static_cast<std::size_t>(std::popcount(p.groups[g].mask & ~covered));
      const double rate = p.groups[g].beam.rate.value;
      if (better(fresh, rate, best_new, best_rate)) {
        best_g = g;
        best_new = fresh;
        best_rate = rate;
      }
    }
    if (best_g == p.groups.size()) break;  // uncoverable remainder
    chosen.push_back(best_g);
    covered |= p.groups[best_g].mask;
  }
  if (chosen.empty()) chosen.push_back(0);
}

/// Per-user best dedicated group (fewest members, ties by rate): a
/// unicast-leaning start. Escapes the local optimum where a weak shared
/// beam looks unavoidable to the exchange steps.
void per_user_groups_into(const AllocProblem& p,
                          std::vector<std::size_t>& chosen) {
  chosen.clear();
  for (std::size_t u = 0; u < p.n_users; ++u) {
    std::size_t best_g = p.groups.size();
    std::size_t best_size = ~std::size_t{0};
    double best_rate = -1.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      if (!p.groups[g].contains(u)) continue;
      const auto size =
          static_cast<std::size_t>(std::popcount(p.groups[g].mask));
      const double rate = p.groups[g].beam.rate.value;
      if (size < best_size || (size == best_size && rate > best_rate)) {
        best_g = g;
        best_size = size;
        best_rate = rate;
      }
    }
    if (best_g != p.groups.size()) chosen.push_back(best_g);
  }
  if (chosen.empty()) chosen.push_back(0);
}

/// A plan, its evaluation and the exchange iterations that produced it.
struct RefineResult {
  std::vector<double> t;
  Eval eval;
  int iters = 0;
};

/// One local refinement pass (pairwise Frank-Wolfe style exchange): each
/// iteration moves up to `step` seconds from a drainable coordinate to a
/// high-marginal one, or claims unused budget. When `allowed` is non-null
/// only flagged coordinates may receive budget — used to converge cleanly
/// inside a start's own support before opening the full space.
///
/// The refiner keeps exact incremental state, so a candidate costs what it
/// changes rather than a full re-evaluation:
///  - a candidate moves one or two coordinates of the plan in place; only
///    the moved groups' members are rescanned, in the moved layers, and
///    only users whose fraction vector changed bitwise are re-predicted.
///    A rejected candidate is reverted from an undo log;
///  - a rejected step leaves the plan as it was, so the gradient, the top
///    targets and the drain ranking carry over to the next iteration;
///  - an accepted step re-derives the quality gradient only for users
///    whose fractions changed, and the per-coordinate gradient only for
///    groups with a member whose bytes or binding group changed.
/// Each cached value is recomputed with the same operations in the same
/// order as a full pass, so the exchange sequence, and with it the plan,
/// is bit-identical to re-evaluating from scratch. The objective's SSIM
/// sum runs over all users in order and the traffic term stays a full
/// ordered sum over the plan's support: an incrementally updated sum would
/// round differently and could flip the `> objective + 1e-12` acceptance
/// test.
class Refiner {
 public:
  /// r.t holds the init on entry and the refined plan on exit; r.eval its
  /// evaluation.
  void run(const AllocProblem& p, const Tables& tb, model::QualityModel& q,
           const OptimizerConfig& cfg, RefineResult& r,
           const std::vector<bool>* allowed);

 private:
  static constexpr std::size_t kTargets = 6;

  /// A rescanned (user, layer) cell's previous bytes and binding group.
  struct CellUndo {
    std::size_t u, j;
    double bytes;
    std::size_t binding;
  };
  /// A re-predicted user's previous fraction vector and SSIM.
  struct UserUndo {
    std::size_t u;
    LayerArray fraction;
    double ssim;
  };

  void load();
  void set(std::size_t i, double value);
  double rescan_moved(std::size_t ia, std::size_t ib);
  void revert();
  void accept();
  void group_gradient(std::size_t g);
  void pick_targets(const std::vector<bool>* allowed);
  void rank_drains();
  std::pair<std::size_t, double> drain_for(std::size_t imax);

  const AllocProblem* p_ = nullptr;
  const Tables* tb_ = nullptr;
  model::QualityModel* q_ = nullptr;
  std::vector<double>* t_ = nullptr;
  Eval* e_ = nullptr;
  std::size_t dims_ = 0;

  std::vector<std::size_t> support_;  ///< nonzero coordinates, ascending
  BindingGroups binding_;
  std::vector<LayerArray> fraction_;
  std::vector<LayerArray> gfrac_;  ///< dQ_u / d fraction_u
  std::vector<double> grad_;       ///< d objective / d t
  std::array<std::size_t, kTargets> targets_{};
  /// Drain ranking at the current plan, two deep so that excluding the
  /// target is O(1): the two largest strict-excess drains (first index
  /// wins ties) and the two lowest-gradient loaded coordinates.
  std::array<std::size_t, 2> excess_{};
  std::array<double, 2> excess_time_{};
  std::array<std::size_t, 2> lowest_{};
  bool drains_ranked_ = false;

  std::vector<CellUndo> cells_;
  std::vector<UserUndo> users_;
};

void Refiner::run(const AllocProblem& p, const Tables& tb,
                  model::QualityModel& q, const OptimizerConfig& cfg,
                  RefineResult& r, const std::vector<bool>* allowed) {
  p_ = &p;
  tb_ = &tb;
  q_ = &q;
  t_ = &r.t;
  e_ = &r.eval;
  dims_ = p.groups.size() * kLayers;
  std::vector<double>& t = r.t;
  load();
  double step = cfg.initial_step;
  int iters = 0;
  double total = 0.0;
  for (double x : t) total += x;
  bool targets_stale = true;
  // One exchange touches two coordinates; large group sets need a
  // proportionally larger budget to redistribute across them.
  const int max_iters =
      std::max(cfg.max_iterations, static_cast<int>(2 * dims_));
  for (; iters < max_iters && step >= cfg.min_step; ++iters) {
    // Anytime cutoff: r.eval always holds an evaluated feasible plan (the
    // init's evaluation before the first exchange), so breaking here at
    // any point returns best-so-far. No deadline means no clock reads.
    if (p.deadline && std::chrono::steady_clock::now() >= *p.deadline)
      break;
    if (targets_stale) {
      pick_targets(allowed);
      drains_ranked_ = false;
      targets_stale = false;
    }

    bool improved = false;
    const double slack = p.time_budget - total;
    for (std::size_t k = 0; k < kTargets && !improved; ++k) {
      const std::size_t imax = targets_[k];
      if (imax == dims_) break;
      const double old_max = t[imax];
      std::size_t imin = dims_;
      double old_min = 0.0;
      double cand_total = total;
      if (slack > 1e-9 && grad_[imax] > 0.0) {
        const double add = std::min(step, slack);
        set(imax, t[imax] + add);
        cand_total += add;
      } else {
        const auto [drain, drainable] = drain_for(imax);
        if (drain == dims_ || grad_[imax] <= grad_[drain] ||
            drainable <= 0.0)
          continue;
        const double move = std::min(step, drainable);
        imin = drain;
        old_min = t[imin];
        set(imin, t[imin] - move);
        set(imax, t[imax] + move);
      }
      const double objective = rescan_moved(imax, imin);
      if (objective > e_->objective + 1e-12) {
        e_->objective = objective;
        total = cand_total;
        accept();
        targets_stale = true;
        step *= 1.3;
        improved = true;
      } else {
        set(imax, old_max);
        if (imin != dims_) set(imin, old_min);
        revert();
      }
    }
    if (!improved) step *= 0.5;  // all targets failed at this step size
  }
  r.iters = iters;
}

/// Full state at the entry plan: evaluation, quality gradients and the
/// per-coordinate gradient.
void Refiner::load() {
  const AllocProblem& p = *p_;
  const std::vector<double>& t = *t_;
  Eval& e = *e_;
  support_.reserve(dims_);  // set() inserts without reallocating
  support_into(t, support_);
  e.user_bytes.resize(p.n_users);
  e.ssim.resize(p.n_users);
  binding_.resize(p.n_users);
  fraction_.resize(p.n_users);
  gfrac_.resize(p.n_users);
  double quality = 0.0;
  for (std::size_t u = 0; u < p.n_users; ++u) {
    for (std::size_t j = 0; j < kLayers; ++j)
      e.user_bytes[u][j] =
          effective_bytes(p, *tb_, t, support_, u, j, binding_[u][j]);
    fraction_[u] = fractions(*tb_, e.user_bytes[u]);
    const model::Features f = features_for(p, fraction_[u]);
    e.ssim[u] = q_->predict(f);
    gfrac_[u] = q_->fraction_gradient(f);
    quality += e.ssim[u];
  }
  e.objective = quality - p.lambda * traffic(*tb_, t, support_);
  grad_.resize(dims_);
  for (std::size_t g = 0; g < p.groups.size(); ++g) group_gradient(g);
}

/// t_i = value, keeping the support list in step.
void Refiner::set(std::size_t i, double value) {
  double& x = (*t_)[i];
  const bool was = x != 0.0;
  x = value;
  if (was == (x != 0.0)) return;
  const auto at = std::lower_bound(support_.begin(), support_.end(), i);
  if (was)
    support_.erase(at);
  else
    support_.insert(at, i);
}

/// Brings the state up to the plan after coordinates `ia` and `ib` (ib may
/// be dims_: a one-coordinate move) changed, logging what it overwrites,
/// and returns the new objective.
double Refiner::rescan_moved(std::size_t ia, std::size_t ib) {
  const std::vector<double>& t = *t_;
  Eval& e = *e_;
  cells_.clear();
  users_.clear();
  GroupMask rescanned = 0;
  for (const std::size_t i : {ia, ib}) {
    if (i == dims_) continue;
    const std::size_t g = i / kLayers;
    const std::size_t j = i % kLayers;
    rescanned |= p_->groups[g].mask;
    for (std::size_t u : SetBits{p_->groups[g].mask}) {
      double& bytes = e.user_bytes[u][j];
      std::size_t& binding = binding_[u][j];
      cells_.push_back({u, j, bytes, binding});
      bytes = effective_bytes(*p_, *tb_, t, support_, u, j, binding);
    }
  }
  // Each user's prediction depends on that user alone, so the order the
  // rescanned users are visited in changes nothing.
  for (std::size_t u : SetBits{rescanned}) {
    const LayerArray f = fractions(*tb_, e.user_bytes[u]);
    if (same_bits(f, fraction_[u])) continue;
    users_.push_back({u, fraction_[u], e.ssim[u]});
    fraction_[u] = f;
    e.ssim[u] = q_->predict(features_for(*p_, f));
  }
  double quality = 0.0;
  for (double s : e.ssim) quality += s;
  return quality - p_->lambda * traffic(*tb_, t, support_);
}

/// Undoes the last rescan_moved (the caller restores the plan itself).
void Refiner::revert() {
  for (auto it = cells_.rbegin(); it != cells_.rend(); ++it) {
    e_->user_bytes[it->u][it->j] = it->bytes;
    binding_[it->u][it->j] = it->binding;
  }
  for (const UserUndo& w : users_) {
    fraction_[w.u] = w.fraction;
    e_->ssim[w.u] = w.ssim;
  }
}

/// Re-derives the gradient after an accepted rescan_moved.
void Refiner::accept() {
  for (const UserUndo& w : users_)
    gfrac_[w.u] = q_->fraction_gradient(features_for(*p_, fraction_[w.u]));
  GroupMask changed = 0;  // users whose bytes or binding group moved
  for (const CellUndo& c : cells_) {
    if (same_bits(c.bytes, e_->user_bytes[c.u][c.j]) &&
        c.binding == binding_[c.u][c.j])
      continue;
    changed |= GroupMask{1} << c.u;
  }
  if (changed == 0) return;
  for (std::size_t g = 0; g < p_->groups.size(); ++g)
    if ((p_->groups[g].mask & changed) != 0) group_gradient(g);
}

void Refiner::group_gradient(std::size_t g) {
  for (std::size_t j = 0; j < kLayers; ++j) {
    const double cap = tb_->cap[j];
    double dq = -p_->lambda;  // traffic penalty applies to every sent byte
    for (std::size_t u : SetBits{p_->groups[g].mask}) {
      // Saturated: extra bytes are waste.
      if (e_->user_bytes[u][j] >= cap) continue;
      // d_eff = (1-k) max + k sum: the binding group carries the full
      // marginal; overlapping groups keep the residual k.
      const double weight = binding_[u][j] == g ? 1.0 : kOverlapValue;
      dq += weight * gfrac_[u][j] / cap;
    }
    grad_[g * kLayers + j] = dq * tb_->rate[g];
  }
}

/// Top gradient coordinates, best first. Trying several before
/// backtracking matters in large group sets: the single argmax can sit on
/// a model kink where no step size improves, and halving the step on it
/// alone would abandon genuinely good moves elsewhere.
void Refiner::pick_targets(const std::vector<bool>* allowed) {
  targets_.fill(dims_);
  for (std::size_t i = 0; i < dims_; ++i) {
    if (allowed != nullptr && !(*allowed)[i]) continue;
    for (std::size_t k = 0; k < kTargets; ++k) {
      if (targets_[k] == dims_ || grad_[i] > grad_[targets_[k]]) {
        for (std::size_t m = kTargets - 1; m > k; --m)
          targets_[m] = targets_[m - 1];
        targets_[k] = i;
        break;
      }
    }
  }
}

/// Drain sources: prefer a coordinate with strict byte *excess* — every
/// member already holds more than the layer cap, so reducing it by up to
/// the excess costs zero quality (the objective has a kink at
/// fraction == 1; the upward gradient is not the downward one there).
/// Fall back to the worst-gradient loaded coordinate. Only coordinates
/// with t_i > 1e-12 qualify, so both scans walk the support.
void Refiner::rank_drains() {
  const std::vector<double>& t = *t_;
  excess_ = {dims_, dims_};
  excess_time_ = {0.0, 0.0};
  lowest_ = {dims_, dims_};
  for (std::size_t i : support_) {
    if (t[i] <= 1e-12) continue;
    if (lowest_[0] == dims_ || grad_[i] < grad_[lowest_[0]]) {
      lowest_[1] = lowest_[0];
      lowest_[0] = i;
    } else if (lowest_[1] == dims_ || grad_[i] < grad_[lowest_[1]]) {
      lowest_[1] = i;
    }
    const std::size_t g = i / kLayers;
    const std::size_t j = i % kLayers;
    const double rate = tb_->rate[g];
    if (rate <= 0.0) continue;
    double excess = 1e300;
    for (std::size_t u : SetBits{p_->groups[g].mask})
      excess = std::min(excess, e_->user_bytes[u][j] - tb_->cap[j]);
    if (excess <= 0.0) continue;
    const double drainable = std::min(t[i], excess / rate);
    if (drainable > excess_time_[0]) {
      excess_[1] = excess_[0];
      excess_time_[1] = excess_time_[0];
      excess_[0] = i;
      excess_time_[0] = drainable;
    } else if (drainable > excess_time_[1]) {
      excess_[1] = i;
      excess_time_[1] = drainable;
    }
  }
  drains_ranked_ = true;
}

/// Drain source and drainable seconds for target `imax` (never imax
/// itself); {dims_, 0} when nothing is loaded.
std::pair<std::size_t, double> Refiner::drain_for(std::size_t imax) {
  if (!drains_ranked_) rank_drains();
  const std::size_t k = excess_[0] != imax ? 0 : 1;
  if (excess_[k] != dims_) return {excess_[k], excess_time_[k]};
  const std::size_t low = lowest_[0] != imax ? lowest_[0] : lowest_[1];
  if (low != dims_) return {low, (*t_)[low]};
  return {dims_, 0.0};
}

/// Packages a refined time vector and its evaluation into the caller's
/// Allocation (store reshaped in place, capacity reused).
void fill_allocation(const AllocProblem& p, const Tables& tb,
                     const std::vector<double>& t, const Eval& e, int iters,
                     Allocation& out) {
  out.reset(p.groups.size(), p.n_users);
  out.iterations = iters;
  out.objective = e.objective;
  out.predicted_ssim = e.ssim;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    for (std::size_t j = 0; j < kLayers; ++j) {
      out.time(g)[j] = t[g * kLayers + j];
      out.bytes(g)[j] = out.time(g)[j] * tb.rate[g];
    }
  }
  for (std::size_t u = 0; u < e.user_bytes.size(); ++u)
    out.user_bytes(u) = e.user_bytes[u];
}

/// Coordinates belonging to groups the init actually loaded (all layers).
void support_mask_into(const AllocProblem& p, const std::vector<double>& init,
                       std::vector<bool>& allowed) {
  allowed.assign(init.size(), false);
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    bool loaded = false;
    for (std::size_t j = 0; j < kLayers; ++j)
      loaded |= init[g * kLayers + j] > 1e-12;
    if (loaded)
      for (std::size_t j = 0; j < kLayers; ++j)
        allowed[g * kLayers + j] = true;
  }
}

/// Verify-layer invariant: whatever path produced the allocation, its time
/// plan must stay inside the frame budget with no negative entries, and
/// the byte plan must be the time plan scaled by the group rate.
void check_allocation(const AllocProblem& p, const Allocation& a,
                      const char* who) {
  if (!verify::enabled()) return;
  double total = 0.0;
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double t = a.time(g)[js];
      verify::check(t >= 0.0, "sched.negative-time", [&] {
        return std::string(who) + ": time[" + std::to_string(g) + "][" +
               std::to_string(js) + "] = " + std::to_string(t);
      });
      verify::check(
          std::abs(a.bytes(g)[js] - t * rate_bytes_per_s) <=
              1e-6 * std::max(1.0, std::abs(a.bytes(g)[js])),
          "sched.bytes-time-mismatch", [&] {
            return std::string(who) + ": bytes[" + std::to_string(g) + "][" +
                   std::to_string(js) + "] = " +
                   std::to_string(a.bytes(g)[js]) + " but time*rate = " +
                   std::to_string(t * rate_bytes_per_s);
          });
      total += t;
    }
  }
  verify::check(total <= p.time_budget + 1e-9, "sched.budget-exceeded", [&] {
    return std::string(who) + ": allocated " + std::to_string(total) +
           " s > budget " + std::to_string(p.time_budget) + " s";
  });
}

/// Deadline-path safety net: any user who belongs to some candidate group
/// but whose groups all ended at zero airtime gets a slice — from slack
/// budget when there is any, otherwise from half of the largest allocated
/// coordinate. Deterministic (ascending users, lowest-index tie-breaks)
/// and only ever *adds* coverage, so a plan cut short by the clock still
/// serves every reachable user. Returns the number of users repaired.
std::size_t repair_coverage(const AllocProblem& p, std::vector<double>& t) {
  const auto group_time = [&](std::size_t g) {
    double tg = 0.0;
    for (std::size_t j = 0; j < kLayers; ++j) tg += t[g * kLayers + j];
    return tg;
  };
  std::size_t repaired = 0;
  for (std::size_t u = 0; u < p.n_users; ++u) {
    bool grouped = false, served = false;
    std::size_t best_g = p.groups.size();
    double best_rate = -1.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      if (!p.groups[g].contains(u)) continue;
      grouped = true;
      if (group_time(g) > 0.0) {
        served = true;
        break;
      }
      if (p.groups[g].beam.rate.value > best_rate) {
        best_rate = p.groups[g].beam.rate.value;
        best_g = g;
      }
    }
    if (!grouped || served || best_g == p.groups.size()) continue;
    double total = 0.0;
    for (double x : t) total += x;
    const double slack = p.time_budget - total;
    double grant = 0.0;
    if (slack > 1e-9) {
      grant = std::min(slack, 0.5e-3);
    } else {
      std::size_t donor = t.size();
      for (std::size_t i = 0; i < t.size(); ++i)
        if (donor == t.size() || t[i] > t[donor]) donor = i;
      if (donor == t.size() || t[donor] <= 0.0) continue;
      grant = 0.5 * t[donor];
      t[donor] -= grant;
    }
    // Base layer first: coverage means the base prefix above anything.
    t[best_g * kLayers] += grant;
    ++repaired;
  }
  return repaired;
}

}  // namespace

/// One solver call's working sets, kept across calls so that every buffer
/// reaches its steady-state capacity after a few frames.
struct AllocScratch::Buffers {
  Tables tables;
  Refiner refiner;
  std::vector<std::size_t> support;  ///< evaluate_into
  std::vector<double> sorted;        ///< project_to_simplex
  RoundRobinScratch rr;              ///< round_robin_times_into
  // Warm path.
  RefineResult warm;
  /// The round-robin plan and its evaluation: the warm path's acceptance
  /// floor, and round_robin_allocation_into's result.
  std::vector<double> floor_t;
  Eval floor;
  // Cold multi-start.
  std::vector<std::size_t> cover, efficient, dedicated;
  std::array<std::vector<double>, 4> inits;
  std::vector<double> best_t;
  Eval best_eval;
  RefineResult phase;
  std::vector<bool> allowed;
};

AllocScratch::AllocScratch() = default;
AllocScratch::~AllocScratch() = default;
AllocScratch::AllocScratch(AllocScratch&&) noexcept = default;
AllocScratch& AllocScratch::operator=(AllocScratch&&) noexcept = default;

AllocScratch::Buffers& AllocScratch::buffers() {
  if (!buffers_) buffers_ = std::make_unique<Buffers>();
  return *buffers_;
}

void optimize_allocation_into(const AllocProblem& p,
                              model::QualityModel& quality,
                              AllocScratch& scratch, Allocation& out,
                              const OptimizerConfig& cfg,
                              const std::vector<double>* warm_start) {
  if (p.groups.empty())
    throw std::invalid_argument("optimize_allocation: no usable groups");
  if (p.n_users == 0)
    throw std::invalid_argument("optimize_allocation: no users");
  check_group_masks(p.groups, p.n_users, "optimize_allocation");

  static obs::Stage& st = obs::stage("sched.optimize");
  obs::StageSpan span(st);

  AllocScratch::Buffers& b = scratch.buffers();
  Tables& tb = b.tables;
  Refiner& refiner = b.refiner;
  build_tables(p, tb);

  // Deadline runs get the coverage safety net before results leave; the
  // no-deadline path bypasses it entirely (bit-stable output).
  const auto finalize = [&](std::vector<double>& t, Eval& e, int iters) {
    if (p.deadline) {
      const std::size_t repaired = repair_coverage(p, t);
      if (repaired > 0) {
        evaluate_into(p, tb, quality, t, e, b.support);
        if (obs::enabled()) {
          static obs::Counter& c_repaired =
              obs::MetricsRegistry::global().counter(
                  "sched.anytime.repaired_users");
          c_repaired.add(repaired);
        }
      }
    }
    fill_allocation(p, tb, t, e, iters, out);
    if (obs::enabled()) {
      auto& reg = obs::MetricsRegistry::global();
      static obs::Counter& c_calls = reg.counter("sched.optimize_calls");
      static obs::Counter& c_groups = reg.counter("sched.groups_evaluated");
      static obs::Counter& c_iters = reg.counter("sched.iterations");
      static obs::Gauge& g_obj = reg.gauge("sched.objective");
      c_calls.add(1);
      c_groups.add(p.groups.size());
      c_iters.add(static_cast<std::uint64_t>(std::max(0, out.iterations)));
      g_obj.set(out.objective);
    }
    check_allocation(p, out, "optimize_allocation");
  };

  // --- Warm path: refine the previous frame's allocation directly. ------
  // The remapped plan is already a near-feasible near-optimum when the
  // group set and channels moved only a little (the common mobile case),
  // so one full-space refine from it replaces the multi-start's eight
  // refine phases (a few hundred exchange iterations). Often no exchange
  // improves the plan at all, and the refine stops after the ~11 rejected
  // step halvings that take initial_step below min_step; each of those
  // reuses the gradient and retries only its top targets.
  // The evaluated round-robin init serves as the acceptance floor: a warm
  // result that cannot beat the weakest cold seed means the group set
  // changed too much, and the multi-start below runs as the fallback.
  const std::size_t dims = p.groups.size() * kLayers;
  if (warm_start != nullptr && warm_start->size() == dims) {
    RefineResult& warm = b.warm;
    warm.t = *warm_start;  // copy-assign: capacity reused
    bool finite = true;
    for (double x : warm.t) finite &= std::isfinite(x);
    if (finite) {
      project_to_simplex(warm.t, p.time_budget, b.sorted);
      // A warm start that leaves some group-served user at exactly zero
      // airtime is not a safe fast path: the quality model's gradient is
      // nearly flat at zero delivered bytes, so a lone refine can fail to
      // climb away from starving that user — exactly the shape a user
      // re-entering after quarantine/blockage produces (their groups were
      // absent from the previous frame, so the remap left them at zero).
      // The multi-start's per-user and covering seeds exist for that case.
      GroupMask grouped = 0, served = 0;
      for (std::size_t g = 0; g < p.groups.size(); ++g) {
        double tg = 0.0;
        for (std::size_t j = 0; j < kLayers; ++j) tg += warm.t[g * kLayers + j];
        grouped |= p.groups[g].mask;
        if (tg > 0.0) served |= p.groups[g].mask;
      }
      const bool serves_all = (grouped & ~served) == 0;
      if (!serves_all && obs::enabled()) {
        static obs::Counter& c_fb_unserved =
            obs::MetricsRegistry::global().counter(
                "sched.warm_start.fallbacks");
        c_fb_unserved.add(1);
      }
      if (serves_all &&
          std::accumulate(warm.t.begin(), warm.t.end(), 0.0) > 0.0) {
        refiner.run(p, tb, quality, cfg, warm, nullptr);
        round_robin_times_into(p, 1e-3, nullptr, b.rr, b.floor_t);
        evaluate_into(p, tb, quality, b.floor_t, b.floor, b.support);
        const bool accept = warm.eval.objective >= b.floor.objective;
        if (obs::enabled()) {
          auto& reg = obs::MetricsRegistry::global();
          static obs::Counter& c_hit = reg.counter("sched.warm_start.hits");
          static obs::Counter& c_fb =
              reg.counter("sched.warm_start.fallbacks");
          static obs::Counter& c_saved =
              reg.counter("sched.warm_start.iters_saved");
          if (accept) {
            c_hit.add(1);
            // Saved vs the configured cold budget: 4 starts x 2 refine
            // phases x max_iterations (an estimate against the iteration
            // cap, not a measurement of the skipped runs).
            const int budget = 8 * cfg.max_iterations;
            c_saved.add(static_cast<std::uint64_t>(
                std::max(0, budget - warm.iters)));
          } else {
            c_fb.add(1);
          }
        }
        if (accept) {
          finalize(warm.t, warm.eval, warm.iters);
          return;
        }
      }
    }
  }

  // Multi-start local search. Each start is refined in two phases — first
  // restricted to its own support (so it converges cleanly within its
  // "strategy": multicast covering, airtime-efficient covering, per-user
  // unicast, round-robin) and then over the full space. Keeping the best
  // result makes the optimizer dominate the round-robin baseline by
  // construction and prevents a greedy path from wandering off a strong
  // simple solution toward a weak overlapping one.
  // Set cover: the most uncovered users, ties by rate — a low-redundancy
  // multicast-leaning start.
  cover_groups_into(
      p,
      [](std::size_t f, double r, std::size_t bf, double br) {
        return f > bf || (f == bf && f > 0 && r > br);
      },
      b.cover);
  // Efficiency cover: the most rate x newly-covered members — airtime
  // efficiency, what makes a shared beam worth it. Seeds multicast
  // pairs/triples the exchange steps cannot reach from a singleton
  // optimum (crossing the valley where a shared group is loaded but not
  // yet binding).
  cover_groups_into(
      p,
      [](std::size_t f, double r, std::size_t bf, double br) {
        return r * static_cast<double>(f) > br * static_cast<double>(bf);
      },
      b.efficient);
  per_user_groups_into(p, b.dedicated);
  std::array<std::vector<double>, 4>& inits = b.inits;
  round_robin_times_into(p, 1e-3, &b.cover, b.rr, inits[0]);
  round_robin_times_into(p, 1e-3, &b.efficient, b.rr, inits[1]);
  round_robin_times_into(p, 1e-3, &b.dedicated, b.rr, inits[2]);
  round_robin_times_into(p, 1e-3, nullptr, b.rr, inits[3]);

  std::vector<double>& best_t = b.best_t;
  Eval& best_eval = b.best_eval;
  RefineResult& phase = b.phase;
  std::vector<bool>& allowed = b.allowed;
  int total_iters = 0;
  bool have_result = false;
  for (std::size_t s = 0; s < inits.size(); ++s) {
    // The first start always completes (it is what guarantees a feasible,
    // evaluated plan exists); the deadline only skips the later ones.
    if (s > 0 && p.deadline &&
        std::chrono::steady_clock::now() >= *p.deadline)
      break;
    support_mask_into(p, inits[s], allowed);
    phase.t = inits[s];  // copy-assign: capacity reused
    refiner.run(p, tb, quality, cfg, phase, &allowed);
    const int phase1_iters = phase.iters;
    refiner.run(p, tb, quality, cfg, phase, nullptr);
    total_iters += phase1_iters + phase.iters;
    if (!have_result || phase.eval.objective > best_eval.objective) {
      if (have_result && obs::enabled()) {
        static obs::Counter& c_improved =
            obs::MetricsRegistry::global().counter(
                "sched.anytime.best_plan_improvements");
        c_improved.add(1);
      }
      best_t = phase.t;        // copy-assign: capacity reused
      best_eval = phase.eval;  // copy-assign: capacity reused
      have_result = true;
    }
  }

  finalize(best_t, best_eval, total_iters);
}

void round_robin_allocation_into(const AllocProblem& p,
                                 model::QualityModel& quality,
                                 AllocScratch& scratch, Allocation& out,
                                 Seconds slot) {
  if (p.groups.empty())
    throw std::invalid_argument("round_robin_allocation: no usable groups");
  if (!(slot > 0.0) || !std::isfinite(slot))
    throw std::invalid_argument("round_robin_allocation: slot must be a "
                                "positive finite duration");
  check_group_masks(p.groups, p.n_users, "round_robin_allocation");
  AllocScratch::Buffers& b = scratch.buffers();
  build_tables(p, b.tables);
  round_robin_times_into(p, slot, nullptr, b.rr, b.floor_t);
  evaluate_into(p, b.tables, quality, b.floor_t, b.floor, b.support);
  fill_allocation(p, b.tables, b.floor_t, b.floor, 0, out);
  check_allocation(p, out, "round_robin_allocation");
}

}  // namespace w4k::sched
