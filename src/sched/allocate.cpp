#include "sched/allocate.h"

#include "obs/span.h"
#include "verify/invariants.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

// The optimizer runs on the session's decide_into() thread (never on the
// ThreadPool), so its working sets live in thread_local never-shrinking
// buffers: after a few warmup frames every evaluate/gradient/refine pass
// reuses capacity and the whole optimization performs zero heap
// allocations. Concurrent sessions on different threads each get their
// own scratch. All thread_local state here is used directly in function
// scope — none of it is referenced from ThreadPool lambdas.

namespace w4k::sched {
namespace {

struct Eval {
  double objective = 0.0;
  std::vector<LayerArray> user_bytes;
  std::vector<double> ssim;
};

/// Effective D_{i,j} for a flattened allocation t (g-major, layer-minor).
///
/// Eq. 1 writes D as the *sum* over a user's groups, but the Eq. 4 greedy
/// makes every group spend its layer budget walking the same coding-unit
/// prefix (each tops up its own deficient members), so a user belonging
/// to several groups decodes the *longest* prefix any of them paid for —
/// the max, not the sum. Using the sum would let the optimizer buy
/// quality with phantom redundant bytes; the max matches what the packet
/// scheduler actually delivers. `binding` (optional) receives, per
/// (user, layer), the group whose budget is the binding one.
using BindingGroups = std::vector<std::array<std::size_t, video::kNumLayers>>;

/// Residual worth of non-binding (overlapping) bytes: they mostly repeat
/// the binding group's prefix, but the extras do recover losses and top up
/// units, so they are not worthless. effective = (1-k)*max + k*sum.
inline constexpr double kOverlapValue = 0.25;

void user_bytes_for_into(const AllocProblem& p, const std::vector<double>& t,
                         std::vector<LayerArray>& d,
                         BindingGroups* binding = nullptr) {
  thread_local std::vector<LayerArray> max_d_tls, sum_d_tls;
  std::vector<LayerArray>& max_d = max_d_tls;
  std::vector<LayerArray>& sum_d = sum_d_tls;
  max_d.assign(p.n_users, LayerArray{});
  sum_d.assign(p.n_users, LayerArray{});
  if (binding != nullptr)
    binding->assign(p.n_users, {~std::size_t{0}, ~std::size_t{0},
                                ~std::size_t{0}, ~std::size_t{0}});
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double bytes = t[g * video::kNumLayers + js] * rate_bytes_per_s;
      if (bytes <= 0.0) continue;
      for (std::size_t u : p.groups[g].members) {
        sum_d[u][js] += bytes;
        if (bytes > max_d[u][js]) {
          max_d[u][js] = bytes;
          if (binding != nullptr) (*binding)[u][js] = g;
        }
      }
    }
  }
  d.assign(p.n_users, LayerArray{});
  for (std::size_t u = 0; u < p.n_users; ++u)
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      d[u][js] = (1.0 - kOverlapValue) * max_d[u][js] +
                 kOverlapValue * sum_d[u][js];
    }
}

model::Features features_for(const AllocProblem& p, const LayerArray& d) {
  model::Features f;
  for (int j = 0; j < video::kNumLayers; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const double cap = std::max(1.0, p.content.layer_bytes[js]);
    f.fraction[js] = std::min(1.0, d[js] / cap);
  }
  f.up_to_layer = p.content.up_to_layer_ssim;
  f.blank = p.content.blank_ssim;
  return f;
}

void evaluate_into(const AllocProblem& p, model::QualityModel& q,
                   const std::vector<double>& t, Eval& e) {
  user_bytes_for_into(p, t, e.user_bytes);
  // Penalize *transmitted* traffic: with max-based effective reception,
  // penalizing received bytes would make redundant transmissions free.
  double traffic = 0.0;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j)
      traffic +=
          t[g * video::kNumLayers + static_cast<std::size_t>(j)] *
          rate_bytes_per_s;
  }
  e.ssim.clear();
  for (std::size_t u = 0; u < p.n_users; ++u)
    e.ssim.push_back(q.predict(features_for(p, e.user_bytes[u])));
  e.objective = std::accumulate(e.ssim.begin(), e.ssim.end(), 0.0) -
                p.lambda * traffic;
}

void gradient_into(const AllocProblem& p, model::QualityModel& q,
                   const std::vector<double>& t, std::vector<double>& grad) {
  thread_local BindingGroups binding_tls;
  thread_local std::vector<LayerArray> d_tls, gfrac_tls;
  BindingGroups& binding = binding_tls;
  std::vector<LayerArray>& d = d_tls;
  std::vector<LayerArray>& gfrac = gfrac_tls;
  user_bytes_for_into(p, t, d, &binding);
  // Per-user quality gradients w.r.t. reception fraction.
  gfrac.assign(p.n_users, LayerArray{});
  for (std::size_t u = 0; u < p.n_users; ++u)
    gfrac[u] = q.fraction_gradient(features_for(p, d[u]));

  grad.assign(t.size(), 0.0);
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double cap = std::max(1.0, p.content.layer_bytes[js]);
      double dq = -p.lambda;  // traffic penalty applies to every sent byte
      for (std::size_t u : p.groups[g].members) {
        if (d[u][js] >= cap) continue;  // saturated: extra bytes are waste
        // d_eff = (1-k) max + k sum: the binding group carries the full
        // marginal; overlapping groups keep the residual k.
        const double weight =
            binding[u][js] == g ? 1.0 : kOverlapValue;
        dq += weight * gfrac[u][js] / cap;
      }
      grad[g * video::kNumLayers + js] = dq * rate_bytes_per_s;
    }
  }
}

}  // namespace

void project_to_simplex(std::vector<double>& t, double budget) {
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
  thread_local std::vector<double> sorted_tls;
  std::vector<double>& sorted = sorted_tls;
  sorted = t;
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

/// Defined with round_robin_allocation below; also used as an optimizer
/// starting point.
void round_robin_times_into(const AllocProblem& p, Seconds slot,
                            const std::vector<std::size_t>* subset,
                            std::vector<double>& t);

/// Greedy set cover: repeatedly the group covering the most uncovered
/// users (ties by rate). Low-redundancy multicast-leaning start.
void set_cover_groups_into(const AllocProblem& p,
                           std::vector<std::size_t>& chosen) {
  thread_local std::vector<bool> covered_tls;
  std::vector<bool>& covered = covered_tls;
  covered.assign(p.n_users, false);
  chosen.clear();
  std::size_t n_covered = 0;
  while (n_covered < p.n_users) {
    std::size_t best_g = p.groups.size();
    std::size_t best_new = 0;
    double best_rate = -1.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      std::size_t fresh = 0;
      for (std::size_t u : p.groups[g].members) fresh += covered[u] ? 0 : 1;
      if (fresh > best_new ||
          (fresh == best_new && fresh > 0 &&
           p.groups[g].beam.rate.value > best_rate)) {
        best_g = g;
        best_new = fresh;
        best_rate = p.groups[g].beam.rate.value;
      }
    }
    if (best_g == p.groups.size() || best_new == 0) break;  // uncoverable
    chosen.push_back(best_g);
    for (std::size_t u : p.groups[best_g].members) {
      if (!covered[u]) {
        covered[u] = true;
        ++n_covered;
      }
    }
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
      const std::size_t size = p.groups[g].members.size();
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

/// Efficiency cover: repeatedly the group maximizing
/// rate x newly-covered-members — airtime efficiency, the quantity that
/// makes a shared beam worth it. Seeds genuine multicast pairs/triples the
/// exchange steps cannot reach from a singleton optimum (crossing the
/// valley where a shared group is loaded but not yet binding).
void efficiency_cover_groups_into(const AllocProblem& p,
                                  std::vector<std::size_t>& chosen) {
  thread_local std::vector<bool> covered_tls;
  std::vector<bool>& covered = covered_tls;
  covered.assign(p.n_users, false);
  chosen.clear();
  std::size_t n_covered = 0;
  while (n_covered < p.n_users) {
    std::size_t best_g = p.groups.size();
    double best_score = 0.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      std::size_t fresh = 0;
      for (std::size_t u : p.groups[g].members) fresh += covered[u] ? 0 : 1;
      const double score =
          p.groups[g].beam.rate.value * static_cast<double>(fresh);
      if (score > best_score) {
        best_g = g;
        best_score = score;
      }
    }
    if (best_g == p.groups.size()) break;  // uncoverable remainder
    chosen.push_back(best_g);
    for (std::size_t u : p.groups[best_g].members) {
      if (!covered[u]) {
        covered[u] = true;
        ++n_covered;
      }
    }
  }
  if (chosen.empty()) chosen.push_back(0);
}

/// One local refinement pass (pairwise Frank-Wolfe style exchange): each
/// iteration moves up to `step` seconds from a drainable coordinate to a
/// high-marginal one, or claims unused budget. When `allowed` is non-null
/// only flagged coordinates may receive budget — used to converge cleanly
/// inside a start's own support before opening the full space.
struct RefineResult {
  std::vector<double> t;
  Eval eval;
  int iters = 0;
};

/// In-place refine: r.t holds the init on entry and the refined plan on
/// exit; r.eval its evaluation. Value-identical to refining a fresh copy
/// (the candidate swap below replaces the historical vector move).
void refine_inplace(const AllocProblem& p, model::QualityModel& quality,
                    const OptimizerConfig& cfg, RefineResult& r,
                    const std::vector<bool>* allowed) {
  std::vector<double>& t = r.t;
  const std::size_t dims = p.groups.size() * video::kNumLayers;
  evaluate_into(p, quality, t, r.eval);
  double step = cfg.initial_step;
  int iters = 0;
  double total = 0.0;
  for (double x : t) total += x;
  thread_local std::vector<double> grad_tls, cand_tls;
  thread_local std::vector<LayerArray> d_tls;
  thread_local Eval trial_tls;
  std::vector<double>& grad = grad_tls;
  std::vector<double>& cand = cand_tls;
  std::vector<LayerArray>& d = d_tls;
  Eval& trial = trial_tls;
  // One exchange touches two coordinates; large group sets need a
  // proportionally larger budget to redistribute across them.
  const int max_iters =
      std::max(cfg.max_iterations, static_cast<int>(2 * dims));
  for (; iters < max_iters && step >= cfg.min_step; ++iters) {
    // Anytime cutoff: r.eval always holds an evaluated feasible plan (the
    // init's evaluation before the first exchange), so breaking here at
    // any point returns best-so-far. No deadline means no clock reads.
    if (cfg.deadline &&
        std::chrono::steady_clock::now() >= *cfg.deadline)
      break;
    gradient_into(p, quality, t, grad);
    user_bytes_for_into(p, t, d);

    // Top gradient coordinates, best first. Trying several before
    // backtracking matters in large group sets: the single argmax can
    // sit on a model kink where no step size improves, and halving the
    // step on it alone would abandon genuinely good moves elsewhere.
    constexpr std::size_t kTargets = 6;
    std::array<std::size_t, kTargets> targets;
    targets.fill(dims);
    for (std::size_t i = 0; i < dims; ++i) {
      if (allowed != nullptr && !(*allowed)[i]) continue;
      for (std::size_t k = 0; k < kTargets; ++k) {
        if (targets[k] == dims || grad[i] > grad[targets[k]]) {
          for (std::size_t m = kTargets - 1; m > k; --m)
            targets[m] = targets[m - 1];
          targets[k] = i;
          break;
        }
      }
    }

    // Drain source for a given target: prefer a coordinate with strict
    // byte *excess* — every member already holds more than the layer
    // cap, so reducing it by up to the excess costs zero quality (the
    // objective has a kink at fraction == 1; the upward gradient is not
    // the downward one there). Fall back to the worst-gradient loaded
    // coordinate.
    const auto pick_drain = [&](std::size_t imax) {
      std::pair<std::size_t, double> out{dims, 0.0};
      for (std::size_t g = 0; g < p.groups.size(); ++g) {
        const double rate_bytes_per_s =
            p.groups[g].beam.rate.value * 1e6 / 8.0;
        if (rate_bytes_per_s <= 0.0) continue;
        for (int j = 0; j < video::kNumLayers; ++j) {
          const auto js = static_cast<std::size_t>(j);
          const std::size_t i = g * video::kNumLayers + js;
          if (t[i] <= 1e-12 || i == imax) continue;
          const double cap = std::max(1.0, p.content.layer_bytes[js]);
          double excess = 1e300;
          for (std::size_t u : p.groups[g].members)
            excess = std::min(excess, d[u][js] - cap);
          if (excess <= 0.0) continue;
          const double dr = std::min(t[i], excess / rate_bytes_per_s);
          if (dr > out.second) out = {i, dr};
        }
      }
      if (out.first == dims) {
        for (std::size_t i = 0; i < dims; ++i)
          if (t[i] > 1e-12 && i != imax &&
              (out.first == dims || grad[i] < grad[out.first]))
            out.first = i;
        if (out.first != dims) out.second = t[out.first];
      }
      return out;
    };

    bool improved = false;
    const double slack = p.time_budget - total;
    for (std::size_t k = 0; k < kTargets && !improved; ++k) {
      const std::size_t imax = targets[k];
      if (imax == dims) break;
      cand = t;  // copy-assign: capacity reused
      double cand_total = total;
      if (slack > 1e-9 && grad[imax] > 0.0) {
        const double add = std::min(step, slack);
        cand[imax] += add;
        cand_total += add;
      } else {
        const auto [imin, drainable] = pick_drain(imax);
        if (imin == dims || grad[imax] <= grad[imin] || drainable <= 0.0)
          continue;
        const double move = std::min(step, drainable);
        cand[imin] -= move;
        cand[imax] += move;
      }
      evaluate_into(p, quality, cand, trial);
      if (trial.objective > r.eval.objective + 1e-12) {
        t.swap(cand);
        total = cand_total;
        r.eval = trial;  // copy-assign: capacity reused
        step *= 1.3;
        improved = true;
      }
    }
    if (!improved) step *= 0.5;  // all targets failed at this step size
  }
  r.iters = iters;
}

/// Packages a refined time vector and its evaluation into the caller's
/// Allocation (store reshaped in place, capacity reused).
void fill_allocation(const AllocProblem& p, const std::vector<double>& t,
                     const Eval& e, int iters, Allocation& out) {
  out.reset(p.groups.size(), p.n_users);
  out.iterations = iters;
  out.objective = e.objective;
  out.predicted_ssim = e.ssim;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      out.time(g)[js] = t[g * video::kNumLayers + js];
      out.bytes(g)[js] = out.time(g)[js] * rate_bytes_per_s;
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
    for (int j = 0; j < video::kNumLayers; ++j)
      loaded |= init[g * video::kNumLayers + static_cast<std::size_t>(j)] >
                1e-12;
    if (loaded)
      for (int j = 0; j < video::kNumLayers; ++j)
        allowed[g * video::kNumLayers + static_cast<std::size_t>(j)] = true;
  }
}

}  // namespace

namespace {

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
    for (std::size_t j = 0; j < video::kNumLayers; ++j)
      tg += t[g * video::kNumLayers + j];
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
    t[best_g * video::kNumLayers] += grant;
    ++repaired;
  }
  return repaired;
}

}  // namespace

void optimize_allocation_into(const AllocProblem& p,
                              model::QualityModel& quality, Allocation& out,
                              const OptimizerConfig& cfg,
                              const std::vector<double>* warm_start) {
  if (p.groups.empty())
    throw std::invalid_argument("optimize_allocation: no usable groups");
  if (p.n_users == 0)
    throw std::invalid_argument("optimize_allocation: no users");

  static obs::Stage& st = obs::stage("sched.optimize");
  obs::StageSpan span(st);

  const auto finish = [&](const Allocation& result) {
    if (obs::enabled()) {
      auto& reg = obs::MetricsRegistry::global();
      static obs::Counter& c_calls = reg.counter("sched.optimize_calls");
      static obs::Counter& c_groups = reg.counter("sched.groups_evaluated");
      static obs::Counter& c_iters = reg.counter("sched.iterations");
      static obs::Gauge& g_obj = reg.gauge("sched.objective");
      c_calls.add(1);
      c_groups.add(p.groups.size());
      c_iters.add(static_cast<std::uint64_t>(std::max(0, result.iterations)));
      g_obj.set(result.objective);
    }
    check_allocation(p, result, "optimize_allocation");
  };

  // Deadline runs get the coverage safety net before results leave; the
  // no-deadline path bypasses it entirely (bit-stable output).
  const auto finalize = [&](std::vector<double>& t, Eval& e, int iters) {
    if (cfg.deadline) {
      const std::size_t repaired = repair_coverage(p, t);
      if (repaired > 0) {
        evaluate_into(p, quality, t, e);
        if (obs::enabled()) {
          static obs::Counter& c_repaired =
              obs::MetricsRegistry::global().counter(
                  "sched.anytime.repaired_users");
          c_repaired.add(repaired);
        }
      }
    }
    fill_allocation(p, t, e, iters, out);
    finish(out);
  };

  // --- Warm path: refine the previous frame's allocation directly. ------
  // The remapped plan is already a near-feasible near-optimum when the
  // group set and channels moved only a little (the common mobile case),
  // so one full-space refine converges in a handful of step-halvings
  // instead of the multi-start's thousands of exchange iterations. The
  // evaluated round-robin init serves as the acceptance floor: a warm
  // result that cannot beat the weakest cold seed means the group set
  // changed too much, and the multi-start below runs as the fallback.
  const std::size_t dims = p.groups.size() * video::kNumLayers;
  if (warm_start != nullptr && warm_start->size() == dims) {
    thread_local RefineResult warm_tls;
    RefineResult& warm = warm_tls;
    warm.t = *warm_start;  // copy-assign: capacity reused
    bool finite = true;
    for (double x : warm.t) finite &= std::isfinite(x);
    if (finite) {
      project_to_simplex(warm.t, p.time_budget);
      // A warm start that leaves some group-served user at exactly zero
      // airtime is not a safe fast path: the quality model's gradient is
      // nearly flat at zero delivered bytes, so a lone refine can fail to
      // climb away from starving that user — exactly the shape a user
      // re-entering after quarantine/blockage produces (their groups were
      // absent from the previous frame, so the remap left them at zero).
      // The multi-start's per-user and covering seeds exist for that case.
      thread_local std::vector<std::uint8_t> grouped_tls, served_tls;
      std::vector<std::uint8_t>& grouped = grouped_tls;
      std::vector<std::uint8_t>& served = served_tls;
      grouped.assign(p.n_users, 0);
      served.assign(p.n_users, 0);
      for (std::size_t g = 0; g < p.groups.size(); ++g) {
        double tg = 0.0;
        for (std::size_t j = 0; j < video::kNumLayers; ++j)
          tg += warm.t[g * video::kNumLayers + j];
        for (std::size_t u : p.groups[g].members) {
          grouped[u] = 1;
          if (tg > 0.0) served[u] = 1;
        }
      }
      bool serves_all = true;
      for (std::size_t u = 0; u < p.n_users; ++u)
        serves_all &= grouped[u] == 0 || served[u] != 0;
      if (!serves_all && obs::enabled()) {
        static obs::Counter& c_fb_unserved =
            obs::MetricsRegistry::global().counter(
                "sched.warm_start.fallbacks");
        c_fb_unserved.add(1);
      }
      if (serves_all &&
          std::accumulate(warm.t.begin(), warm.t.end(), 0.0) > 0.0) {
        refine_inplace(p, quality, cfg, warm, nullptr);
        thread_local std::vector<double> floor_t_tls;
        thread_local Eval floor_tls;
        std::vector<double>& floor_t = floor_t_tls;
        Eval& floor = floor_tls;
        round_robin_times_into(p, 1e-3, nullptr, floor_t);
        evaluate_into(p, quality, floor_t, floor);
        const bool accept = warm.eval.objective >= floor.objective;
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
  thread_local std::vector<std::size_t> cover_tls, efficient_tls,
      dedicated_tls;
  std::vector<std::size_t>& cover = cover_tls;
  std::vector<std::size_t>& efficient = efficient_tls;
  std::vector<std::size_t>& dedicated = dedicated_tls;
  set_cover_groups_into(p, cover);
  efficiency_cover_groups_into(p, efficient);
  per_user_groups_into(p, dedicated);
  thread_local std::array<std::vector<double>, 4> inits_tls;
  std::array<std::vector<double>, 4>& inits = inits_tls;
  round_robin_times_into(p, 1e-3, &cover, inits[0]);
  round_robin_times_into(p, 1e-3, &efficient, inits[1]);
  round_robin_times_into(p, 1e-3, &dedicated, inits[2]);
  round_robin_times_into(p, 1e-3, nullptr, inits[3]);

  thread_local std::vector<double> best_t_tls;
  thread_local Eval best_eval_tls;
  thread_local RefineResult phase_tls;
  thread_local std::vector<bool> allowed_tls;
  std::vector<double>& best_t = best_t_tls;
  Eval& best_eval = best_eval_tls;
  RefineResult& phase = phase_tls;
  std::vector<bool>& allowed = allowed_tls;
  int total_iters = 0;
  bool have_result = false;
  for (std::size_t s = 0; s < inits.size(); ++s) {
    // The first start always completes (it is what guarantees a feasible,
    // evaluated plan exists); the deadline only skips the later ones.
    if (s > 0 && cfg.deadline &&
        std::chrono::steady_clock::now() >= *cfg.deadline)
      break;
    support_mask_into(p, inits[s], allowed);
    phase.t = inits[s];  // copy-assign: capacity reused
    refine_inplace(p, quality, cfg, phase, &allowed);
    const int phase1_iters = phase.iters;
#ifdef W4K_OPT_DEBUG
    const double phase1_obj = phase.eval.objective;
#endif
    refine_inplace(p, quality, cfg, phase, nullptr);
#ifdef W4K_OPT_DEBUG
    std::fprintf(stderr, "start: phase1 obj=%.5f iters=%d phase2 obj=%.5f iters=%d\n",
                 phase1_obj, phase1_iters, phase.eval.objective, phase.iters);
#endif
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

Allocation optimize_allocation(const AllocProblem& p,
                               model::QualityModel& quality,
                               const OptimizerConfig& cfg,
                               const std::vector<double>* warm_start) {
  Allocation out;
  optimize_allocation_into(p, quality, out, cfg, warm_start);
  return out;
}

namespace {

/// Round-robin time vector: 1 ms slots rotate over the groups (all of
/// them, or an explicit subset); each slot goes to the lowest layer that
/// group's members still miss.
void round_robin_times_into(const AllocProblem& p, Seconds slot,
                            const std::vector<std::size_t>* subset,
                            std::vector<double>& t) {
  t.assign(p.groups.size() * video::kNumLayers, 0.0);
  thread_local std::vector<std::size_t> order_tls;
  thread_local std::vector<LayerArray> delivered_tls;
  std::vector<std::size_t>& order = order_tls;
  std::vector<LayerArray>& delivered = delivered_tls;
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
      for (std::size_t u : group.members)
        all_have &= delivered[u][js] >= p.content.layer_bytes[js];
      if (!all_have) {
        target = j;
        break;
      }
    }
    const auto ts = static_cast<std::size_t>(target);
    t[g * video::kNumLayers + ts] += this_slot;
    for (std::size_t u : group.members) delivered[u][ts] += bytes;

    remaining -= this_slot;
    idx = (idx + 1) % order.size();
  }
}

}  // namespace

void round_robin_allocation_into(const AllocProblem& p,
                                 model::QualityModel& quality,
                                 Allocation& out, Seconds slot) {
  if (p.groups.empty())
    throw std::invalid_argument("round_robin_allocation: no usable groups");
  if (!(slot > 0.0) || !std::isfinite(slot))
    throw std::invalid_argument("round_robin_allocation: slot must be a "
                                "positive finite duration");
  thread_local std::vector<double> t_tls;
  thread_local Eval e_tls;
  std::vector<double>& t = t_tls;
  Eval& e = e_tls;
  round_robin_times_into(p, slot, nullptr, t);
  evaluate_into(p, quality, t, e);
  fill_allocation(p, t, e, 0, out);
  check_allocation(p, out, "round_robin_allocation");
}

Allocation round_robin_allocation(const AllocProblem& p,
                                  model::QualityModel& quality,
                                  Seconds slot) {
  Allocation out;
  round_robin_allocation_into(p, quality, out, slot);
  return out;
}

}  // namespace w4k::sched
