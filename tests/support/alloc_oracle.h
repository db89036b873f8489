// Test oracle for the Eq. 1 time allocator: the full-recompute optimizer,
// as sched::optimize_allocation_into ran it before its refine kept
// incremental state. Every exchange candidate is a fresh copy of the plan,
// evaluated from scratch (every user's max/sum bytes, every prediction,
// the whole traffic sum), and every iteration recomputes the gradient, the
// top targets and the drain choice. Kept only to pin that the incremental
// refine changes no output (tests/props/test_props_alloc_oracle.cpp).
//
// Covers the no-deadline contract: the oracle reads no clock, runs no
// coverage repair and records no counters.
#pragma once

#include "common/bits.h"
#include "sched/allocate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <vector>

namespace w4k::oracle {
namespace alloc_detail {

using sched::AllocProblem;
using sched::LayerArray;
using sched::OptimizerConfig;

struct Eval {
  double objective = 0.0;
  std::vector<LayerArray> user_bytes;
  std::vector<double> ssim;
};

using BindingGroups = std::vector<std::array<std::size_t, video::kNumLayers>>;

inline constexpr double kOverlapValue = 0.25;

inline void user_bytes_for_into(const AllocProblem& p,
                                const std::vector<double>& t,
                                std::vector<LayerArray>& d,
                                BindingGroups* binding = nullptr) {
  std::vector<LayerArray> max_d(p.n_users, LayerArray{});
  std::vector<LayerArray> sum_d(p.n_users, LayerArray{});
  if (binding != nullptr)
    binding->assign(p.n_users, {~std::size_t{0}, ~std::size_t{0},
                                ~std::size_t{0}, ~std::size_t{0}});
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double bytes = t[g * video::kNumLayers + js] * rate_bytes_per_s;
      if (bytes <= 0.0) continue;
      for (std::size_t u : SetBits{p.groups[g].mask}) {
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

inline model::Features features_for(const AllocProblem& p,
                                    const LayerArray& d) {
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

inline void evaluate_into(const AllocProblem& p, model::QualityModel& q,
                          const std::vector<double>& t, Eval& e) {
  user_bytes_for_into(p, t, e.user_bytes);
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

inline void gradient_into(const AllocProblem& p, model::QualityModel& q,
                          const std::vector<double>& t,
                          std::vector<double>& grad) {
  BindingGroups binding;
  std::vector<LayerArray> d;
  user_bytes_for_into(p, t, d, &binding);
  std::vector<LayerArray> gfrac(p.n_users, LayerArray{});
  for (std::size_t u = 0; u < p.n_users; ++u)
    gfrac[u] = q.fraction_gradient(features_for(p, d[u]));

  grad.assign(t.size(), 0.0);
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const double rate_bytes_per_s = p.groups[g].beam.rate.value * 1e6 / 8.0;
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double cap = std::max(1.0, p.content.layer_bytes[js]);
      double dq = -p.lambda;
      for (std::size_t u : SetBits{p.groups[g].mask}) {
        if (d[u][js] >= cap) continue;
        const double weight = binding[u][js] == g ? 1.0 : kOverlapValue;
        dq += weight * gfrac[u][js] / cap;
      }
      grad[g * video::kNumLayers + js] = dq * rate_bytes_per_s;
    }
  }
}

inline void round_robin_times_into(const AllocProblem& p, Seconds slot,
                                   const std::vector<std::size_t>* subset,
                                   std::vector<double>& t) {
  t.assign(p.groups.size() * video::kNumLayers, 0.0);
  std::vector<std::size_t> order;
  if (subset != nullptr && !subset->empty()) {
    order = *subset;
  } else {
    order.resize(p.groups.size());
    std::iota(order.begin(), order.end(), 0);
  }
  std::vector<LayerArray> delivered(p.n_users, LayerArray{});
  Seconds remaining = p.time_budget;
  std::size_t idx = 0;
  while (remaining > 1e-12) {
    const Seconds this_slot = std::min(slot, remaining);
    const std::size_t g = order[idx];
    const auto& group = p.groups[g];
    const double rate_bytes_per_s = group.beam.rate.value * 1e6 / 8.0;
    const double bytes = this_slot * rate_bytes_per_s;
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
    t[g * video::kNumLayers + ts] += this_slot;
    for (std::size_t u : SetBits{group.mask}) delivered[u][ts] += bytes;
    remaining -= this_slot;
    idx = (idx + 1) % order.size();
  }
}

inline void set_cover_groups_into(const AllocProblem& p,
                                  std::vector<std::size_t>& chosen) {
  std::vector<bool> covered(p.n_users, false);
  chosen.clear();
  std::size_t n_covered = 0;
  while (n_covered < p.n_users) {
    std::size_t best_g = p.groups.size();
    std::size_t best_new = 0;
    double best_rate = -1.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      std::size_t fresh = 0;
      for (std::size_t u : SetBits{p.groups[g].mask})
        fresh += covered[u] ? 0 : 1;
      if (fresh > best_new ||
          (fresh == best_new && fresh > 0 &&
           p.groups[g].beam.rate.value > best_rate)) {
        best_g = g;
        best_new = fresh;
        best_rate = p.groups[g].beam.rate.value;
      }
    }
    if (best_g == p.groups.size() || best_new == 0) break;
    chosen.push_back(best_g);
    for (std::size_t u : SetBits{p.groups[best_g].mask}) {
      if (!covered[u]) {
        covered[u] = true;
        ++n_covered;
      }
    }
  }
  if (chosen.empty()) chosen.push_back(0);
}

inline void per_user_groups_into(const AllocProblem& p,
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

inline void efficiency_cover_groups_into(const AllocProblem& p,
                                         std::vector<std::size_t>& chosen) {
  std::vector<bool> covered(p.n_users, false);
  chosen.clear();
  std::size_t n_covered = 0;
  while (n_covered < p.n_users) {
    std::size_t best_g = p.groups.size();
    double best_score = 0.0;
    for (std::size_t g = 0; g < p.groups.size(); ++g) {
      std::size_t fresh = 0;
      for (std::size_t u : SetBits{p.groups[g].mask})
        fresh += covered[u] ? 0 : 1;
      const double score =
          p.groups[g].beam.rate.value * static_cast<double>(fresh);
      if (score > best_score) {
        best_g = g;
        best_score = score;
      }
    }
    if (best_g == p.groups.size()) break;
    chosen.push_back(best_g);
    for (std::size_t u : SetBits{p.groups[best_g].mask}) {
      if (!covered[u]) {
        covered[u] = true;
        ++n_covered;
      }
    }
  }
  if (chosen.empty()) chosen.push_back(0);
}

struct RefineResult {
  std::vector<double> t;
  Eval eval;
  int iters = 0;
};

inline void refine_inplace(const AllocProblem& p, model::QualityModel& quality,
                           const OptimizerConfig& cfg, RefineResult& r,
                           const std::vector<bool>* allowed) {
  std::vector<double>& t = r.t;
  const std::size_t dims = p.groups.size() * video::kNumLayers;
  evaluate_into(p, quality, t, r.eval);
  double step = cfg.initial_step;
  int iters = 0;
  double total = 0.0;
  for (double x : t) total += x;
  std::vector<double> grad, cand;
  std::vector<LayerArray> d;
  Eval trial;
  const int max_iters =
      std::max(cfg.max_iterations, static_cast<int>(2 * dims));
  for (; iters < max_iters && step >= cfg.min_step; ++iters) {
    gradient_into(p, quality, t, grad);
    user_bytes_for_into(p, t, d);

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
          for (std::size_t u : SetBits{p.groups[g].mask})
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
      cand = t;
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
        r.eval = trial;
        step *= 1.3;
        improved = true;
      }
    }
    if (!improved) step *= 0.5;
  }
  r.iters = iters;
}

inline void fill_allocation(const AllocProblem& p, const std::vector<double>& t,
                            const Eval& e, int iters,
                            sched::Allocation& out) {
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

inline void support_mask_into(const AllocProblem& p,
                              const std::vector<double>& init,
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

}  // namespace alloc_detail

/// The full-recompute optimizer: warm refine against the round-robin
/// floor, else the four-start two-phase cold multi-start. No deadline.
inline sched::Allocation optimize_allocation_full(
    const sched::AllocProblem& p, model::QualityModel& quality,
    const sched::OptimizerConfig& cfg = {},
    const std::vector<double>* warm_start = nullptr) {
  using namespace alloc_detail;
  sched::Allocation out;
  const std::size_t dims = p.groups.size() * video::kNumLayers;
  if (warm_start != nullptr && warm_start->size() == dims) {
    RefineResult warm;
    warm.t = *warm_start;
    bool finite = true;
    for (double x : warm.t) finite &= std::isfinite(x);
    if (finite) {
      std::vector<double> sorted;
      sched::project_to_simplex(warm.t, p.time_budget, sorted);
      std::vector<std::uint8_t> grouped(p.n_users, 0), served(p.n_users, 0);
      for (std::size_t g = 0; g < p.groups.size(); ++g) {
        double tg = 0.0;
        for (std::size_t j = 0; j < video::kNumLayers; ++j)
          tg += warm.t[g * video::kNumLayers + j];
        for (std::size_t u : SetBits{p.groups[g].mask}) {
          grouped[u] = 1;
          if (tg > 0.0) served[u] = 1;
        }
      }
      bool serves_all = true;
      for (std::size_t u = 0; u < p.n_users; ++u)
        serves_all &= grouped[u] == 0 || served[u] != 0;
      if (serves_all &&
          std::accumulate(warm.t.begin(), warm.t.end(), 0.0) > 0.0) {
        refine_inplace(p, quality, cfg, warm, nullptr);
        std::vector<double> floor_t;
        Eval floor;
        round_robin_times_into(p, 1e-3, nullptr, floor_t);
        evaluate_into(p, quality, floor_t, floor);
        if (warm.eval.objective >= floor.objective) {
          fill_allocation(p, warm.t, warm.eval, warm.iters, out);
          return out;
        }
      }
    }
  }

  std::vector<std::size_t> cover, efficient, dedicated;
  set_cover_groups_into(p, cover);
  efficiency_cover_groups_into(p, efficient);
  per_user_groups_into(p, dedicated);
  std::array<std::vector<double>, 4> inits;
  round_robin_times_into(p, 1e-3, &cover, inits[0]);
  round_robin_times_into(p, 1e-3, &efficient, inits[1]);
  round_robin_times_into(p, 1e-3, &dedicated, inits[2]);
  round_robin_times_into(p, 1e-3, nullptr, inits[3]);

  std::vector<double> best_t;
  Eval best_eval;
  int total_iters = 0;
  bool have_result = false;
  for (std::size_t s = 0; s < inits.size(); ++s) {
    std::vector<bool> allowed;
    support_mask_into(p, inits[s], allowed);
    RefineResult phase;
    phase.t = inits[s];
    refine_inplace(p, quality, cfg, phase, &allowed);
    const int phase1_iters = phase.iters;
    refine_inplace(p, quality, cfg, phase, nullptr);
    total_iters += phase1_iters + phase.iters;
    if (!have_result || phase.eval.objective > best_eval.objective) {
      best_t = phase.t;
      best_eval = phase.eval;
      have_result = true;
    }
  }
  fill_allocation(p, best_t, best_eval, total_iters, out);
  return out;
}

/// The round-robin baseline, evaluated by the full recompute.
inline sched::Allocation round_robin_allocation_full(
    const sched::AllocProblem& p, model::QualityModel& quality,
    Seconds slot = 1e-3) {
  using namespace alloc_detail;
  std::vector<double> t;
  Eval e;
  round_robin_times_into(p, slot, nullptr, t);
  evaluate_into(p, quality, t, e);
  sched::Allocation out;
  fill_allocation(p, t, e, 0, out);
  return out;
}

}  // namespace w4k::oracle
