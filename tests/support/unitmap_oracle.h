// Test oracle for the Eq. 4 unit-map greedy: the full scan over every
// candidate group, for each unit, as sched::map_to_units_into ran it before
// it listed the groups with budget once per frame. Kept only to pin that
// the active-group list changes no output (tests/props/test_props_sched.cpp).
#pragma once

#include "common/bits.h"
#include "sched/unitmap.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace w4k::oracle {

inline sched::UnitMapResult map_to_units_full_scan(
    std::span<const sched::GroupSpec> groups,
    std::span<const sched::LayerArray> group_layer_bytes,
    const std::vector<sched::UnitSpec>& units, std::size_t n_users,
    std::size_t symbol_size) {
  std::vector<sched::LayerArray> budget(groups.size(), sched::LayerArray{});
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t j = 0; j < budget[g].size(); ++j)
      budget[g][j] = std::floor(group_layer_bytes[g][j] /
                                static_cast<double>(symbol_size));

  sched::UnitMapResult res;
  res.user_symbols.assign(n_users, std::vector<std::size_t>(units.size(), 0));
  res.user_decodes.assign(n_users, std::vector<bool>(units.size(), false));
  for (std::size_t i = 0; i < units.size(); ++i) {
    const sched::UnitSpec& unit = units[i];
    const auto layer = static_cast<std::size_t>(unit.id.layer);
    bool completable = false;
    for (std::size_t u = 0; u < n_users && !completable; ++u) {
      std::size_t potential = res.user_symbols[u][i];
      for (std::size_t g = 0; g < groups.size(); ++g)
        if (groups[g].contains(u))
          potential += static_cast<std::size_t>(budget[g][layer]);
      completable = potential >= unit.k_symbols;
    }
    if (!completable) continue;

    for (std::size_t g = 0; g < groups.size(); ++g) {
      auto remaining = static_cast<std::size_t>(budget[g][layer]);
      if (remaining == 0) continue;
      std::size_t need = 0;
      for (std::size_t u : SetBits{groups[g].mask}) {
        const std::size_t have = res.user_symbols[u][i];
        if (have < unit.k_symbols)
          need = std::max(need, unit.k_symbols - have);
      }
      if (need == 0) continue;
      const std::size_t send = std::min(need, remaining);
      budget[g][layer] -= static_cast<double>(send);
      for (std::size_t u : SetBits{groups[g].mask})
        res.user_symbols[u][i] += send;
      res.assignments.push_back(sched::UnitAssignment{g, i, send});
    }
    for (std::size_t u = 0; u < n_users; ++u)
      res.user_decodes[u][i] = res.user_symbols[u][i] >= unit.k_symbols;
  }

  double leftover = 0.0;
  for (const auto& b : budget)
    for (double v : b) leftover += v;
  res.leftover_symbols = static_cast<std::size_t>(leftover);
  return res;
}

}  // namespace w4k::oracle
