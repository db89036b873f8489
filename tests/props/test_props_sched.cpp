// Property suite: scheduler feasibility — simplex projection and unit
// mapping never exceed their budgets and conserve symbols — and the unit
// map's active-group list against the full-scan oracle.
#include "sched/allocate.h"
#include "sched/unitmap.h"
#include "support/proptest.h"
#include "support/unitmap_oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

namespace w4k {
namespace {

using proptest::prop_assert;

TEST(PropsSched, SimplexProjectionIsFeasible) {
  W4K_PROP("sched.simplex-feasible", [](Rng& rng) {
    const std::size_t n = 1 + rng.below(24);
    const double budget = rng.uniform(1e-4, 0.05);
    std::vector<double> t(n);
    for (auto& v : t) v = rng.uniform(-0.02, 0.05);
    std::vector<double> sorted;
    sched::project_to_simplex(t, budget, sorted);
    double sum = 0.0;
    for (double v : t) {
      prop_assert(v >= 0.0, "negative entry " + std::to_string(v));
      sum += v;
    }
    prop_assert(sum <= budget + 1e-9,
                "sum " + std::to_string(sum) + " > budget " +
                    std::to_string(budget));
  });
}

TEST(PropsSched, SimplexProjectionIsIdempotent) {
  W4K_PROP("sched.simplex-idempotent", [](Rng& rng) {
    const std::size_t n = 1 + rng.below(16);
    const double budget = rng.uniform(1e-4, 0.05);
    std::vector<double> t(n);
    for (auto& v : t) v = rng.uniform(-0.02, 0.05);
    std::vector<double> sorted;
    sched::project_to_simplex(t, budget, sorted);
    std::vector<double> again = t;
    sched::project_to_simplex(again, budget, sorted);
    for (std::size_t i = 0; i < n; ++i)
      prop_assert(std::abs(again[i] - t[i]) <= 1e-9,
                  "projection moved an already-feasible point");
  });
}

// Random groups over random layer budgets: the greedy unit mapper must
// never assign more symbols from a (group, layer) than the byte budget
// allows, and each member's tally is the sum of its groups' assignments.
TEST(PropsSched, UnitMapRespectsBudgetsAndConservesSymbols) {
  W4K_PROP("sched.unitmap-budget", [](Rng& rng) {
    const std::size_t n_users = 1 + rng.below(5);
    const std::size_t symbol_size = 64 << rng.below(3);
    const int width = 16 * static_cast<int>(2 + rng.below(4));
    const int height = 16 * static_cast<int>(2 + rng.below(4));
    const auto units = sched::frame_units(width, height, symbol_size,
                                          1 + rng.below(16));

    // Random group structure: each group a random non-empty user subset.
    const std::size_t n_groups = 1 + rng.below(4);
    std::vector<sched::GroupSpec> groups(n_groups);
    std::vector<sched::LayerArray> bytes(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
      for (std::size_t u = 0; u < n_users; ++u)
        if (rng.chance(0.6)) groups[g].mask |= sched::GroupMask{1} << u;
      if (groups[g].mask == 0)
        groups[g].mask = sched::GroupMask{1} << rng.below(n_users);
      for (auto& b : bytes[g])
        b = rng.uniform(0.0, 40.0 * static_cast<double>(symbol_size));
    }

    sched::UnitMapScratch scratch;

    sched::UnitMapResult res;
    sched::map_to_units_into(groups, bytes, units, n_users, symbol_size,
                             scratch, res);

    // Per-(group, layer) symbol spend within the byte budget.
    std::vector<sched::LayerArray> spent(n_groups, sched::LayerArray{});
    for (const auto& a : res.assignments) {
      prop_assert(a.group < n_groups && a.unit_index < units.size(),
                  "assignment indices out of range");
      const auto layer =
          static_cast<std::size_t>(units[a.unit_index].id.layer);
      spent[a.group][layer] += static_cast<double>(a.symbols);
    }
    for (std::size_t g = 0; g < n_groups; ++g)
      for (std::size_t l = 0; l < spent[g].size(); ++l) {
        const double budget_symbols =
            std::floor(bytes[g][l] / static_cast<double>(symbol_size));
        prop_assert(spent[g][l] <= budget_symbols + 1e-9,
                    "group " + std::to_string(g) + " layer " +
                        std::to_string(l) + " spent " +
                        std::to_string(spent[g][l]) + " of " +
                        std::to_string(budget_symbols));
      }

    // Conservation: user tallies equal membership-weighted assignments.
    for (std::size_t u = 0; u < n_users; ++u)
      for (std::size_t i = 0; i < units.size(); ++i) {
        std::size_t expect = 0;
        for (const auto& a : res.assignments)
          if (a.unit_index == i && groups[a.group].contains(u))
            expect += a.symbols;
        prop_assert(res.user_symbols[u][i] == expect,
                    "user tally diverges from assignments");
        prop_assert(res.user_decodes[u][i] ==
                        (res.user_symbols[u][i] >= units[i].k_symbols),
                    "decode flag inconsistent with k");
      }
  });
}

TEST(PropsSched, UnitMapActiveGroupsMatchFullScanOracle) {
  // Many candidate groups, most of them without any budget (as in a
  // 12-user frame, where only a few of ~1k groups get airtime), some with
  // budget in a single layer only. One result object is reused across
  // calls, as the session reuses it.
  sched::UnitMapScratch scratch;
  sched::UnitMapResult res;
  W4K_PROP("sched.unitmap-active-oracle", [&](Rng& rng) {
    const std::size_t n_users = 1 + rng.below(12);
    const std::size_t symbol_size = 64 << rng.below(3);
    const int width = 16 * static_cast<int>(2 + rng.below(4));
    const int height = 16 * static_cast<int>(2 + rng.below(4));
    const auto units = sched::frame_units(width, height, symbol_size,
                                          1 + rng.below(16));

    const std::size_t n_groups = 1 + rng.below(80);
    const double p_budget = rng.uniform(0.0, 0.3);
    std::vector<sched::GroupSpec> groups(n_groups);
    std::vector<sched::LayerArray> bytes(n_groups, sched::LayerArray{});
    for (std::size_t g = 0; g < n_groups; ++g) {
      for (std::size_t u = 0; u < n_users; ++u)
        if (rng.chance(0.4)) groups[g].mask |= sched::GroupMask{1} << u;
      if (groups[g].mask == 0)
        groups[g].mask = sched::GroupMask{1} << rng.below(n_users);
      if (!rng.chance(p_budget)) {
        // Zero budget, or bytes below one symbol (floors to zero).
        if (rng.chance(0.5))
          for (auto& b : bytes[g])
            b = rng.uniform(0.0, static_cast<double>(symbol_size) - 1.0);
        continue;
      }
      const bool one_layer = rng.chance(0.3);
      const std::size_t only = rng.below(bytes[g].size());
      for (std::size_t l = 0; l < bytes[g].size(); ++l)
        if (!one_layer || l == only)
          bytes[g][l] = rng.uniform(0.0, 60.0 * static_cast<double>(symbol_size));
    }

    sched::map_to_units_into(groups, bytes, units, n_users, symbol_size,
                             scratch, res);
    const auto want = oracle::map_to_units_full_scan(groups, bytes, units,
                                                     n_users, symbol_size);
    prop_assert(res.assignments.size() == want.assignments.size(),
                "assignment count " + std::to_string(res.assignments.size()) +
                    " != oracle " + std::to_string(want.assignments.size()));
    for (std::size_t a = 0; a < want.assignments.size(); ++a) {
      const auto& got = res.assignments[a];
      const auto& exp = want.assignments[a];
      prop_assert(got.group == exp.group && got.unit_index == exp.unit_index &&
                      got.symbols == exp.symbols,
                  "assignment " + std::to_string(a) + " differs from oracle");
    }
    prop_assert(res.user_symbols == want.user_symbols,
                "user_symbols differ from oracle");
    prop_assert(res.user_decodes == want.user_decodes,
                "user_decodes differ from oracle");
    prop_assert(res.leftover_symbols == want.leftover_symbols,
                "leftover_symbols " + std::to_string(res.leftover_symbols) +
                    " != oracle " + std::to_string(want.leftover_symbols));
  });
}

}  // namespace
}  // namespace w4k
