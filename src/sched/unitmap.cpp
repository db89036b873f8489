#include "sched/unitmap.h"

#include "common/bits.h"
#include "verify/invariants.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace w4k::sched {

std::vector<UnitSpec> frame_units(int width, int height,
                                  std::size_t symbol_size,
                                  std::size_t symbols_per_unit) {
  if (symbol_size == 0 || symbols_per_unit == 0)
    throw std::invalid_argument("frame_units: zero symbol geometry");
  const std::size_t unit_bytes = symbol_size * symbols_per_unit;
  std::vector<UnitSpec> units;
  for (int l = 0; l < video::kNumLayers; ++l) {
    std::uint16_t index_in_layer = 0;
    const std::size_t sub_bytes = video::sublayer_bytes(l, width, height);
    for (int k = 0; k < video::sublayer_count(l); ++k) {
      std::size_t offset = 0;
      while (offset < sub_bytes) {
        UnitSpec u;
        u.id.layer = static_cast<std::uint16_t>(l);
        u.id.sublayer = index_in_layer++;
        u.sublayer_k = k;
        u.offset = offset;
        u.source_bytes = std::min(unit_bytes, sub_bytes - offset);
        u.k_symbols = (u.source_bytes + symbol_size - 1) / symbol_size;
        offset += u.source_bytes;
        units.push_back(u);
      }
    }
  }
  return units;
}

void map_to_units_into(std::span<const GroupSpec> groups,
                       std::span<const LayerArray> group_layer_bytes,
                       const std::vector<UnitSpec>& units,
                       std::size_t n_users, std::size_t symbol_size,
                       UnitMapScratch& scratch, UnitMapResult& res) {
  if (groups.size() != group_layer_bytes.size())
    throw std::invalid_argument("map_to_units: groups/bytes size mismatch");
  check_group_masks(groups, n_users, "map_to_units");

  // Whole-symbol budgets per (group, layer).
  std::vector<LayerArray>& budget = scratch.budget;
  budget.assign(groups.size(), LayerArray{});
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (int j = 0; j < video::kNumLayers; ++j) {
      const auto js = static_cast<std::size_t>(j);
      budget[g][js] = std::floor(group_layer_bytes[g][js] /
                                 static_cast<double>(symbol_size));
    }

  res.assignments.clear();
  res.leftover_symbols = 0;
  // Row-by-row reset (rather than assign with a freshly constructed row
  // prototype) so each reused row keeps its capacity.
  if (res.user_symbols.size() != n_users) res.user_symbols.resize(n_users);
  if (res.user_decodes.size() != n_users) res.user_decodes.resize(n_users);
  for (auto& row : res.user_symbols) row.assign(units.size(), 0);
  for (auto& row : res.user_decodes) row.assign(units.size(), false);

  // Only groups with some budget can send or count toward completing a
  // unit: a zero-budget group adds 0 to every potential and is skipped by
  // `remaining == 0`. Listing the others once (ascending, so the greedy's
  // group order is kept) spares the two per-unit scans over all groups;
  // typically only a handful of the candidate groups get airtime.
  std::vector<std::size_t>& active = scratch.active;
  active.clear();
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (std::any_of(budget[g].begin(), budget[g].end(),
                    [](double b) { return b > 0.0; }))
      active.push_back(g);

  // Units are already ordered layer-asc then unit-asc by construction.
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitSpec& unit = units[i];
    const auto layer = static_cast<std::size_t>(unit.id.layer);

    // Completability pre-check (an addition over the paper's plain
    // ordering): if no receiver could reach k symbols for this unit even
    // with every involved group's entire remaining layer budget, sending
    // anything here strands symbols that a later (e.g. smaller) unit
    // could still use. Skip the unit and keep the budget.
    bool completable = false;
    for (std::size_t u = 0; u < n_users && !completable; ++u) {
      std::size_t potential = res.user_symbols[u][i];
      for (std::size_t g : active)
        if (groups[g].contains(u))
          potential += static_cast<std::size_t>(budget[g][layer]);
      completable = potential >= unit.k_symbols;
    }
    if (!completable) continue;

    for (std::size_t g : active) {
      auto remaining = static_cast<std::size_t>(budget[g][layer]);
      if (remaining == 0) continue;
      // Symbols needed to complete this unit for *every* member: the
      // largest member deficit (a transmitted symbol reaches all members).
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
      res.assignments.push_back(UnitAssignment{g, i, send});
    }
    for (std::size_t u = 0; u < n_users; ++u)
      res.user_decodes[u][i] = res.user_symbols[u][i] >= unit.k_symbols;
  }

  double leftover = 0.0;
  for (const auto& b : budget)
    for (double v : b) leftover += v;
  res.leftover_symbols = static_cast<std::size_t>(leftover);

  if (verify::enabled()) {
    // Conservation: every per-user symbol tally must be exactly the sum of
    // assignments over the groups that user belongs to, and every assignment
    // must reference a valid (group, unit) cell with a positive count.
    std::vector<std::vector<std::size_t>>& replay = scratch.replay;
    if (replay.size() < n_users) replay.resize(n_users);
    for (std::size_t u = 0; u < n_users; ++u) replay[u].assign(units.size(), 0);
    for (const auto& a : res.assignments) {
      verify::check(a.group < groups.size() && a.unit_index < units.size(),
                    "sched.unitmap-bad-assignment", [&] {
                      return "group " + std::to_string(a.group) + "/unit " +
                             std::to_string(a.unit_index) + " out of range";
                    });
      verify::check(a.symbols > 0, "sched.unitmap-empty-assignment", [&] {
        return "zero-symbol assignment at group " + std::to_string(a.group) +
               " unit " + std::to_string(a.unit_index);
      });
      if (a.group >= groups.size() || a.unit_index >= units.size()) continue;
      for (std::size_t u : SetBits{groups[a.group].mask})
        replay[u][a.unit_index] += a.symbols;
    }
    for (std::size_t u = 0; u < n_users; ++u)
      for (std::size_t i = 0; i < units.size(); ++i) {
        verify::check(replay[u][i] == res.user_symbols[u][i],
                      "sched.unitmap-symbol-conservation", [&] {
                        return "user " + std::to_string(u) + " unit " +
                               std::to_string(i) + ": tallied " +
                               std::to_string(res.user_symbols[u][i]) +
                               " but assignments sum to " +
                               std::to_string(replay[u][i]);
                      });
        verify::check(!res.user_decodes[u][i] ||
                          res.user_symbols[u][i] >= units[i].k_symbols,
                      "sched.unitmap-decode-below-k", [&] {
                        return "user " + std::to_string(u) + " unit " +
                               std::to_string(i) + " marked decodable with " +
                               std::to_string(res.user_symbols[u][i]) + " < k=" +
                               std::to_string(units[i].k_symbols);
                      });
      }
  }
}

std::size_t decoded_bytes_objective(const UnitMapResult& result,
                                    const std::vector<UnitSpec>& units) {
  std::size_t total = 0;
  for (const auto& user : result.user_decodes)
    for (std::size_t i = 0; i < units.size() && i < user.size(); ++i)
      if (user[i]) total += units[i].source_bytes;
  return total;
}

namespace {

/// Recursive exhaustive search over sss(G, i): for each (group, unit)
/// cell in order, try every symbol count up to the remaining layer budget
/// and the unit's need, tracking per-user receptions.
struct ExactSearch {
  const std::vector<GroupSpec>& groups;
  const std::vector<UnitSpec>& units;
  std::size_t n_users;
  std::vector<std::array<std::size_t, video::kNumLayers>> budget;  // symbols
  std::vector<std::vector<std::size_t>> user_symbols;  // [user][unit]
  std::size_t best = 0;
  std::size_t states = 0;

  void run(std::size_t cell) {
    if (++states > 10'000'000)
      throw std::invalid_argument(
          "exact_unit_objective: instance too large for exhaustive search");
    const std::size_t n_cells = groups.size() * units.size();
    if (cell == n_cells) {
      std::size_t total = 0;
      for (std::size_t u = 0; u < n_users; ++u)
        for (std::size_t i = 0; i < units.size(); ++i)
          if (user_symbols[u][i] >= units[i].k_symbols)
            total += units[i].source_bytes;
      best = std::max(best, total);
      return;
    }
    const std::size_t g = cell / units.size();
    const std::size_t i = cell % units.size();
    const auto layer = static_cast<std::size_t>(units[i].id.layer);
    // A cell never usefully exceeds the unit's k (extras are pure waste
    // for every member), so cap the branch factor at k.
    const std::size_t cap =
        std::min(budget[g][layer], units[i].k_symbols);
    for (std::size_t send = 0; send <= cap; ++send) {
      budget[g][layer] -= send;
      for (std::size_t u : SetBits{groups[g].mask})
        user_symbols[u][i] += send;
      run(cell + 1);
      for (std::size_t u : SetBits{groups[g].mask})
        user_symbols[u][i] -= send;
      budget[g][layer] += send;
    }
  }
};

}  // namespace

std::size_t exact_unit_objective(
    const std::vector<GroupSpec>& groups,
    const std::vector<LayerArray>& group_layer_bytes,
    const std::vector<UnitSpec>& units, std::size_t n_users,
    std::size_t symbol_size) {
  if (groups.size() != group_layer_bytes.size())
    throw std::invalid_argument("exact_unit_objective: size mismatch");
  ExactSearch search{groups, units, n_users, {}, {}, 0, 0};
  search.budget.resize(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (int j = 0; j < video::kNumLayers; ++j)
      search.budget[g][static_cast<std::size_t>(j)] =
          static_cast<std::size_t>(
              group_layer_bytes[g][static_cast<std::size_t>(j)] /
              static_cast<double>(symbol_size));
  search.user_symbols.assign(n_users,
                             std::vector<std::size_t>(units.size(), 0));
  search.run(0);
  return search.best;
}

}  // namespace w4k::sched
