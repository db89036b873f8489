// Mapping the per-layer byte allocation onto rateless coding units and a
// packet-level transmission plan (Sec. 2.6, Eq. 4).
//
// A video frame's layer streams are chopped into coding units of (up to)
// 20 symbols x 6000 B; symbols within a unit are interchangeable, symbols
// of different units are not. Given the optimizer's S(G, j) bytes for each
// multicast group G and layer j, the greedy below decides how many symbols
// of each unit each group transmits, maximizing the number of *complete*
// units at every user. Paper heuristic verbatim: "assign traffic to the
// coding groups in an increasing order; within the same coding group,
// assign it to the multicast groups in an increasing order of group id
// until all receivers across each group get the complete data."
#pragma once

#include "fec/coding_unit.h"
#include "sched/allocate.h"
#include "sched/groups.h"

#include <cstdint>
#include <span>
#include <vector>

namespace w4k::sched {

/// One coding unit's place in the frame's layer streams.
struct UnitSpec {
  fec::UnitId id;              ///< (layer, unit index within layer)
  int sublayer_k = 0;          ///< source video sublayer
  std::size_t offset = 0;      ///< byte offset inside that sublayer buffer
  std::size_t source_bytes = 0;
  std::size_t k_symbols = 0;   ///< symbols needed to decode this unit
};

/// Chops a frame's sublayers into coding units (ascending sublayer k, then
/// offset). Unit ids number units within their layer in that order.
std::vector<UnitSpec> frame_units(int width, int height,
                                  std::size_t symbol_size = fec::kDefaultSymbolSize,
                                  std::size_t symbols_per_unit =
                                      fec::kDefaultSymbolsPerUnit);

/// sss(G, i, j): symbols of unit `unit_index` that group `group` transmits.
struct UnitAssignment {
  std::size_t group = 0;
  std::size_t unit_index = 0;  ///< index into the frame_units() vector
  std::size_t symbols = 0;
};

struct UnitMapResult {
  /// Assignments in transmission-priority order (layer asc, unit asc,
  /// group asc) — the order the sender drains them into packets.
  std::vector<UnitAssignment> assignments;
  /// user_symbols[u][i]: symbols user u receives for unit i if nothing is
  /// lost over the air (sum over its groups' assignments).
  std::vector<std::vector<std::size_t>> user_symbols;
  /// user_decodes[u][i]: whether that is enough to decode unit i.
  std::vector<std::vector<bool>> user_decodes;
  /// Symbols of budget that could not be applied to any incomplete unit.
  std::size_t leftover_symbols = 0;
};

/// Working memory of map_to_units_into: never-shrinking buffers, one per
/// frame loop.
struct UnitMapScratch {
  std::vector<LayerArray> budget;       ///< whole-symbol (group, layer) budgets
  std::vector<std::size_t> active;      ///< groups with any budget
  std::vector<std::vector<std::size_t>> replay;  ///< verify-layer tally
};

/// Runs the Eq. 4 greedy. `group_layer_bytes[g][j]` is the optimizer's
/// S(G, j) — typically Allocation::bytes_rows(); budgets are rounded down
/// to whole symbols. Both spans accept a std::vector implicitly. Writes
/// into a caller-owned result whose per-user rows, like `scratch`, reuse
/// their capacity across frames (zero heap allocations in steady state).
/// Throws std::invalid_argument when the spans differ in length, and on
/// more than 64 users or a group mask naming a user >= n_users.
void map_to_units_into(std::span<const GroupSpec> groups,
                       std::span<const LayerArray> group_layer_bytes,
                       const std::vector<UnitSpec>& units,
                       std::size_t n_users, std::size_t symbol_size,
                       UnitMapScratch& scratch, UnitMapResult& res);

/// Reference solver for Eq. 4: exhaustively searches symbol assignments
/// and returns the maximum total decoded bytes across users (the
/// objective the greedy approximates). Exponential — usable only for the
/// tiny instances the validation tests construct; throws
/// std::invalid_argument when the search space exceeds ~10^7 states.
std::size_t exact_unit_objective(
    const std::vector<GroupSpec>& groups,
    const std::vector<LayerArray>& group_layer_bytes,
    const std::vector<UnitSpec>& units, std::size_t n_users,
    std::size_t symbol_size = fec::kDefaultSymbolSize);

/// Total decoded bytes of a UnitMapResult under the same objective.
std::size_t decoded_bytes_objective(const UnitMapResult& result,
                                    const std::vector<UnitSpec>& units);

}  // namespace w4k::sched
