// Parameterized scenario generation for the campaign engine (DESIGN.md
// Sec. 4i): a pure function from (campaign seed, cell index) to one fully
// specified evaluation cell — room geometry and AP layout, crowd size and
// mobility model, blockage intensity, churn rate, video richness, fault
// plan, and session knobs — expressed entirely through the existing
// SessionConfig / FaultPlan / MultiApGeometry surfaces.
//
// Purity is the contract everything else leans on: the same
// (campaign_seed, cell_index) pair yields a byte-identical ScenarioSpec
// (and hence, because the whole streaming stack is deterministic with
// decide_deadline_ms == 0, a byte-identical SessionReport) on any thread,
// any worker process, and any worker-count partition of a campaign. The
// property suite pins this via ScenarioSpec::to_text().
#pragma once

#include "channel/multi_ap.h"
#include "core/session.h"
#include "fault/plan.h"
#include "video/synthetic.h"

#include <cstdint>
#include <string>

namespace w4k::campaign {

/// Emulation resolution every campaign cell streams at. Kept small (and a
/// multiple of 16 per SyntheticVideo's block constraint) so a 500-cell
/// smoke campaign finishes in CI time; the rate scale and symbol size are
/// resolution-matched (SessionConfig::scaled), so the operating regime
/// still mirrors the paper's 4K testbed.
inline constexpr int kCellWidth = 192;
inline constexpr int kCellHeight = 112;

/// What kind of run a cell performs.
enum class CellKind : std::uint8_t {
  kStatic = 0,   ///< single AP, static users (run_static)
  kMobile = 1,   ///< single AP, random-waypoint walkers (run_trace)
  kMultiAp = 2,  ///< 2-4 APs, handoff (+ optional relay), run_static
};

const char* to_string(CellKind k);

/// One fully specified campaign cell. Plain data; materialized into the
/// runtime objects via make_config / make_fault_plan / make_geometry.
struct ScenarioSpec {
  std::uint64_t campaign_seed = 0;
  std::uint64_t cell_index = 0;
  CellKind kind = CellKind::kStatic;

  // --- Video (content richness) ---------------------------------------
  video::Richness richness = video::Richness::kHigh;
  /// Drawn from a small palette so workers can cache the expensive frame
  /// contexts per (richness, video_seed) instead of re-encoding per cell.
  std::uint64_t video_seed = 11;

  // --- Population and geometry -----------------------------------------
  std::size_t n_users = 4;
  double distance_m = 3.0;   ///< placement distance (static / multi-AP)
  double mas_rad = 1.0;      ///< maximum angular spacing of the placement
  std::uint64_t placement_seed = 5;
  double room_length_m = 20.0;
  double room_width_m = 12.0;
  std::size_t n_aps = 1;     ///< > 1 only for kMultiAp

  // --- Mobility (kMobile) ----------------------------------------------
  double walk_speed_mps = 1.0;
  int n_beacons = 4;         ///< trace snapshots; frames = 3 per beacon

  // --- Streaming length (kStatic / kMultiAp) ---------------------------
  int n_frames = 8;

  // --- Faults (blockage intensity, churn rate, outages) ----------------
  bool faults_enabled = true;
  std::uint64_t fault_seed = 0;
  fault::RandomPlanConfig fault_cfg;

  // --- Session knobs -----------------------------------------------------
  std::uint64_t session_seed = 1;
  double mcs_margin_db = 0.0;
  bool relay = false;
  int quarantine_after = 6;
  int quarantine_reprobe_period = 8;
  int min_dwell_frames = 8;  ///< handoff dwell (kMultiAp)

  /// Frames the cell actually streams (kMobile derives it from the trace).
  int frames() const;

  /// Canonical text form: one "key value" line per field, doubles printed
  /// with %.17g. Two specs are identical iff their to_text() bytes are —
  /// the purity property compares exactly this.
  std::string to_text() const;
};

/// The generator: ScenarioGen::cell is a pure function of its arguments
/// (internally a dedicated splitmix64-seeded Rng; no globals, no clock).
struct ScenarioGen {
  static ScenarioSpec cell(std::uint64_t campaign_seed,
                           std::uint64_t cell_index);
};

/// Materializes the session config for a cell. Always validates (throws
/// std::invalid_argument on an internal generator bug — the property suite
/// sweeps for exactly that). decide_deadline_ms stays 0 for every cell:
/// campaign outputs must be pure functions of the spec.
core::SessionConfig make_config(const ScenarioSpec& spec);

/// The cell's fault plan (empty when !faults_enabled), validated against
/// the cell's user and AP counts.
fault::FaultPlan make_fault_plan(const ScenarioSpec& spec);

/// Room geometry for a static or multi-AP cell: the default wall layout of
/// `n_aps` APs in the cell's room (a static cell's one AP is the legacy
/// pose), validated. Throws std::logic_error for mobile cells.
channel::MultiApGeometry make_geometry(const ScenarioSpec& spec);

}  // namespace w4k::campaign
