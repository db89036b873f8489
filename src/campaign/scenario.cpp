#include "campaign/scenario.h"

#include "obs/export.h"

#include <sstream>
#include <stdexcept>

namespace w4k::campaign {

using obs::number_text;

namespace {

/// splitmix64 mix of (campaign_seed, cell_index) — the same construction
/// sched::subset_seed uses to decouple parallel substreams. The cell Rng
/// is seeded from this, so neighbouring cells draw independent scenarios.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(CellKind k) {
  switch (k) {
    case CellKind::kStatic: return "static";
    case CellKind::kMobile: return "mobile";
    case CellKind::kMultiAp: return "multiap";
  }
  return "unknown";
}

int ScenarioSpec::frames() const {
  // run_trace streams 3 frames per beacon snapshot (30 FPS vs the 100 ms
  // ACO beacon), so a mobile cell's length is fixed by its trace.
  return kind == CellKind::kMobile ? 3 * n_beacons : n_frames;
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream os;
  os << "campaign_seed " << campaign_seed << '\n'
     << "cell_index " << cell_index << '\n'
     << "kind " << to_string(kind) << '\n'
     << "richness " << (richness == video::Richness::kHigh ? "high" : "low")
     << '\n'
     << "video_seed " << video_seed << '\n'
     << "n_users " << n_users << '\n'
     << "distance_m " << number_text(distance_m) << '\n'
     << "mas_rad " << number_text(mas_rad) << '\n'
     << "placement_seed " << placement_seed << '\n'
     << "room " << number_text(room_length_m) << ' '
     << number_text(room_width_m) << '\n'
     << "n_aps " << n_aps << '\n'
     << "walk_speed_mps " << number_text(walk_speed_mps) << '\n'
     << "n_beacons " << n_beacons << '\n'
     << "n_frames " << frames() << '\n'
     << "faults_enabled " << (faults_enabled ? 1 : 0) << '\n'
     << "fault_seed " << fault_seed << '\n'
     << "fault_cfg " << fault_cfg.feedback_events << ' ' << fault_cfg.csi_events
     << ' ' << fault_cfg.blockage_bursts << ' ' << fault_cfg.budget_collapses
     << ' ' << fault_cfg.churn_events << ' ' << fault_cfg.max_burst_frames
     << ' ' << number_text(fault_cfg.min_blockage_db) << ' '
     << number_text(fault_cfg.max_blockage_db) << ' '
     << number_text(fault_cfg.min_budget_scale)
     << ' ' << fault_cfg.ap_outages << ' ' << fault_cfg.handoff_beacon_losses
     << ' ' << fault_cfg.relay_churns << ' ' << fault_cfg.n_aps << '\n'
     << "session_seed " << session_seed << '\n'
     << "mcs_margin_db " << number_text(mcs_margin_db) << '\n'
     << "relay " << (relay ? 1 : 0) << '\n'
     << "quarantine_after " << quarantine_after << '\n'
     << "quarantine_reprobe_period " << quarantine_reprobe_period << '\n'
     << "min_dwell_frames " << min_dwell_frames << '\n';
  return os.str();
}

ScenarioSpec ScenarioGen::cell(std::uint64_t campaign_seed,
                               std::uint64_t cell_index) {
  Rng rng(mix(campaign_seed, cell_index));
  ScenarioSpec s;
  s.campaign_seed = campaign_seed;
  s.cell_index = cell_index;

  // Scenario family: the population leans on the multi-AP and static
  // sweeps (the behaviour spaces PR 6 and PR 8 opened) with a mobile
  // slice for trace-driven staleness.
  const double kind_draw = rng.uniform();
  s.kind = kind_draw < 0.40   ? CellKind::kStatic
           : kind_draw < 0.65 ? CellKind::kMobile
                              : CellKind::kMultiAp;

  // Video richness: a small palette of (richness, seed) pairs so workers
  // amortize context construction across cells.
  s.richness = rng.chance(0.5) ? video::Richness::kHigh
                               : video::Richness::kLow;
  static constexpr std::uint64_t kVideoSeeds[3] = {11, 23, 37};
  s.video_seed = kVideoSeeds[rng.below(3)];

  // Room: varied but always large enough to contain every placement drawn
  // below (distance <= 6 m from the origin-wall AP).
  s.room_length_m = rng.uniform(10.0, 20.0);
  s.room_width_m = rng.uniform(8.0, 12.0);

  s.placement_seed = rng.next();
  s.session_seed = 1 + rng.below(1u << 30);
  s.fault_seed = rng.next();
  s.faults_enabled = rng.chance(0.85);

  switch (s.kind) {
    case CellKind::kStatic:
      s.n_users = 2 + rng.below(7);                    // 2..8
      s.distance_m = rng.uniform(2.5, 6.0);
      s.mas_rad = rng.uniform(0.5, 2.0);
      s.n_frames = 6 + static_cast<int>(rng.below(5)); // 6..10
      s.mcs_margin_db = rng.uniform(0.0, 1.0);
      // A relay slice mirrors the `relay` golden: persistent blockage plus
      // quarantine makes D2D relay the recovery path.
      s.relay = rng.chance(0.25);
      break;
    case CellKind::kMobile:
      s.n_users = 1 + rng.below(3);                    // 1..3
      s.n_beacons = 3 + static_cast<int>(rng.below(3)); // 3..5 -> 9..15 frames
      s.walk_speed_mps = rng.uniform(0.5, 1.5);
      s.mcs_margin_db = rng.uniform(1.0, 2.0);
      break;
    case CellKind::kMultiAp:
      s.n_users = 3 + rng.below(6);                    // 3..8
      s.n_aps = 2 + rng.below(3);                      // 2..4
      s.distance_m = rng.uniform(2.5, 5.0);
      s.mas_rad = rng.uniform(0.5, 1.2);
      s.n_frames = 8 + static_cast<int>(rng.below(5)); // 8..12
      s.mcs_margin_db = rng.uniform(0.0, 1.0);
      s.min_dwell_frames = 2 + static_cast<int>(rng.below(5));
      s.relay = rng.chance(0.5);
      break;
  }
  if (s.relay) {
    // Relay targets quarantined users; make quarantine bite within a cell.
    s.quarantine_after = 3;
    s.quarantine_reprobe_period = 4;
  }

  // Fault intensity: blockage depth, churn rate, and outage counts are the
  // sweep dimensions the paper's evaluation populations vary.
  fault::RandomPlanConfig& fc = s.fault_cfg;
  fc.feedback_events = static_cast<int>(rng.below(7));       // 0..6
  fc.csi_events = static_cast<int>(rng.below(5));            // 0..4
  fc.blockage_bursts = static_cast<int>(rng.below(4));       // 0..3
  fc.budget_collapses = static_cast<int>(rng.below(3));      // 0..2
  fc.churn_events = s.n_users > 1 ? static_cast<int>(rng.below(4)) : 0;
  fc.max_burst_frames =
      1 + static_cast<std::uint32_t>(rng.below(
              static_cast<std::uint64_t>(s.frames())));
  fc.max_blockage_db = rng.uniform(10.0, 30.0);
  fc.min_blockage_db = rng.uniform(6.0, fc.max_blockage_db - 2.0);
  fc.min_budget_scale = rng.uniform(0.05, 0.4);
  if (s.kind == CellKind::kMultiAp) {
    fc.n_aps = s.n_aps;
    fc.ap_outages = static_cast<int>(rng.below(3));          // 0..2
    fc.handoff_beacon_losses = static_cast<int>(rng.below(3));
  }
  if (s.relay) fc.relay_churns = static_cast<int>(rng.below(3));
  return s;
}

core::SessionConfig make_config(const ScenarioSpec& spec) {
  core::SessionConfig cfg = core::SessionConfig::scaled(kCellWidth,
                                                        kCellHeight);
  cfg.seed = spec.session_seed;
  cfg.mcs_margin_db = spec.mcs_margin_db;
  cfg.quarantine_after = spec.quarantine_after;
  cfg.quarantine_reprobe_period = spec.quarantine_reprobe_period;
  // decide_deadline_ms stays 0: a deadline makes decide_into()
  // clock-dependent, and campaign summaries must be byte-stable across
  // machines and worker partitions.
  if (spec.kind == CellKind::kMultiAp) {
    cfg.handoff.n_aps = spec.n_aps;
    cfg.handoff.min_dwell_frames = spec.min_dwell_frames;
  }
  cfg.relay.enabled = spec.relay;
  cfg.validate();
  return cfg;
}

fault::FaultPlan make_fault_plan(const ScenarioSpec& spec) {
  if (!spec.faults_enabled) return {};
  const fault::FaultPlan plan = fault::FaultPlan::random(
      spec.fault_seed, static_cast<std::uint32_t>(spec.frames()),
      spec.n_users, spec.fault_cfg);
  plan.validate(spec.n_users, spec.n_aps);
  return plan;
}

channel::MultiApGeometry make_geometry(const ScenarioSpec& spec) {
  if (spec.kind == CellKind::kMobile)
    throw std::logic_error("make_geometry: mobile cells have no static room");
  channel::MultiApGeometry geo;
  geo.prop.room.length = spec.room_length_m;
  geo.prop.room.width = spec.room_width_m;
  geo.aps = channel::default_ap_layout(spec.n_aps, geo.prop.room);
  geo.validate();
  return geo;
}

}  // namespace w4k::campaign
