// Golden-report generator: runs one of six pinned end-to-end scenarios and
// emits its SessionReport as canonical JSON (SessionReport::write_json).
// scripts/golden.sh diffs the output against the blessed files in
// tests/golden/data/ across W4K_THREADS and W4K_FORCE_SCALAR combinations
// — any byte difference means the streaming pipeline's numbers moved, by
// a real change or by lost determinism, and either way a human must look.
//
// Usage: golden_report <static4|faulted|mobile|multiap|relay|baselines>
//                      [--out FILE] [--model-cache PATH]
#include "beamforming/codebook.h"
#include "channel/mobility.h"
#include "channel/multi_ap.h"
#include "core/experiment.h"
#include "core/frame_context.h"
#include "core/pretrained.h"
#include "core/report.h"
#include "core/runner.h"
#include "core/session.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "video/synthetic.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

constexpr int kW = 256;
constexpr int kH = 144;

using namespace w4k;

std::vector<core::FrameContext> contexts() {
  video::VideoSpec spec;
  spec.width = kW;
  spec.height = kH;
  spec.frames = 4;
  spec.richness = video::Richness::kHigh;
  spec.seed = 11;
  return core::make_contexts(video::SyntheticVideo(spec), 3,
                             core::scaled_symbol_size(kW, kH));
}

core::MulticastSession session(model::QualityModel& quality) {
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  return core::MulticastSession(cfg, quality, beamforming::Codebook{});
}

std::vector<linalg::CVector> static_channels(std::size_t n) {
  Rng rng(5);
  channel::PropagationConfig prop;
  return core::channels_for(prop,
                            core::place_users_fixed(n, 3.0, 1.047, rng));
}

core::SessionReport run_static4(model::QualityModel& quality) {
  auto s = session(quality);
  const auto ctx = contexts();
  return core::run_static(s, {static_channels(4)}, ctx, 12);
}

core::SessionReport run_faulted(model::QualityModel& quality) {
  constexpr std::size_t kUsers = 3;
  constexpr int kFrames = 16;
  auto s = session(quality);
  const auto ctx = contexts();
  const fault::FaultInjector injector(
      fault::FaultPlan::random(/*seed=*/20240801, kFrames, kUsers), kUsers);
  return core::run_static(s, {static_channels(kUsers)}, ctx, kFrames,
                          &injector);
}

// Two APs on opposite walls, four users, a pinned AP-outage + handoff-
// beacon-loss plan: exercises attachment, partition-pure grouping, sector
// faults, and mid-session handoff. Pinned like everything else — any byte
// change means the multi-AP numbers moved.
core::SessionReport run_multiap(model::QualityModel& quality) {
  constexpr std::size_t kUsers = 4;
  constexpr int kFrames = 16;
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.handoff.n_aps = 2;
  cfg.handoff.min_dwell_frames = 4;
  core::MulticastSession s(cfg, quality, beamforming::Codebook{});
  const auto ctx = contexts();
  Rng rng(5);
  channel::PropagationConfig prop;
  const auto users = core::place_users_fixed(kUsers, 3.0, 1.047, rng);
  channel::MultiApGeometry geo;
  geo.prop = prop;
  geo.aps = channel::default_ap_layout(2, prop.room);
  fault::RandomPlanConfig rcfg;
  rcfg.n_aps = 2;
  rcfg.handoff_beacon_losses = 1;
  fault::FaultPlan plan =
      fault::FaultPlan::random(/*seed=*/20250801, kFrames, kUsers, rcfg);
  // On top of the pinned random draws, one long total outage of AP 0 —
  // long enough to walk every attached user through degraded → probing →
  // handing-off → attached-to-AP-1, so the golden pins a committed switch.
  // (Random ap_outages stay 0 here: a random outage of the alternate AP
  // would abort every probe, which is chaos-test material, not a golden.)
  fault::ApOutage outage;
  outage.start_frame = 4;
  outage.n_frames = 8;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);
  return core::run_static(s, channel::ap_channel_stacks(geo, users), ctx,
                          kFrames, &injector,
                          channel::ap_user_azimuths(geo, users));
}

// Single AP, persistent blockage drives one user into quarantine, then the
// LoS peers relay base-layer symbols to it: pins the relay airtime
// accounting and the relayed-symbol decode path.
core::SessionReport run_relay(model::QualityModel& quality) {
  constexpr std::size_t kUsers = 4;
  constexpr int kFrames = 20;
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.relay.enabled = true;
  cfg.quarantine_after = 3;
  cfg.quarantine_reprobe_period = 4;
  core::MulticastSession s(cfg, quality, beamforming::Codebook{});
  const auto ctx = contexts();
  fault::FaultPlan plan;
  fault::BlockageBurst burst;
  burst.start_frame = 2;
  burst.n_frames = 18;
  burst.user = 3;
  burst.extra_loss_db = 30.0;
  plan.blockage.push_back(burst);
  // Miss every beacon during the burst: decisions run on pre-burst held
  // CSI, so the blocked user keeps being scheduled at full MCS and decodes
  // nothing — the streak that drives quarantine, and from there the peers
  // start relaying base-layer symbols to it.
  for (std::uint32_t f = 2; f < 20; ++f)
    plan.csi.push_back({f, /*corrupt=*/false});
  const fault::FaultInjector injector(plan, kUsers);
  return core::run_static(s, {static_channels(kUsers)}, ctx, kFrames,
                          &injector);
}

core::SessionReport run_mobile(model::QualityModel& quality) {
  auto s = session(quality);
  const auto ctx = contexts();
  channel::MovingReceiverConfig mc;
  mc.n_users = 2;
  mc.duration = 0.5;  // 5 beacons x 3 frames each
  mc.seed = 9;
  return core::run_trace(s, channel::moving_receiver_trace(mc), ctx);
}

// The paper's baselines, which no other golden reaches, merged into one
// report. First No-Update (Sec. 4.3.4) on estimated CSI over a walking
// trace: the frozen decision rides the firmware-tracked codebook sector,
// while lost feedback reports and a budget collapse exercise blind makeup
// and shedding on top of it. Then round-robin scheduling (Sec. 4.2.2) over
// pre-defined multicast sectors on the static 4-user placement.
core::SessionReport run_baselines(model::QualityModel& quality) {
  const auto ctx = contexts();
  const beamforming::Codebook codebook = beamforming::make_sector_codebook(
      beamforming::CodebookConfig{32, 96});

  core::SessionConfig frozen = core::SessionConfig::scaled(kW, kH);
  frozen.adapt = false;
  frozen.use_estimated_csi = true;
  core::MulticastSession no_update(frozen, quality, codebook);
  channel::MovingReceiverConfig mc;
  mc.n_users = 2;
  mc.duration = 0.5;  // 5 beacons x 3 frames each
  mc.seed = 9;
  fault::FaultPlan plan;
  plan.feedback.push_back({2, 0, -1});
  plan.feedback.push_back({3, 0, -1});
  plan.feedback.push_back({4, 0, -1});
  plan.feedback.push_back({7, 1, -1});
  plan.feedback.push_back({9, 1, /*delay_frames=*/2});
  plan.budget.push_back({5, 3, 0.3});
  const fault::FaultInjector injector(plan, mc.n_users);
  core::SessionReport report = core::run_trace(
      no_update, channel::moving_receiver_trace(mc), ctx, 3, &injector);

  core::SessionConfig rr = core::SessionConfig::scaled(kW, kH);
  rr.optimized_schedule = false;
  rr.scheme = beamforming::Scheme::kPredefinedMulticast;
  core::MulticastSession round_robin(rr, quality, codebook);
  report.merge(core::run_static(round_robin, {static_channels(4)}, ctx, 12));
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string out_path;
  std::string cache = "golden_model.cache";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "golden_report: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") out_path = next();
    else if (a == "--model-cache") cache = next();
    else if (scenario.empty()) scenario = a;
    else {
      std::fprintf(stderr, "golden_report: unexpected argument %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (scenario.empty()) {
    std::fprintf(stderr,
                 "usage: golden_report "
                 "<static4|faulted|mobile|multiap|relay|baselines> "
                 "[--out FILE] [--model-cache PATH]\n");
    return 2;
  }

  model::QualityModel quality(42);
  core::PretrainedOptions opts;
  opts.cache_path = cache;
  core::ensure_trained(quality, opts);

  core::SessionReport report;
  if (scenario == "static4") report = run_static4(quality);
  else if (scenario == "faulted") report = run_faulted(quality);
  else if (scenario == "mobile") report = run_mobile(quality);
  else if (scenario == "multiap") report = run_multiap(quality);
  else if (scenario == "relay") report = run_relay(quality);
  else if (scenario == "baselines") report = run_baselines(quality);
  else {
    std::fprintf(stderr, "golden_report: unknown scenario '%s'\n",
                 scenario.c_str());
    return 2;
  }

  if (out_path.empty()) {
    report.write_json(std::cout);
  } else {
    report.write_json_file(out_path);
  }
  return 0;
}
