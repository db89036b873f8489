// w4k_sim — command-line front end to the whole system.
//
// Streams a clip (synthetic or Y4M) to N emulated WiGig receivers and
// reports quality; covers static placements and recorded/generated mobile
// CSI traces. The Swiss-army binary of the release.
//
//   w4k_sim                                 # 3 users at 3 m, defaults
//   w4k_sim --users 6 --min-dist 8 --max-dist 16 --mas-deg 120
//   w4k_sim --scheme pre-multicast --schedule roundrobin
//   w4k_sim --trace walk.csitrace --no-adapt
//   w4k_sim --record-trace walk.csitrace --duration 30 --mobile low
//   w4k_sim --y4m clip.y4m --frames 120 --csv out.csv
//
// Options (defaults in brackets):
//   --users N            receiver count [3]
//   --distance M         fixed distance placement [3.0; 0 = random annulus]
//   --min-dist/--max-dist  annulus when --distance 0 [8/16]
//   --mas-deg D          maximum angular spacing [60]
//   --scheme S           opt-multicast | pre-multicast | opt-unicast |
//                        pre-unicast [opt-multicast]
//   --schedule S         optimized | roundrobin [optimized]
//   --no-rate-control    disable the leaky bucket
//   --no-source-coding   disable the rateless code
//   --no-adapt           freeze the initial decision (No Update)
//   --estimated-csi      run ACO estimation instead of perfect CSI
//   --decide-deadline-ms B  anytime budget for the per-frame decision; 0
//                        keeps the pure deterministic path [0]
//   --mobile high|low|env  generate a mobile trace instead of static
//   --trace PATH         replay a recorded .csitrace file
//   --record-trace PATH  save the generated trace before streaming
//   --duration S         trace length in seconds [20]
//   --frames N           frames to stream in static mode [60]
//   --y4m PATH           stream a real Y4M clip instead of synthetic
//   --width/--height     synthetic resolution [256x144]
//   --fault-plan P       inject faults while streaming: a fault-plan file
//                        (see fault/plan.h for the format) or random:SEED
//                        for a seeded random plan covering the whole run
//                        (multi-AP runs draw AP outages, handoff-beacon
//                        losses, and relay churn too)
//   --aps N              access points serving the room [1]; N > 1 adds
//                        per-user attachment, mid-session handoff and
//                        AP-partitioned groups (static runs only)
//   --geometry FILE      AP geometry file (see channel/multi_ap.h format);
//                        its room and AP poses shape every static run, and
//                        it sets the AP count, which must match --aps when
//                        both are given. Without it, --aps N uses the
//                        deterministic default wall layout
//   --relay on|off       peer relay of base-layer symbols from LoS users
//                        to quarantined peers over a D2D side link [off]
//   --quarantine-after N frames of zero decodes before a user is
//                        quarantined; 0 disables quarantine [6]. --relay on
//                        with one AP and 0 here is rejected at validation
//   --manifest PATH      write a run-manifest JSON (config echo including
//                        aps/geometry/relay, environment, stage timings)
//   --csv PATH           write the per-frame report as CSV
//   --trace-out PATH     write a Chrome trace_event JSON of the per-stage
//                        spans (open in Perfetto / chrome://tracing)
//   --metrics-out PATH   write a flat JSON snapshot of all counters,
//                        gauges, histograms and stage timers
//   --seed N             master seed [1]
#include "channel/array.h"
#include "channel/multi_ap.h"
#include "channel/trace_io.h"
#include "common/args.h"
#include "common/thread_pool.h"
#include "core/pretrained.h"
#include "core/report.h"
#include "core/runner.h"
#include "fault/plan.h"
#include "obs/export.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "video/io.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>

namespace {

using namespace w4k;

beamforming::Scheme parse_scheme(const std::string& s) {
  if (s == "opt-multicast") return beamforming::Scheme::kOptimizedMulticast;
  if (s == "pre-multicast") return beamforming::Scheme::kPredefinedMulticast;
  if (s == "opt-unicast") return beamforming::Scheme::kOptimizedUnicast;
  if (s == "pre-unicast") return beamforming::Scheme::kPredefinedUnicast;
  throw std::invalid_argument("--scheme: unknown scheme '" + s + "'");
}

/// Resolves --fault-plan: a file path, or "random:SEED" for a seeded plan
/// sized to the run. Multi-AP runs (n_aps > 1) extend random plans with AP
/// outages, handoff-beacon losses, and (with relay on) relay churn; with
/// one AP the generated plan is bit-identical to the pre-multi-AP
/// generator.
fault::FaultPlan resolve_fault_plan(const std::string& arg,
                                    std::uint32_t n_frames,
                                    std::size_t n_users, std::size_t n_aps,
                                    bool relay_on) {
  if (arg.rfind("random:", 0) == 0) {
    std::uint64_t fseed = 0;
    std::size_t used = 0;
    const std::string seed_str = arg.substr(7);
    try {
      fseed = std::stoull(seed_str, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != seed_str.size())
      throw std::invalid_argument("--fault-plan: '" + seed_str +
                                  "' is not a valid seed (expected "
                                  "random:<unsigned integer>)");
    fault::RandomPlanConfig rcfg;
    if (n_aps > 1) {
      rcfg.n_aps = n_aps;
      rcfg.ap_outages = 2;
      rcfg.handoff_beacon_losses = 2;
    }
    if (relay_on) rcfg.relay_churns = 2;
    return fault::FaultPlan::random(fseed, n_frames, n_users, rcfg);
  }
  fault::FaultPlan plan = fault::load_fault_plan(arg);
  // Range-check file plans against the actual run shape (user and AP
  // indices) instead of failing deep inside a frame.
  plan.validate(n_users, n_aps);
  return plan;
}

std::vector<core::FrameContext> load_contexts(const Args& args, int width,
                                              int height) {
  const std::string y4m = args.get("y4m", std::string{});
  if (!y4m.empty()) {
    video::Y4mReader reader(y4m);
    const auto& hdr = reader.header();
    std::printf("content: %s (%dx%d)\n", y4m.c_str(), hdr.width, hdr.height);
    std::vector<core::FrameContext> ctxs;
    video::Frame prev;
    const std::size_t symbol =
        core::scaled_symbol_size(hdr.width, hdr.height);
    // A handful of contexts is enough — they are cycled during streaming.
    for (int i = 0; i < 8; ++i) {
      auto frame = reader.next();
      if (!frame) break;
      ctxs.push_back(core::make_frame_context(
          *frame, ctxs.empty() ? nullptr : &prev, symbol));
      prev = std::move(*frame);
    }
    if (ctxs.empty())
      throw std::runtime_error("y4m clip contains no frames");
    return ctxs;
  }
  video::VideoSpec spec = video::standard_videos(width, height, 10)[0];
  std::printf("content: synthetic %s (%dx%d)\n", spec.name.c_str(), width,
              height);
  return core::make_contexts(video::SyntheticVideo(spec), 8,
                             core::scaled_symbol_size(width, height));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);

    const int width = args.get("width", 256);
    const int height = args.get("height", 144);
    const auto n_users = static_cast<std::size_t>(args.get("users", 3));
    const auto seed = static_cast<std::uint64_t>(args.get("seed", 1));

    // --- Multi-AP geometry and relay flags ---------------------------------
    const bool aps_given = args.has("aps");
    const auto aps_arg = static_cast<std::size_t>(args.get("aps", 1));
    const std::string geometry_path = args.get("geometry", std::string{});
    const std::string relay_arg = args.get("relay", std::string("off"));
    if (relay_arg != "on" && relay_arg != "off")
      throw std::invalid_argument("--relay: expected on|off, got '" +
                                  relay_arg + "'");
    const bool relay_on = relay_arg == "on";
    channel::MultiApGeometry geometry;
    if (!geometry_path.empty()) {
      geometry = channel::load_geometry(geometry_path);
      if (aps_given && aps_arg != geometry.n_aps())
        throw std::invalid_argument(
            "--aps " + std::to_string(aps_arg) + " contradicts --geometry " +
            geometry_path + " (" + std::to_string(geometry.n_aps()) + " APs)");
      std::printf("geometry: %s (%zu APs)\n", geometry_path.c_str(),
                  geometry.n_aps());
    } else {
      geometry.aps = channel::default_ap_layout(aps_arg, geometry.prop.room);
    }
    const std::size_t n_aps = geometry.n_aps();

    // --- Content -----------------------------------------------------------
    const auto contexts = load_contexts(args, width, height);
    const int ctx_w = contexts.front().original.width();
    const int ctx_h = contexts.front().original.height();

    // --- Quality model -----------------------------------------------------
    model::QualityModel quality;
    core::ensure_trained(quality);

    // --- Telemetry ---------------------------------------------------------
    const std::string trace_out = args.get("trace-out", std::string{});
    const std::string metrics_out = args.get("metrics-out", std::string{});
    if (!trace_out.empty() || !metrics_out.empty()) obs::set_enabled(true);
    if (!trace_out.empty()) {
      obs::set_trace_enabled(true);
      obs::reset_trace_epoch();
    }

    // --- Session config ----------------------------------------------------
    core::SessionConfig cfg = core::SessionConfig::scaled(ctx_w, ctx_h);
    cfg.scheme = parse_scheme(args.get("scheme", std::string("opt-multicast")));
    cfg.optimized_schedule =
        args.get("schedule", std::string("optimized")) != "roundrobin";
    cfg.engine.rate_control = !args.has("no-rate-control");
    cfg.engine.source_coding = !args.has("no-source-coding");
    cfg.adapt = !args.has("no-adapt");
    cfg.use_estimated_csi = args.has("estimated-csi");
    // Anytime decision budget (ms). 0 (default) keeps decide_into() a pure
    // function of its inputs; > 0 bounds the per-frame decision wall clock
    // (see SessionConfig::decide_deadline_ms).
    cfg.decide_deadline_ms = args.get("decide-deadline-ms", 0.0);
    cfg.seed = seed;
    cfg.quarantine_after = args.get("quarantine-after", cfg.quarantine_after);
    cfg.handoff.n_aps = n_aps;
    cfg.relay.enabled = relay_on;
    // --relay on with one AP and quarantine disabled fails right here, in
    // SessionConfig::validate (via the session constructor below): there
    // would never be a relay target.

    // --- Channel: trace or static placement --------------------------------
    const std::string trace_path = args.get("trace", std::string{});
    const std::string mobile = args.get("mobile", std::string{});
    if (!trace_path.empty() || !mobile.empty())
      cfg.mcs_margin_db = 1.5;  // stale-CSI headroom under mobility

    core::MulticastSession session(cfg, quality,
                                   beamforming::commodity_codebook());

    // --fault-plan resolves into an injector sized to the run; without the
    // flag there is no injector and the run streams fault-free.
    const std::string fault_arg = args.get("fault-plan", std::string{});
    const auto make_injector = [&](std::size_t run_users,
                                   std::uint32_t run_frames) {
      std::optional<fault::FaultInjector> injector;
      if (fault_arg.empty()) return injector;
      const fault::FaultPlan plan =
          resolve_fault_plan(fault_arg, run_frames, run_users, n_aps, relay_on);
      std::printf(
          "fault plan: %zu feedback, %zu csi, %zu blockage, %zu budget, "
          "%zu churn, %zu ap-outage, %zu handoff-beacon, %zu relay-churn "
          "events over %u frames\n",
          plan.feedback.size(), plan.csi.size(), plan.blockage.size(),
          plan.budget.size(), plan.churn.size(), plan.ap_outage.size(),
          plan.handoff_beacon.size(), plan.relay_churn.size(), run_frames);
      injector.emplace(plan, run_users, n_aps);
      return injector;
    };

    core::SessionReport report;
    if (n_aps > 1 && (!trace_path.empty() || !mobile.empty()))
      throw std::invalid_argument(
          "--aps: multi-AP runs are static-only (drop --trace/--mobile)");
    if (!trace_path.empty() || !mobile.empty()) {
      channel::CsiTrace trace;
      if (!trace_path.empty()) {
        trace = channel::load_trace(trace_path);
        std::printf("trace: %s (%zu steps, %zu users)\n", trace_path.c_str(),
                    trace.steps(), trace.users());
      } else {
        const Seconds duration = args.get("duration", 20.0);
        if (mobile == "env") {
          channel::MovingEnvironmentConfig mcfg;
          Rng prng(seed);
          for (std::size_t u = 0; u < n_users; ++u)
            mcfg.users.push_back(channel::Position::from_polar(
                prng.uniform(4.0, 7.0), prng.uniform(-0.8, 0.8)));
          mcfg.duration = duration;
          mcfg.seed = seed;
          trace = channel::moving_environment_trace(mcfg);
        } else {
          channel::MovingReceiverConfig mcfg;
          mcfg.n_users = n_users;
          mcfg.duration = duration;
          mcfg.seed = seed;
          if (mobile == "low") {
            mcfg.min_distance = 14.0;
            mcfg.max_distance = 19.0;
          }
          trace = channel::moving_receiver_trace(mcfg);
        }
        std::printf("generated %s-mobility trace: %zu steps\n",
                    mobile.c_str(), trace.steps());
        const std::string record = args.get("record-trace", std::string{});
        if (!record.empty()) {
          channel::save_trace(trace, record);
          std::printf("saved trace to %s\n", record.c_str());
        }
      }
      const auto injector = make_injector(
          trace.users(), static_cast<std::uint32_t>(trace.steps() * 3));
      report = core::run_trace(session, trace, contexts, 3,
                               injector ? &*injector : nullptr);
    } else {
      Rng prng(seed);
      const double distance = args.get("distance", 3.0);
      const double mas = args.get("mas-deg", 60.0) * 0.0174533;
      const auto users =
          distance > 0.0
              ? core::place_users_fixed(n_users, distance, mas, prng)
              : core::place_users_random(n_users,
                                         args.get("min-dist", 8.0),
                                         args.get("max-dist", 16.0), mas,
                                         prng);
      std::printf("placement:");
      for (const auto& u : users)
        std::printf(" (%.1fm, %+.0fdeg)", u.distance(),
                    u.azimuth() * 57.2958);
      std::printf("\n");
      const int n_frames = args.get("frames", 60);
      // Per-AP channel stacks for every AP count: the geometry's room and
      // AP poses (one AP at the origin by default) shape every ray, and the
      // session runs attachment/handoff when there are several APs.
      const auto injector =
          make_injector(users.size(), static_cast<std::uint32_t>(n_frames));
      report = core::run_static(session,
                                channel::ap_channel_stacks(geometry, users),
                                contexts, n_frames,
                                injector ? &*injector : nullptr,
                                channel::ap_user_azimuths(geometry, users));
    }

    // --- Report --------------------------------------------------------------
    std::printf("\n%s", report.summary_text().c_str());

    const std::string csv = args.get("csv", std::string{});
    if (!csv.empty()) {
      report.write_csv_file(csv);
      std::printf("per-frame CSV written to %s\n", csv.c_str());
    }

    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      obs::write_chrome_trace(out);
      std::printf("Chrome trace written to %s (open in Perfetto)\n",
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      obs::write_json_snapshot(out, obs::MetricsRegistry::global());
      std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
    }

    const std::string manifest_out = args.get("manifest", std::string{});
    if (!manifest_out.empty()) {
      obs::Manifest manifest("w4k_sim");
      manifest.set("users", static_cast<int>(n_users));
      manifest.set("aps", static_cast<int>(n_aps));
      manifest.set("geometry", geometry_path.empty() ? "default-layout"
                                                     : geometry_path);
      manifest.set("relay", relay_on);
      manifest.set("scheme", args.get("scheme", std::string("opt-multicast")));
      manifest.set("schedule",
                   cfg.optimized_schedule ? "optimized" : "roundrobin");
      manifest.set("frames", static_cast<std::int64_t>(report.frames()));
      manifest.set("quarantine_after", cfg.quarantine_after);
      manifest.set("fault_plan", fault_arg.empty() ? "none" : fault_arg);
      manifest.set("seed", static_cast<std::int64_t>(seed));
      manifest.set_env("pool_threads",
                       static_cast<std::int64_t>(ThreadPool::shared().size()));
      const char* threads_env = std::getenv("W4K_THREADS");
      manifest.set_env("W4K_THREADS", threads_env ? threads_env : "");
      const char* scalar_env = std::getenv("W4K_FORCE_SCALAR");
      manifest.set_env("W4K_FORCE_SCALAR", scalar_env ? scalar_env : "");
      if (manifest.write_file(manifest_out))
        std::printf("run manifest written to %s\n", manifest_out.c_str());
    }

    // Every option has been queried by now: anything left is a typo.
    for (const auto& unknown : args.unqueried())
      throw std::invalid_argument("unknown option --" + unknown +
                                  " (see the header of w4k_sim.cpp)");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "w4k_sim: %s\n", e.what());
    return 1;
  }
}
