// Scheduler scaling bench: wall-clock latency of
// MulticastSession::decide_into() — group beamforming + Eq. 1 allocation
// + Eq. 4 unit mapping, into one reused Decision as step_into runs it —
// swept over user counts and static vs mobility CSI.
//
// The paper's sender must make this decision inside the 33.3 ms frame
// budget. The session exploits two structural facts: (a) each subset's
// beam is a pure function of (scheme, member channels, codebook, seed), so
// only subsets containing a user whose CSI changed since the last beacon
// are re-beamformed (sched::BeamCache); (b) consecutive frames' optimal
// allocations are near each other, so the previous frame's plan (remapped
// by member bitmask) warm-starts the optimizer past the cold multi-start.
//
// Past the hierarchical threshold (N=16..64 rows) the anytime scheduler
// takes over: cluster-tree candidate generation, rate-bound pruning, the
// subset-lane beamformer, and (at N=32/64) the decide_deadline_ms cutoff
// that trades optional merge candidates for latency.
//
// Outputs BENCH_sched.json (per-config mean/p50/p99/max decide latency
// and a headline of the N=12/32/64 mobile tails). `--smoke` runs only the
// tier-1 gate: p99 decide_into() latency at N=32 mobile (deadline on) must
// stay under 16.6 ms (half the frame budget); set W4K_SKIP_PERF_SMOKE=1 to
// skip (exit 77) on machines where wall-clock gates are meaningless (e.g.
// heavily shared CI).
#include "common.h"

#include "channel/mobility.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <vector>

namespace {

using namespace w4k;

struct Latency {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::size_t calls = 0;
};

Latency summarize_ms(std::vector<double> ms) {
  Latency out;
  if (ms.empty()) return out;
  std::sort(ms.begin(), ms.end());
  out.calls = ms.size();
  for (double v : ms) out.mean_ms += v;
  out.mean_ms /= static_cast<double>(ms.size());
  const auto at = [&](double q) {
    return ms[static_cast<std::size_t>(q * static_cast<double>(ms.size() - 1))];
  };
  out.p50_ms = at(0.5);
  out.p99_ms = at(0.99);
  out.max_ms = ms.back();
  return out;
}

struct MeasureSpec {
  std::size_t n_users = 4;
  bool mobile = false;
  int n_frames = 30;  ///< measured decide_into() calls
  /// Cold-start frames excluded from the stats: the first beacon pays the
  /// one-off full enumeration that every later frame amortizes (a real
  /// session pays it once at association, not per frame).
  int warmup_frames = 3;
  /// Group-size cap forwarded to GroupEnumConfig.
  std::size_t max_group_size = sched::GroupEnumConfig{}.max_group_size;
  /// SessionConfig::decide_deadline_ms: 0 keeps the pure (no-clock) path;
  /// > 0 turns on the anytime cutoff. The N=64 sweep rows run with the
  /// deadline the paper's frame budget dictates.
  double deadline_ms = 0.0;
};

/// Decision CSI per frame: 3 video frames per 100 ms beacon, the sender
/// acting on the latest beacon snapshot (run_trace's cadence).
std::vector<std::vector<linalg::CVector>> decision_csi(
    const MeasureSpec& spec) {
  const int total = spec.warmup_frames + spec.n_frames;
  std::vector<std::vector<linalg::CVector>> per_frame;
  per_frame.reserve(static_cast<std::size_t>(total));
  if (spec.mobile) {
    channel::MovingReceiverConfig mc;
    mc.n_users = spec.n_users;
    mc.moving.assign(spec.n_users, false);
    mc.moving[0] = true;  // one walker, the rest static (fig. 16/17 setup)
    mc.duration = channel::kBeaconInterval * (total / 3 + 2);
    mc.seed = 77;
    const channel::CsiTrace trace = channel::moving_receiver_trace(mc);
    for (int f = 0; f < total; ++f) {
      const std::size_t snap = std::min(
          trace.steps() - 1, static_cast<std::size_t>(f) / 3);
      per_frame.push_back(trace.snapshots[snap]);
    }
  } else {
    Rng rng(5);
    channel::PropagationConfig prop;
    const auto chans = core::channels_for(
        prop, core::place_users_fixed(spec.n_users, 4.0, 1.0, rng));
    per_frame.assign(static_cast<std::size_t>(total), chans);
  }
  return per_frame;
}

Latency measure(const MeasureSpec& spec) {
  core::SessionConfig cfg =
      core::SessionConfig::scaled(bench::kWidth, bench::kHeight);
  cfg.seed = 4242;
  cfg.mcs_margin_db = 1.0;
  cfg.group_enum.max_group_size = spec.max_group_size;
  cfg.decide_deadline_ms = spec.deadline_ms;
  core::MulticastSession session(cfg, bench::quality_model(),
                                 beamforming::Codebook{});
  const auto& contexts = bench::hr_contexts();
  const std::vector<std::uint8_t> exclude(spec.n_users, 0);
  const auto per_frame = decision_csi(spec);

  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(spec.n_frames));
  core::MulticastSession::Decision d;
  for (std::size_t f = 0; f < per_frame.size(); ++f) {
    const auto& ctx = contexts[f % contexts.size()];
    const auto t0 = std::chrono::steady_clock::now();
    session.decide_into(per_frame[f], ctx, exclude, d);
    const auto t1 = std::chrono::steady_clock::now();
    if (d.groups.empty()) {
      std::fprintf(stderr, "unexpected outage at frame %zu\n", f);
      std::exit(1);
    }
    if (f >= static_cast<std::size_t>(spec.warmup_frames))
      ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return summarize_ms(std::move(ms));
}

void print_latency(const char* label, const Latency& l) {
  std::printf("%-26s mean %8.3f ms  p50 %8.3f ms  p99 %8.3f ms  max %8.3f ms"
              "  (%zu calls)\n",
              label, l.mean_ms, l.p50_ms, l.p99_ms, l.max_ms, l.calls);
}

void emit_json(const Latency& l, std::ofstream& os) {
  os << "{\"mean_ms\":" << l.mean_ms << ",\"p50_ms\":" << l.p50_ms
     << ",\"p99_ms\":" << l.p99_ms << ",\"max_ms\":" << l.max_ms
     << ",\"calls\":" << l.calls << "}";
}

int run_smoke() {
  if (std::getenv("W4K_SKIP_PERF_SMOKE") != nullptr) {
    std::printf("perf_smoke: skipped (W4K_SKIP_PERF_SMOKE set)\n");
    return 77;
  }
  constexpr double kBudgetMs = 16.6;  // half the 33.3 ms frame budget
  MeasureSpec spec;
  spec.n_users = 32;
  spec.mobile = true;
  spec.n_frames = 30;
  // N=32 runs the anytime scheduler end to end: the cluster-tree generator
  // (the exhaustive lattice at N=32 would be 2^32 subsets), the rate-bound
  // pruner, the subset-lane beamformer, and the deadline cutoff. The
  // deadline is the production knob that holds the frame budget on slow or
  // heavily shared boxes; the gate then checks the whole decision still lands
  // inside half the 33.3 ms frame budget.
  spec.deadline_ms = 14.0;
  const Latency l = measure(spec);
  print_latency("N=32 mobile (ddl=14)", l);
  const bool ok = l.p99_ms < kBudgetMs;
  std::printf("perf_smoke: decide_into() p99 %.3f ms %s %.1f ms budget: "
              "%s\n",
              l.p99_ms, ok ? "<" : ">=", kBudgetMs, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) return run_smoke();

  // Telemetry off: this binary measures the decision path itself.
  bench::BenchMain bm("bench_sched_scale", /*telemetry=*/false);
  bench::print_header(
      "Scheduler scaling: decide_into() latency",
      "the sender's per-frame decision must fit the 33.3 ms frame budget");
  bm.set("pool_threads",
         static_cast<std::int64_t>(ThreadPool::shared().size()));

  const std::vector<std::size_t> sweep_n = {4, 8, 12, 16, 32, 64};
  /// decide_deadline_ms per sweep row: past the hierarchical threshold a
  /// mobile beacon frame re-beamforms most of the candidate set and the
  /// pure path blows the frame budget, so the N=32/64 rows run the anytime
  /// cutoff — 14 ms at N=32 (the smoke-gate config: p99 under half the
  /// budget) and 25 ms at N=64 (headroom under 33.3 ms for the
  /// transmit-side bookkeeping). Everything smaller runs the pure path.
  const auto deadline_for = [](std::size_t n) {
    return n >= 64 ? 25.0 : n >= 32 ? 14.0 : 0.0;
  };

  std::ofstream os("BENCH_sched.json");
  os.precision(5);
  os << "{\n  \"frame_budget_ms\": 33.333,\n  \"pool_threads\": "
     << ThreadPool::shared().size() << ",\n  \"sweep\": [\n";

  double n12_mobile_p99 = 0.0;
  double n32_mobile_p99 = 0.0;
  double n64_mobile_max = 0.0;
  bool first = true;
  for (const bool mobile : {false, true}) {
    std::printf("\n--- %s CSI (one walker) ---\n",
                mobile ? "mobility" : "static");
    for (const std::size_t n : sweep_n) {
      MeasureSpec spec;
      spec.n_users = n;
      spec.mobile = mobile;
      spec.n_frames = 30;
      spec.deadline_ms = deadline_for(n);
      const Latency l = measure(spec);
      char label[64];
      std::snprintf(label, sizeof label, "N=%-2zu%s", n,
                    spec.deadline_ms > 0.0 ? " (ddl)" : "");
      print_latency(label, l);

      if (!first) os << ",\n";
      first = false;
      os << "    {\"n_users\":" << n << ",\"scenario\":\""
         << (mobile ? "mobile" : "static")
         << "\",\"deadline_ms\":" << spec.deadline_ms << ",\"decide\":";
      emit_json(l, os);
      os << "}";
      if (mobile && n == 12) n12_mobile_p99 = l.p99_ms;
      if (mobile && n == 32) n32_mobile_p99 = l.p99_ms;
      if (mobile && n == 64) n64_mobile_max = l.max_ms;
    }
  }
  os << "\n  ],\n  \"headline\": {\"n12_mobile_p99_ms\": "
     << n12_mobile_p99 << ", \"n32_mobile_p99_ms\": " << n32_mobile_p99
     << ", \"n64_mobile_deadline_max_ms\": " << n64_mobile_max << "}\n}\n";
  os.close();
  std::printf("\n# wrote BENCH_sched.json (N=12 mobile p99 %.3f ms; "
              "N=32 p99 %.3f ms; N=64 max %.3f ms)\n",
              n12_mobile_p99, n32_mobile_p99, n64_mobile_max);
  bm.set("n12_mobile_p99_ms", n12_mobile_p99);
  bm.set("n32_mobile_p99_ms", n32_mobile_p99);
  bm.set("n64_mobile_deadline_max_ms", n64_mobile_max);
  return 0;
}
