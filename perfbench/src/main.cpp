// perfbench: the frame-budget benchmark binary.
//
//   perfbench prepare --model-cache FILE
//       Trains and caches the quality model (untimed; about 8 s cold).
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --model-cache FILE [--out-dir DIR]
//       Runs one workload and prints one JSON object as its last line:
//       correct/attempted/failed, the metrics (end-to-end, or per-layer
//       with --trace 1), the first-replay "plain" estimates, the
//       environment echo and any correctness-gate errors.
//
// perfbench/run.py builds this binary, pins the thread counts and turns
// the JSON into the benchmark's result line.
#include "harness.h"

#include "common/thread_pool.h"
#include "gf256/gf256.h"
#include "verify/invariants.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

namespace {

using perfbench::Report;
using perfbench::RunConfig;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --model-cache FILE\n"
               "       perfbench run --workload live-static|mobile-crowd|"
               "serve-paper --seed N --seconds S --trace 0|1 "
               "--model-cache FILE [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  RunConfig cfg;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") cfg.workload = val;
    else if (key == "--seed") cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::atof(val.c_str());
    else if (key == "--trace") cfg.trace = val == "1";
    else if (key == "--out-dir") cfg.out_dir = val;
    else if (key == "--model-cache") cfg.model_cache = val;
    else return usage();
  }
  if (cfg.model_cache.empty()) return usage();

  if (cmd == "prepare") {
    const bool trained = perfbench::prepare_model(cfg.model_cache);
    std::printf("quality model %s: %s\n", trained ? "trained" : "cached",
                cfg.model_cache.c_str());
    return 0;
  }
  if (cmd != "run" || cfg.seconds <= 0.0) return usage();

  // Count invariant violations instead of aborting mid-replay; the gate
  // below fails the run on any.
  w4k::verify::set_mode(w4k::verify::Mode::kReport);
  Report r;
  const char* threads = std::getenv("W4K_THREADS");
  r.echo("workload", cfg.workload);
  r.echo("seed", std::to_string(cfg.seed));
  r.echo("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.echo("W4K_THREADS", threads ? threads : "");
  r.echo("pool_threads", std::to_string(w4k::ThreadPool::shared().size()));
  r.echo("gf256_tier", w4k::gf256::tier_name(w4k::gf256::active_tier()));
  try {
    if (cfg.workload == "live-static") perfbench::run_live_static(cfg, r);
    else if (cfg.workload == "mobile-crowd") perfbench::run_mobile_crowd(cfg, r);
    else if (cfg.workload == "serve-paper") perfbench::run_serve_paper(cfg, r);
    else return usage();
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  const std::uint64_t violations = w4k::verify::violation_count();
  r.echo("verify.violations", std::to_string(violations));
  if (violations)
    r.fail("verify.violations = " + std::to_string(violations) + ": " +
           w4k::verify::last_violation());
  std::string json = perfbench::report_json(r);
  if (cfg.trace) {
    const std::string path = perfbench::out_stem(cfg) + ".layers.json";
    std::ofstream os(path);
    os << json << "\n";
    if (!os) {
      r.fail("cannot write " + path);
      json = perfbench::report_json(r);
    }
  }
  std::printf("%s\n", json.c_str());
  return r.errors.empty() ? 0 : 1;
}
