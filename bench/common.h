// Shared infrastructure for the experiment-reproduction harnesses.
//
// Every bench binary prints the rows/series of one of the paper's tables
// or figures. Absolute numbers come from the emulated substrate; the
// reproduction target is the *shape* (ordering, rough factors,
// crossovers), which EXPERIMENTS.md compares against the paper.
#pragma once

#include "abr/mpc.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "gf256/gf256.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace w4k::bench {

/// Per-binary run scaffolding: construct one at the top of main(). Turns
/// on telemetry aggregation (unless the binary is itself a perf
/// measurement that must run the disabled path) and, on destruction,
/// writes `<name>.manifest.json` next to the bench output — config echo,
/// CPU dispatch tier, pool size, and the per-stage span summary — so
/// BENCH_*.json trajectories stay comparable across commits. The manifest
/// directory defaults to the working directory; W4K_MANIFEST_DIR overrides.
class BenchMain {
 public:
  explicit BenchMain(const char* name, bool telemetry = true)
      : manifest_(name), telemetry_(telemetry) {
    if (telemetry_) obs::set_enabled(true);
  }

  /// Config echo into the manifest (key order preserved).
  template <typename T>
  void set(std::string_view key, T value) {
    manifest_.set(key, value);
  }

  ~BenchMain() {
    manifest_.set_env("gf256_tier", gf256::tier_name(gf256::active_tier()));
    manifest_.set_env("pool_threads",
                      static_cast<std::int64_t>(ThreadPool::shared().size()));
    const char* threads_env = std::getenv("W4K_THREADS");
    manifest_.set_env("W4K_THREADS", threads_env ? threads_env : "");
    const char* scalar_env = std::getenv("W4K_FORCE_SCALAR");
    manifest_.set_env("W4K_FORCE_SCALAR", scalar_env ? scalar_env : "");
    manifest_.set_env("telemetry", telemetry_ ? "on" : "off");

    const char* dir = std::getenv("W4K_MANIFEST_DIR");
    const std::string path = std::string(dir && *dir ? dir : ".") + "/" +
                             manifest_.name() + ".manifest.json";
    if (manifest_.write_file(path))
      std::printf("# manifest: %s\n", path.c_str());
  }

  BenchMain(const BenchMain&) = delete;
  BenchMain& operator=(const BenchMain&) = delete;

 private:
  obs::Manifest manifest_;
  bool telemetry_;
};

/// Emulation resolution for the sweeps: 256x144 (1/240 of 4K), with the
/// link rates, symbol size and queue depth scaled by the same factor so
/// the operating regime matches the paper's full-4K testbed.
inline constexpr int kWidth = 256;
inline constexpr int kHeight = 144;

/// Returns the shared trained quality model (cached on disk after the
/// first training run in this directory).
inline model::QualityModel& quality_model() {
  static model::QualityModel model = [] {
    model::QualityModel m(42);
    core::PretrainedOptions opts;
    opts.cache_path = "w4k_bench_quality_model.cache";
    const double mse = core::ensure_trained(m, opts);
    if (mse > 0.0)
      std::printf("# trained quality model, held-out MSE %.2e\n", mse);
    return m;
  }();
  return model;
}

/// Frame contexts of one HR and one LR standard clip (the paper evaluates
/// on 2 HR + 2 LR; one of each keeps the sweeps tractable and preserves
/// the content diversity that matters).
inline const std::vector<core::FrameContext>& hr_contexts() {
  static const auto ctxs = [] {
    video::VideoSpec spec = video::standard_videos(kWidth, kHeight, 8)[0];
    return core::make_contexts(video::SyntheticVideo(spec), 6,
                               core::scaled_symbol_size(kWidth, kHeight));
  }();
  return ctxs;
}

inline const std::vector<core::FrameContext>& lr_contexts() {
  static const auto ctxs = [] {
    video::VideoSpec spec = video::standard_videos(kWidth, kHeight, 8)[3];
    return core::make_contexts(video::SyntheticVideo(spec), 6,
                               core::scaled_symbol_size(kWidth, kHeight));
  }();
  return ctxs;
}

/// The four beamforming schemes in the paper's comparison order.
inline const std::vector<beamforming::Scheme>& all_schemes() {
  static const std::vector<beamforming::Scheme> s{
      beamforming::Scheme::kOptimizedMulticast,
      beamforming::Scheme::kPredefinedMulticast,
      beamforming::Scheme::kOptimizedUnicast,
      beamforming::Scheme::kPredefinedUnicast,
  };
  return s;
}

/// One static experiment: place users, build channels, stream, summarize.
struct StaticRunSpec {
  beamforming::Scheme scheme = beamforming::Scheme::kOptimizedMulticast;
  std::size_t n_users = 2;
  double distance = 3.0;       ///< fixed-distance placement when > 0
  double min_distance = 0.0;   ///< random annulus placement when distance == 0
  double max_distance = 0.0;
  double mas_rad = 1.047;      ///< 60 degrees
  int n_runs = 10;
  int frames_per_run = 8;
  bool optimized_schedule = true;
  bool rate_control = true;
  bool source_coding = true;
  bool high_richness = true;
  std::uint64_t seed = 1;
};

struct StaticRunSummary {
  Summary ssim;
  Summary psnr;
};

/// Runs the spec: `n_runs` independent placements, aggregated like the
/// paper's box plots.
inline StaticRunSummary run_static_experiment(const StaticRunSpec& spec) {
  std::vector<double> all_ssim, all_psnr;
  Rng placement_rng(spec.seed);
  const auto& contexts =
      spec.high_richness ? hr_contexts() : lr_contexts();

  core::Experiment exp(quality_model(), contexts);
  exp.codebook(beamforming::commodity_codebook());
  for (int run = 0; run < spec.n_runs; ++run) {
    core::SessionConfig& cfg = exp.config();
    cfg.scheme = spec.scheme;
    cfg.optimized_schedule = spec.optimized_schedule;
    cfg.engine.rate_control = spec.rate_control;
    cfg.engine.source_coding = spec.source_coding;
    cfg.seed = spec.seed * 1000 + static_cast<std::uint64_t>(run);
    if (spec.distance > 0.0)
      exp.place_fixed(spec.n_users, spec.distance, spec.mas_rad,
                      placement_rng);
    else
      exp.place_random(spec.n_users, spec.min_distance, spec.max_distance,
                       spec.mas_rad, placement_rng);

    const core::SessionReport r = exp.run_static(spec.frames_per_run);
    const auto ssim = r.all_ssim();
    const auto psnr = r.all_psnr();
    all_ssim.insert(all_ssim.end(), ssim.begin(), ssim.end());
    all_psnr.insert(all_psnr.end(), psnr.begin(), psnr.end());
  }
  return StaticRunSummary{summarize(all_ssim), summarize(all_psnr)};
}

inline void print_header(const char* title, const char* paper_note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_note);
  std::printf("==============================================================\n");
}

inline void print_row(const std::string& label, const Summary& ssim,
                      const Summary* psnr = nullptr) {
  std::printf("%-28s SSIM %s\n", label.c_str(), to_string(ssim).c_str());
  if (psnr != nullptr)
    std::printf("%-28s PSNR %s\n", "", to_string(*psnr).c_str());
}

}  // namespace w4k::bench
