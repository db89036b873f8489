// Shared scaffolding of the frame-budget benchmark: run configuration, the
// report printed as one JSON line, replay-minimum frame timing, and the
// benchmark's own frame-id-tagged trace spans.
//
// Why replay minima: on a shared VM a vCPU slows by up to 2x for a few
// seconds at a time (neighbours' load on its SMT sibling, moving between
// vCPUs), so a plain per-run percentile moves with whichever phases the
// run landed on. Every workload therefore replays one fixed frame
// sequence in fresh sessions; each replay does bit-identical work (the
// correctness gate checks this), and frame f's time is the minimum over
// all replays. The replays are spread over the whole run, so each frame
// gets its chance at a fast phase. Slower drift of the whole host over
// minutes is not removed: it shows as run-to-run spread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The 30 fps frame budget the sender must decide, send and repair in.
inline constexpr double kFrameBudgetMs = 1000.0 / 30.0;
/// A frame not delivered within this is failed, and counted at this time
/// (over every limit).
inline constexpr double kMissedFrameMs = 1000.0;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< per-layer JSON + Chrome trace (traced)
  std::string model_cache;    ///< trained quality-model cache file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Printed by main() as one JSON object.
struct Report {
  std::vector<std::string> errors;  ///< correctness-gate failures
  std::uint64_t attempted = 0;      ///< frames x replays
  std::uint64_t failed = 0;         ///< frames that missed their deadline
  std::vector<Metric> metrics;      ///< end-to-end, or per-layer if traced
  /// Diagnostic: the same timing metrics from the first replay alone (no
  /// replay minimum), so run-to-run noise of the plain estimate stays
  /// visible next to the reported figures.
  std::vector<Metric> plain;
  std::vector<std::pair<std::string, std::string>> env;

  void fail(std::string msg) { errors.push_back(std::move(msg)); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void echo(std::string key, std::string value) {
    env.emplace_back(std::move(key), std::move(value));
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

/// Per-frame minimum over replays, plus the first replay's plain times.
class ReplayTimes {
 public:
  explicit ReplayTimes(std::size_t frames) : min_(frames), first_(frames) {}

  void begin_replay() { ++replays_; }
  void record(std::size_t frame, double ms) {
    if (replays_ == 1 || ms < min_[frame]) min_[frame] = ms;
    if (replays_ == 1) first_[frame] = ms;
    total_ms_ += ms;
    ++samples_;
  }
  std::size_t replays() const { return replays_; }
  const std::vector<double>& minima() const { return min_; }
  const std::vector<double>& first() const { return first_; }
  /// Mean over every sample of every replay: the estimator that matches
  /// the program's own stage aggregates (obs keeps totals, not minima).
  double mean_all() const {
    return samples_ ? total_ms_ / static_cast<double>(samples_) : 0.0;
  }

 private:
  std::vector<double> min_;
  std::vector<double> first_;
  std::size_t replays_ = 0;
  double total_ms_ = 0.0;
  std::size_t samples_ = 0;
};

/// Keeps the fastest of several set-up measurements, by part.
class SetupTimes {
 public:
  void begin();  ///< starts one set-up measurement
  void part(const char* name, double seconds);
  void end(double total_seconds);
  double best_total_s() const { return best_total_; }
  /// Parts of the fastest set-up, in milliseconds.
  double part_ms(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, double>> current_, best_;
  double best_total_ = -1.0;
};

/// Per-frame minima of the per-layer calls a traced replay times, keyed
/// by metric name (frames a layer did not run in stay unset).
class LayerTimes {
 public:
  explicit LayerTimes(std::size_t frames) : frames_(frames) {}
  void record(const std::string& name, std::size_t frame, double ms);
  /// Nearest-rank percentile of the per-frame minima over the frames the
  /// layer ran in; 0 if none.
  double percentile(const std::string& name, double q) const;
  /// Mean over every recorded call (no minimum); 0 if none.
  double mean_all(const std::string& name) const;

 private:
  struct Series {
    std::string name;
    std::vector<double> min_ms;  ///< per frame; +inf until recorded
    double total_ms = 0.0;
    std::size_t calls = 0;
  };
  const Series* find(const std::string& name) const;
  std::size_t frames_;
  std::vector<Series> series_;
};

/// Traced replays: the benchmark's own spans around each call into the
/// program, each tagged with its frame id and replay number, plus the
/// per-layer call times.
class Tracer {
 public:
  explicit Tracer(std::size_t frames) : layers_(frames) {}
  /// Starts a replay; the spans of earlier replays are dropped, so the
  /// trace file holds the last replay.
  void begin_replay(std::uint32_t replay) {
    replay_ = replay;
    spans_.clear();
  }
  /// Records one program call of frame f as a span and, when `layer` is
  /// given, as a sample of that per-layer metric.
  void record(const char* span, const char* layer, std::size_t f,
              std::uint64_t t0_ns, std::uint64_t t1_ns);
  LayerTimes& layers() { return layers_; }
  const LayerTimes& layers() const { return layers_; }
  /// Writes one Chrome/Perfetto trace: the program's obs spans plus ours.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t frame, replay;
    std::uint64_t start_ns, end_ns;
  };
  std::vector<Span> spans_;
  LayerTimes layers_;
  std::uint32_t replay_ = 0;
};

/// Times one program call when a tracer is present; reads no clock
/// otherwise, so untraced frames pay nothing.
class Timed {
 public:
  Timed(Tracer* t, const char* span, const char* layer, std::size_t f);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer* t_;
  const char* span_;
  const char* layer_;
  std::size_t f_;
  std::uint64_t t0_ = 0;
};

/// One workload: a fixed frame sequence generated from the seed, replayed
/// in fresh state. run_workload owns the frame timing; the
/// workload owns the program calls and the outcome checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t frames() const = 0;
  /// Builds fresh per-replay state, timing each part into `setup`.
  virtual void setup(SetupTimes& setup) = 0;
  /// Runs frame f. Returns false if the frame missed its delivery
  /// deadline. `t` is non-null on traced replays.
  virtual bool frame(std::size_t f, Tracer* t) = 0;
  /// Traced replays only: twin calls that time frame f's work layer by
  /// layer, run after the frame and never counted in its time.
  virtual void probe_layers(std::size_t f, Tracer& t) {}
  /// Correctness gate after each replay: outcomes must be bit-identical
  /// to the first replay's, and self-consistent.
  virtual void end_replay(Report& r) = 0;
  virtual void teardown() = 0;
  /// End-to-end outcome metrics (quality, delivery, goodput).
  virtual void add_outcome_metrics(const ReplayTimes& t, Report& r) = 0;
  /// Per-layer metrics of the traced replays.
  virtual void add_layer_metrics(const ReplayTimes& traced, const Tracer& t,
                                 Report& r) = 0;
};

/// Runs `w` for cfg.seconds. Untraced: replays with telemetry off, end-to-
/// end metrics. Traced: half the window untraced, half with obs and trace
/// capture on; per-layer metrics, trace.overhead_frac, and the Chrome
/// trace at out_stem(cfg).trace.json.
void run_workload(Workload& w, const RunConfig& cfg, Report& r);

/// <out_dir>/<workload>-seed<n>: stem of a traced run's output files.
std::string out_stem(const RunConfig& cfg);

/// The report as one JSON object (also the traced run's per-layer file).
std::string report_json(const Report& r);

/// Workload entry points (one per workload; each fills the report).
void run_live_static(const RunConfig& cfg, Report& r);
void run_mobile_crowd(const RunConfig& cfg, Report& r);
void run_serve_paper(const RunConfig& cfg, Report& r);

/// Builds the quality-model cache outside any timed region; returns true
/// if it had to train.
bool prepare_model(const std::string& cache_path);

}  // namespace perfbench
