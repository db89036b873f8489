#include "harness.h"

#include "core/pretrained.h"
#include "obs/metrics.h"
#include "obs/span.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

namespace {

/// Frame-time metrics every workload reports: p50/p90 frame time, frames
/// per second of frame time, and the share of frames inside the budget.
void frame_metrics(const std::vector<double>& ms, std::vector<Metric>& out) {
  const double total_ms = sum(ms);
  std::size_t on_budget = 0;
  for (double x : ms) on_budget += x <= kFrameBudgetMs ? 1 : 0;
  out.push_back({"frame_ms_p50", percentile(ms, 0.50), "ms"});
  out.push_back({"frame_ms_p90", percentile(ms, 0.90), "ms"});
  out.push_back({"frames_per_s",
                 total_ms > 0.0 ? 1e3 * static_cast<double>(ms.size()) /
                                      total_ms
                                : 0.0,
                 "1/s"});
  out.push_back({"on_budget_frac",
                 ms.empty() ? 0.0
                            : static_cast<double>(on_budget) /
                                  static_cast<double>(ms.size()),
                 "ratio"});
}

/// Keeps replaying while the estimated end of the next replay stays
/// inside the window; always makes at least `min_replays`.
class ReplayClock {
 public:
  ReplayClock(double seconds, std::size_t min_replays)
      : start_(now_s()), seconds_(seconds), min_(min_replays) {}
  bool another(std::size_t done) const {
    if (done < min_) return true;
    const double elapsed = now_s() - start_;
    return elapsed + elapsed / static_cast<double>(done) <= seconds_;
  }

 private:
  double start_;
  double seconds_;
  std::size_t min_;
};

double ms_since(std::uint64_t t0_ns) {
  return static_cast<double>(w4k::obs::now_ns() - t0_ns) / 1e6;
}

/// One replay: fresh set-up, every frame timed, outcome gate.
void replay(Workload& w, std::uint32_t index, ReplayTimes& times,
            SetupTimes& setup, Tracer* tracer, Report& r) {
  times.begin_replay();
  if (tracer) tracer->begin_replay(index);
  setup.begin();
  const std::uint64_t s0 = w4k::obs::now_ns();
  w.setup(setup);
  setup.end(ms_since(s0) / 1e3);
  if (tracer) tracer->record("setup", nullptr, 0, s0, w4k::obs::now_ns());
  for (std::size_t f = 0; f < w.frames(); ++f) {
    const std::uint64_t t0 = w4k::obs::now_ns();
    const bool delivered = w.frame(f, tracer);
    const std::uint64_t t1 = w4k::obs::now_ns();
    double ms = static_cast<double>(t1 - t0) / 1e6;
    ++r.attempted;
    if (!delivered) {
      ++r.failed;
      ms = std::max(ms, kMissedFrameMs);
    }
    times.record(f, ms);
    if (tracer) {
      tracer->record("frame", nullptr, f, t0, t1);
      w.probe_layers(f, *tracer);
    }
  }
  w.end_replay(r);
  w.teardown();
}

}  // namespace

void SetupTimes::begin() { current_.clear(); }

void SetupTimes::part(const char* name, double seconds) {
  current_.emplace_back(name, seconds);
}

void SetupTimes::end(double total_seconds) {
  if (best_total_ < 0.0 || total_seconds < best_total_) {
    best_total_ = total_seconds;
    best_ = current_;
  }
}

double SetupTimes::part_ms(const std::string& name) const {
  for (const auto& [n, s] : best_)
    if (n == name) return s * 1e3;
  return 0.0;
}

void LayerTimes::record(const std::string& name, std::size_t frame,
                        double ms) {
  auto it = std::find_if(series_.begin(), series_.end(),
                         [&](const Series& s) { return s.name == name; });
  if (it == series_.end()) {
    series_.push_back({name,
                       std::vector<double>(
                           frames_, std::numeric_limits<double>::infinity()),
                       0.0, 0});
    it = series_.end() - 1;
  }
  it->min_ms[frame] = std::min(it->min_ms[frame], ms);
  it->total_ms += ms;
  ++it->calls;
}

const LayerTimes::Series* LayerTimes::find(const std::string& name) const {
  for (const Series& s : series_)
    if (s.name == name) return &s;
  return nullptr;
}

double LayerTimes::percentile(const std::string& name, double q) const {
  std::vector<double> v;
  if (const Series* s = find(name))
    for (double x : s->min_ms)
      if (std::isfinite(x)) v.push_back(x);
  return perfbench::percentile(std::move(v), q);
}

double LayerTimes::mean_all(const std::string& name) const {
  const Series* s = find(name);
  return s && s->calls ? s->total_ms / static_cast<double>(s->calls) : 0.0;
}

void Tracer::record(const char* span, const char* layer, std::size_t f,
                    std::uint64_t t0_ns, std::uint64_t t1_ns) {
  spans_.push_back({span, static_cast<std::uint32_t>(f), replay_, t0_ns,
                    t1_ns});
  if (layer) layers_.record(layer, f, static_cast<double>(t1_ns - t0_ns) / 1e6);
}

Timed::Timed(Tracer* t, const char* span, const char* layer, std::size_t f)
    : t_(t), span_(span), layer_(layer), f_(f) {
  if (t_) t0_ = w4k::obs::now_ns();
}

Timed::~Timed() {
  if (t_) t_->record(span_, layer_, f_, t0_, w4k::obs::now_ns());
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  // The program's own spans (obs StageSpans) first, then the benchmark's
  // frame-tagged spans spliced into the same traceEvents array.
  std::ostringstream program;
  w4k::obs::write_chrome_trace(program);
  std::string s = program.str();
  const std::size_t close = s.rfind("]}");
  if (close == std::string::npos) return false;
  bool first = s.compare(close - 1, 1, "[") == 0;
  std::string mine;
  char buf[256];
  for (const Span& sp : spans_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":1,"
                  "\"args\":{\"frame\":%u,\"replay\":%u}}",
                  first ? "" : ",", sp.name,
                  static_cast<double>(sp.start_ns) / 1e3,
                  static_cast<double>(sp.end_ns - sp.start_ns) / 1e3,
                  sp.frame, sp.replay);
    mine += buf;
    first = false;
  }
  s.insert(close, mine);
  std::ofstream os(path);
  os << s;
  return static_cast<bool>(os);
}

void run_workload(Workload& w, const RunConfig& cfg, Report& r) {
  ReplayTimes untraced(w.frames());
  SetupTimes setup;
  const double window = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  const ReplayClock clock(window, cfg.trace ? 2 : 3);
  for (std::uint32_t n = 0; clock.another(n); ++n)
    replay(w, n, untraced, setup, nullptr, r);
  r.echo("replays", std::to_string(untraced.replays()));
  r.echo("frames", std::to_string(w.frames()));

  if (!cfg.trace) {
    r.add("setup_s", setup.best_total_s(), "s");
    frame_metrics(untraced.minima(), r.metrics);
    frame_metrics(untraced.first(), r.plain);
    w.add_outcome_metrics(untraced, r);
    return;
  }

  // Traced half: obs aggregation + trace capture on. The trace file keeps
  // the last replay only (cleared per replay); stage aggregates and layer
  // minima cover every traced replay.
  w4k::obs::MetricsRegistry::global().reset_values();
  w4k::obs::set_enabled(true);
  w4k::obs::set_trace_enabled(true);
  ReplayTimes traced(w.frames());
  SetupTimes traced_setup;
  Tracer tracer(w.frames());
  const ReplayClock tclock(window, 2);
  const std::uint32_t base = static_cast<std::uint32_t>(untraced.replays());
  for (std::uint32_t n = 0; tclock.another(n); ++n) {
    w4k::obs::clear_trace();
    replay(w, base + n, traced, traced_setup, &tracer, r);
  }
  w4k::obs::set_trace_enabled(false);
  r.echo("traced_replays", std::to_string(traced.replays()));

  const double untraced_p50 = percentile(untraced.minima(), 0.5);
  const double traced_p50 = percentile(traced.minima(), 0.5);
  for (const char* part :
       {"model", "contexts", "channels", "daemon", "subscribe"})
    r.add(std::string("setup.") + part + "_ms", setup.part_ms(part), "ms");
  w.add_layer_metrics(traced, tracer, r);
  r.add("trace.overhead_frac",
        untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio");

  const std::string trace = out_stem(cfg) + ".trace.json";
  if (!tracer.write_chrome_trace(trace)) r.fail("cannot write " + trace);
  w4k::obs::set_enabled(false);
}

std::string out_stem(const RunConfig& cfg) {
  return cfg.out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", " : "") + json_string(ms[i].name) + ": {\"value\": " +
           buf + ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string report_json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": " + json_metrics(r.metrics);
  out += ", \"plain\": " + json_metrics(r.plain);
  out += ", \"env\": {";
  for (std::size_t i = 0; i < r.env.size(); ++i)
    out += (i ? ", " : "") + json_string(r.env[i].first) + ": " +
           json_string(r.env[i].second);
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    out += (i ? ", " : "") + json_string(r.errors[i]);
  return out + "]}";
}

bool prepare_model(const std::string& cache_path) {
  w4k::model::QualityModel m(42);
  w4k::core::PretrainedOptions opts;
  opts.cache_path = cache_path;
  return w4k::core::ensure_trained(m, opts) > 0.0;
}

}  // namespace perfbench
