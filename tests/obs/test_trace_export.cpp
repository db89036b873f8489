// Exporter coverage: the Chrome trace_event JSON must be valid JSON with
// the expected event shape, the per-frame span set must cover the
// pipeline stages, events must nest properly per thread, and the flat
// snapshot must parse. A real (small) multicast session drives the spans
// so this doubles as an end-to-end telemetry test.
#include "obs/export.h"

#include "core/pretrained.h"
#include "core/runner.h"
#include "obs/jsonlite.h"
#include "obs/metrics.h"
#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace w4k::obs {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

class TraceExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    core::PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    core::ensure_trained(*quality_, opts);
    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 3;
    spec.seed = 11;
    contexts_ = new std::vector<core::FrameContext>(core::make_contexts(
        video::SyntheticVideo(spec), 2, core::scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }

  void SetUp() override {
    set_enabled(true);
    set_trace_enabled(true);
    clear_trace();
    reset_trace_epoch();
    MetricsRegistry::global().reset_values();
  }
  void TearDown() override {
    set_trace_enabled(false);
    set_enabled(false);
    clear_trace();
    MetricsRegistry::global().reset_values();
  }

  static model::QualityModel* quality_;
  static std::vector<core::FrameContext>* contexts_;
};

model::QualityModel* TraceExportTest::quality_ = nullptr;
std::vector<core::FrameContext>* TraceExportTest::contexts_ = nullptr;

struct Event {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double tid = 0.0;
};

std::vector<Event> parse_events(const std::string& text) {
  std::string err;
  const auto doc = json::parse(text, &err);
  EXPECT_TRUE(doc.has_value()) << err;
  if (!doc) return {};
  EXPECT_TRUE(doc->is_object());
  const json::Value* events = doc->find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return {};
  EXPECT_TRUE(events->is_array());
  std::vector<Event> out;
  for (const json::Value& e : events->arr) {
    EXPECT_TRUE(e.is_object());
    const json::Value* ph = e.find("ph");
    EXPECT_TRUE(ph != nullptr && ph->is_string());
    if (ph == nullptr || !ph->is_string()) continue;
    // Spans are "X"; final counter values ride along as "C" events and
    // are not part of the span-shape checks below.
    EXPECT_TRUE(ph->str == "X" || ph->str == "C") << ph->str;
    if (ph->str != "X") continue;
    const json::Value* name = e.find("name");
    EXPECT_TRUE(name != nullptr && name->is_string());
    if (name == nullptr) continue;
    Event ev;
    ev.name = name->str;
    bool fields_ok = true;
    for (auto [key, dst] : {std::pair<const char*, double*>{"ts", &ev.ts},
                            {"dur", &ev.dur},
                            {"tid", &ev.tid}}) {
      const json::Value* v = e.find(key);
      EXPECT_TRUE(v != nullptr && v->is_number()) << key;
      if (v == nullptr || !v->is_number()) fields_ok = false;
      else *dst = v->number;
    }
    if (fields_ok) out.push_back(std::move(ev));
  }
  return out;
}

TEST_F(TraceExportTest, SessionTraceHasAllPipelineStagesPerFrame) {
  Rng rng(3);
  channel::PropagationConfig prop;
  const auto chans = core::channels_for(
      prop, core::place_users_fixed(2, 3.0, 1.047, rng));
  channel::CsiTrace trace;
  trace.snapshots = {chans, chans};
  trace.positions = {{channel::Position{3, 0}, channel::Position{3, 1}},
                     {channel::Position{3, 0}, channel::Position{3, 1}}};

  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const core::SessionReport report =
      core::run_trace(session, trace, *contexts_, /*frames_per_snapshot=*/2);
  ASSERT_EQ(report.frames(), 4u);

  std::ostringstream os;
  write_chrome_trace(os);
  const auto events = parse_events(os.str());

  std::map<std::string, std::size_t> by_name;
  for (const auto& e : events) ++by_name[e.name];

  // Every frame contributes one span per pipeline stage: >= 6 named
  // stages per frame is the observability contract.
  const std::vector<std::string> stages = {
      "session.frame",    "session.beamform", "session.allocate",
      "session.unitmap",  "session.mcs",      "session.transmit",
      "session.quality"};
  for (const auto& s : stages)
    EXPECT_GE(by_name[s], report.frames()) << s;
  EXPECT_GE(stages.size(), 6u);
}

TEST_F(TraceExportTest, EventsAreWellNestedPerThread) {
  Rng rng(4);
  channel::PropagationConfig prop;
  const auto chans = core::channels_for(
      prop, core::place_users_fixed(1, 3.0, 0.5, rng));
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  (void)core::run_static(session, {chans}, *contexts_, 2);

  std::ostringstream os;
  write_chrome_trace(os);
  auto events = parse_events(os.str());
  ASSERT_FALSE(events.empty());

  // Within one tid, any two spans either nest or are disjoint — a child
  // must close before its parent (Chrome's renderer assumes this).
  std::map<double, std::vector<Event>> by_tid;
  for (auto& e : events) by_tid[e.tid].push_back(e);
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const Event& a, const Event& b) {
      return a.ts < b.ts || (a.ts == b.ts && a.dur > b.dur);
    });
    std::vector<const Event*> stack;
    for (const auto& e : evs) {
      while (!stack.empty() &&
             e.ts >= stack.back()->ts + stack.back()->dur)
        stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(e.ts + e.dur, stack.back()->ts + stack.back()->dur + 1e-6)
            << e.name << " overlaps " << stack.back()->name;
      }
      stack.push_back(&e);
    }
  }
}

TEST_F(TraceExportTest, ChromeTraceGoldenForSyntheticSpans) {
  // Deterministic shape check on a hand-built span set (no session): one
  // stage recorded twice must produce exactly two complete events with
  // non-negative ts/dur and the registered name.
  clear_trace();
  Stage& st = stage("golden.stage");
  { StageSpan span(st); }
  { StageSpan span(st); }
  EXPECT_EQ(trace_event_count(), 2u);

  std::ostringstream os;
  write_chrome_trace(os);
  const auto events = parse_events(os.str());
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_EQ(e.name, "golden.stage");
    EXPECT_GE(e.ts, 0.0);
    EXPECT_GE(e.dur, 0.0);
  }
  // Events from one thread share a tid and are emitted in start order.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].ts, events[1].ts);
}

TEST_F(TraceExportTest, SnapshotJsonParsesAndCoversInstruments) {
  auto& reg = MetricsRegistry::global();
  reg.counter("snap.counter").add(3);
  reg.gauge("snap.gauge").set(2.5);
  reg.histogram("snap.hist", {1.0, 2.0}).observe(1.5);
  { StageSpan span(stage("snap.stage")); }

  std::ostringstream os;
  write_json_snapshot(os, reg);
  std::string err;
  const auto parsed = json::parse(os.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const json::Value& doc = *parsed;
  ASSERT_TRUE(doc.is_object());

  const json::Value* counters = doc.find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_object());
  const json::Value* c = counters->find("snap.counter");
  ASSERT_TRUE(c != nullptr && c->is_number());
  EXPECT_DOUBLE_EQ(c->number, 3.0);

  const json::Value* gauges = doc.find("gauges");
  ASSERT_TRUE(gauges != nullptr && gauges->is_object());
  ASSERT_NE(gauges->find("snap.gauge"), nullptr);

  const json::Value* hists = doc.find("histograms");
  ASSERT_TRUE(hists != nullptr && hists->is_object());
  ASSERT_NE(hists->find("snap.hist"), nullptr);

  const json::Value* stages = doc.find("stages");
  ASSERT_TRUE(stages != nullptr && stages->is_object());
  const json::Value* st = stages->find("snap.stage");
  ASSERT_TRUE(st != nullptr && st->is_object());
  const json::Value* count = st->find("count");
  ASSERT_TRUE(count != nullptr && count->is_number());
  EXPECT_DOUBLE_EQ(count->number, 1.0);
}

TEST_F(TraceExportTest, TraceDisabledBuffersNothing) {
  set_trace_enabled(false);
  clear_trace();
  { StageSpan span(stage("quiet.stage")); }
  EXPECT_EQ(trace_event_count(), 0u);
  // Aggregation still works with capture off.
  EXPECT_EQ(stage("quiet.stage").count(), 1u);
}

}  // namespace
}  // namespace w4k::obs
