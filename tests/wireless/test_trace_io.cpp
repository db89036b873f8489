#include "channel/trace_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

namespace w4k::channel {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string("w4k_trace_test_") + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

CsiTrace small_trace() {
  MovingReceiverConfig cfg;
  cfg.n_users = 2;
  cfg.duration = 1.0;
  cfg.prop.n_antennas = 8;
  cfg.seed = 4;
  return moving_receiver_trace(cfg);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  TempPath tmp("roundtrip.bin");
  const CsiTrace original = small_trace();
  save_trace(original, tmp.path);
  const CsiTrace loaded = load_trace(tmp.path);

  ASSERT_EQ(loaded.steps(), original.steps());
  ASSERT_EQ(loaded.users(), original.users());
  EXPECT_DOUBLE_EQ(loaded.interval, original.interval);
  for (std::size_t t = 0; t < original.steps(); ++t) {
    for (std::size_t u = 0; u < original.users(); ++u) {
      EXPECT_DOUBLE_EQ(loaded.positions[t][u].x, original.positions[t][u].x);
      EXPECT_DOUBLE_EQ(loaded.positions[t][u].y, original.positions[t][u].y);
      ASSERT_EQ(loaded.snapshots[t][u].size(), original.snapshots[t][u].size());
      for (std::size_t n = 0; n < original.snapshots[t][u].size(); ++n)
        EXPECT_EQ(loaded.snapshots[t][u][n], original.snapshots[t][u][n]);
    }
  }
}

TEST(TraceIo, EmptyTraceRejected) {
  TempPath tmp("empty.bin");
  EXPECT_THROW(save_trace(CsiTrace{}, tmp.path), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/trace.bin"), std::runtime_error);
}

TEST(TraceIo, BadMagicRejected) {
  TempPath tmp("badmagic.bin");
  std::ofstream(tmp.path, std::ios::binary) << "WRONGMAGICxxxxxxxxxxxx";
  EXPECT_THROW(load_trace(tmp.path), std::runtime_error);
}

TEST(TraceIo, TruncationDetected) {
  TempPath tmp("trunc.bin");
  const CsiTrace original = small_trace();
  save_trace(original, tmp.path);
  // Chop the file in half.
  std::ifstream in(tmp.path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(tmp.path, std::ios::binary)
      << data.substr(0, data.size() / 2);
  EXPECT_THROW(load_trace(tmp.path), std::runtime_error);
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream(path, std::ios::binary) << data;
}

void expect_load_error(const std::string& path, const char* needle) {
  try {
    load_trace(path);
    FAIL() << "expected throw mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// v2 layout: 8 magic + 3 u32 + 1 f64 header, then per step a u32 seq id
// followed by users x (2 f64 position + antennas x 2 f64 channel).
constexpr std::size_t kHeaderBytes = 8 + 3 * 4 + 8;

std::size_t step_bytes(std::size_t users, std::size_t antennas) {
  return 4 + users * (2 * 8 + antennas * 2 * 8);
}

}  // namespace

TEST(TraceIo, NonFiniteValueNamesTheRecord) {
  TempPath tmp("nan.bin");
  save_trace(small_trace(), tmp.path);
  std::string data = slurp(tmp.path);
  // Poison the x position of step 0, user 0 (right after the seq id).
  const double nan = std::nan("");
  std::memcpy(data.data() + kHeaderBytes + 4, &nan, sizeof(nan));
  spit(tmp.path, data);
  expect_load_error(tmp.path, "non-finite position at step 0 user 0");
}

TEST(TraceIo, NonFiniteChannelValueRejected) {
  TempPath tmp("nanchan.bin");
  const CsiTrace original = small_trace();
  save_trace(original, tmp.path);
  std::string data = slurp(tmp.path);
  // First channel double of step 1, user 1.
  const std::size_t off = kHeaderBytes +
                          step_bytes(original.users(), 8) +  // past step 0
                          4 + (2 * 8 + 8 * 2 * 8) + 2 * 8;
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(data.data() + off, &inf, sizeof(inf));
  spit(tmp.path, data);
  expect_load_error(tmp.path, "non-finite channel value at step 1 user 1");
}

TEST(TraceIo, OutOfOrderStepIdRejected) {
  TempPath tmp("reorder.bin");
  const CsiTrace original = small_trace();
  save_trace(original, tmp.path);
  std::string data = slurp(tmp.path);
  // Overwrite step 1's sequence id: a spliced/reordered capture.
  const std::size_t off = kHeaderBytes + step_bytes(original.users(), 8);
  const std::uint32_t wrong = 7;
  std::memcpy(data.data() + off, &wrong, sizeof(wrong));
  spit(tmp.path, data);
  expect_load_error(tmp.path, "out-of-order step id (got 7) at step 1");
}

TEST(TraceIo, NonPositiveIntervalRejected) {
  TempPath tmp("interval.bin");
  save_trace(small_trace(), tmp.path);
  std::string data = slurp(tmp.path);
  const double bad = -0.1;
  std::memcpy(data.data() + 8 + 3 * 4, &bad, sizeof(bad));
  spit(tmp.path, data);
  expect_load_error(tmp.path, "interval");
}

TEST(TraceIo, VersionOneMagicRejectedAsBadMagic) {
  // A well-formed file of the retired v1 layout (no per-step sequence
  // ids): 1 step, 1 user, 2 antennas. Only the v2 magic loads.
  TempPath tmp("v1.bin");
  std::ofstream os(tmp.path, std::ios::binary);
  os.write("W4KCSIT1", 8);
  const auto u32 = [&](std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto f64 = [&](double v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  u32(1);
  u32(1);
  u32(2);
  f64(0.1);           // interval
  f64(1.5);           // pos x
  f64(-2.0);          // pos y
  f64(0.25);          // antenna 0 re/im
  f64(-0.5);
  f64(1.0);           // antenna 1 re/im
  f64(0.0);
  os.close();

  expect_load_error(tmp.path, "bad magic");
}

TEST(TraceIo, ReplayedTraceDrivesEmulation) {
  // Saved traces must be usable exactly like freshly generated ones.
  TempPath tmp("replay.bin");
  const CsiTrace original = small_trace();
  save_trace(original, tmp.path);
  const CsiTrace loaded = load_trace(tmp.path);
  const auto rss_orig = best_case_rss_dbm(original, 0);
  const auto rss_loaded = best_case_rss_dbm(loaded, 0);
  ASSERT_EQ(rss_orig.size(), rss_loaded.size());
  for (std::size_t i = 0; i < rss_orig.size(); ++i)
    EXPECT_DOUBLE_EQ(rss_orig[i], rss_loaded[i]);
}

}  // namespace
}  // namespace w4k::channel
