#include "channel/trace_io.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace w4k::channel {
namespace {

// Version 2 prefixes every step's records with its step index so
// reordered/spliced captures are caught.
constexpr char kMagicV2[8] = {'W', '4', 'K', 'C', 'S', 'I', 'T', '2'};

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

double read_f64(std::istream& is) {
  double v = 0.0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

[[noreturn]] void bad_record(const std::string& path, std::uint32_t t,
                             std::uint32_t u, const std::string& what) {
  throw std::runtime_error("load_trace: " + what + " at step " +
                           std::to_string(t) + " user " + std::to_string(u) +
                           " in " + path);
}

}  // namespace

void save_trace(const CsiTrace& trace, const std::string& path) {
  if (trace.steps() == 0 || trace.users() == 0)
    throw std::runtime_error("save_trace: empty trace");
  const std::size_t antennas = trace.snapshots[0][0].size();
  for (std::size_t t = 0; t < trace.steps(); ++t) {
    if (trace.snapshots[t].size() != trace.users() ||
        trace.positions[t].size() != trace.users())
      throw std::runtime_error("save_trace: ragged trace");
    for (const auto& h : trace.snapshots[t])
      if (h.size() != antennas)
        throw std::runtime_error("save_trace: ragged antenna count");
  }

  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_trace: cannot create " + path);
  os.write(kMagicV2, sizeof(kMagicV2));
  write_u32(os, static_cast<std::uint32_t>(trace.steps()));
  write_u32(os, static_cast<std::uint32_t>(trace.users()));
  write_u32(os, static_cast<std::uint32_t>(antennas));
  write_f64(os, trace.interval);
  for (std::size_t t = 0; t < trace.steps(); ++t) {
    write_u32(os, static_cast<std::uint32_t>(t));  // sequence id
    for (std::size_t u = 0; u < trace.users(); ++u) {
      write_f64(os, trace.positions[t][u].x);
      write_f64(os, trace.positions[t][u].y);
      for (std::size_t n = 0; n < antennas; ++n) {
        write_f64(os, trace.snapshots[t][u][n].real());
        write_f64(os, trace.snapshots[t][u][n].imag());
      }
    }
  }
  if (!os) throw std::runtime_error("save_trace: write failed");
}

CsiTrace load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace: cannot open " + path);
  return load_trace(is, path);
}

CsiTrace load_trace(std::istream& is, const std::string& path) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)
    throw std::runtime_error("load_trace: bad magic in " + path);

  const std::uint32_t steps = read_u32(is);
  const std::uint32_t users = read_u32(is);
  const std::uint32_t antennas = read_u32(is);
  CsiTrace trace;
  trace.interval = read_f64(is);
  if (!is || steps == 0 || users == 0 || antennas == 0 ||
      steps > 10'000'000 || users > 1024 || antennas > 4096)
    throw std::runtime_error("load_trace: implausible header in " + path);
  if (!std::isfinite(trace.interval) || trace.interval <= 0.0)
    throw std::runtime_error("load_trace: non-positive beacon interval in " +
                             path);

  trace.snapshots.resize(steps);
  trace.positions.resize(steps);
  for (std::uint32_t t = 0; t < steps; ++t) {
    const std::uint32_t seq = read_u32(is);
    if (!is) bad_record(path, t, 0, "truncated step header");
    if (seq != t)
      bad_record(path, t, 0,
                 "out-of-order step id (got " + std::to_string(seq) + ")");
    trace.snapshots[t].resize(users);
    trace.positions[t].resize(users);
    for (std::uint32_t u = 0; u < users; ++u) {
      trace.positions[t][u].x = read_f64(is);
      trace.positions[t][u].y = read_f64(is);
      if (!std::isfinite(trace.positions[t][u].x) ||
          !std::isfinite(trace.positions[t][u].y))
        bad_record(path, t, u, "non-finite position");
      linalg::CVector h(antennas);
      for (std::uint32_t n = 0; n < antennas; ++n) {
        const double re = read_f64(is);
        const double im = read_f64(is);
        if (!std::isfinite(re) || !std::isfinite(im))
          bad_record(path, t, u, "non-finite channel value");
        h[n] = linalg::Complex(re, im);
      }
      // A row that ran past EOF is reported where it happened, not as a
      // whole-file "truncated" after megabytes of zero-filled snapshots.
      if (!is) bad_record(path, t, u, "truncated record");
      trace.snapshots[t][u] = std::move(h);
    }
  }
  if (!is) throw std::runtime_error("load_trace: truncated " + path);
  return trace;
}

}  // namespace w4k::channel
