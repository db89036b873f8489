// Minimal HTTP/1.0 status endpoint for w4kd.
//
// One thread, sequential accept loop, three routes:
//   GET /status  -> {"daemon":"w4kd",...extra...,"metrics":<snapshot>}
//                   where <snapshot> is obs::write_json_snapshot of the
//                   global MetricsRegistry (counters, gauges, histograms,
//                   stage aggregates);
//   GET /healthz -> {"ok":true}
//   anything else -> 404.
//
// The response body is strict JSON — the same jsonlite parser used by the
// telemetry validators (and fuzzed against this exact response shape)
// must accept it. Deliberately not a general HTTP server: loopback-only
// diagnostics, one request per connection, Connection: close.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

namespace w4k::serve {

/// The method and path of an HTTP request line, viewing the request bytes.
struct RequestLine {
  std::string_view method;
  std::string_view path;
};

/// Splits the request line "METHOD SP PATH SP ..." at the first two spaces
/// of `request`, read up to its first NUL byte (the status endpoint keeps
/// the request as a C string). Returns nullopt with fewer than two spaces
/// before that point. Never reads outside `request`.
std::optional<RequestLine> parse_request_line(std::string_view request);

class StatusServer {
 public:
  /// `extra` appends daemon-level fields to the /status JSON object; each
  /// call must append zero or more `"key":value,` pairs (trailing comma
  /// included). Pass port 0 for an ephemeral port (see port()).
  using ExtraFn = std::function<void(std::string&)>;

  StatusServer(std::uint16_t port, ExtraFn extra);
  ~StatusServer();

  void start();
  void stop();

  /// Actual bound TCP port (resolved when the constructor binds).
  std::uint16_t port() const { return port_; }

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

 private:
  void run();
  void serve_one(int fd);
  std::string build_status() const;

  ExtraFn extra_;
  int fd_listen_ = -1;
  int fd_wake_[2] = {-1, -1};  // self-pipe to interrupt poll() on stop
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace w4k::serve
