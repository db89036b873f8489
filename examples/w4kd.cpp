// w4kd: the event-driven multicast serving daemon.
//
// Serves fountain-coded sublayer symbols to loopback subscribers: epoll
// event loops sharded across SO_REUSEPORT workers, a refcounted shared
// buffer pool (each symbol written once per frame), batched sendmmsg
// fan-out, per-subscriber leaky-bucket pacing, and a /status HTTP
// endpoint exposing the MetricsRegistry. Pair with w4k_loadgen:
//
//   ./w4kd --port 9460 --status-port 9461 --workers 2 &
//   ./w4k_loadgen --port 9460 --subs 1000 --duration-s 5
//
// Run with --frames N to publish a fixed number of frames and exit
// (tests/scripts); the default streams until SIGINT/SIGTERM. A malformed
// or out-of-range flag, or a configuration the daemon rejects, exits 2
// with a one-line error.
#include "common/args.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/wire.h"

#include <climits>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// A symbol record (header + payload) must fit one IPv4 UDP datagram.
constexpr int kMaxSymbolBytes =
    65507 - static_cast<int>(w4k::serve::wire::kSymbolHeaderBytes);
/// sendmmsg accepts at most UIO_MAXIOV (1024) messages per call.
constexpr int kMaxBatch = 1024;
/// Upper bound of the flags that only need a floor.
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

int main(int argc, char** argv) {
  using namespace w4k;
  std::unique_ptr<serve::Daemon> daemon;
  double fps = 0.0;
  int symbols = 0;
  int frames = 0;
  try {
    Args args(argc, argv);
    serve::DaemonConfig cfg;
    cfg.port = static_cast<std::uint16_t>(args.get_in("port", 9460, 0, 65535));
    cfg.status_port = static_cast<std::uint16_t>(
        args.get_in("status-port", 9461, 0, 65535));
    cfg.workers = static_cast<std::size_t>(args.get_in("workers", 1, 1, 256));
    fps = args.get_in("fps", 30.0, 0.0, kInf);
    cfg.pool_slots =
        static_cast<std::size_t>(args.get_in("pool-slots", 256, 1, 65536));
    cfg.source.symbol_bytes = static_cast<std::size_t>(
        args.get_in("symbol-bytes", 1200, 1, kMaxSymbolBytes));
    cfg.source.seed = static_cast<std::uint64_t>(args.get("seed", 1));
    // Layered source: a base layer plus one enhancement sublayer, the
    // paper's minimum interesting SVC shape. --symbols splits 2:1.
    symbols = args.get_in("symbols", 3, 1,
                          static_cast<int>(serve::kMaxFrameSymbols));
    const auto base = static_cast<std::uint16_t>(symbols - symbols / 3);
    const auto enh = static_cast<std::uint16_t>(symbols / 3);
    cfg.source.layers.push_back({0, 0, 8, base});
    if (enh > 0) cfg.source.layers.push_back({1, 0, 4, enh});
    cfg.worker.max_subscribers = static_cast<std::size_t>(
        args.get_in("max-subs", 16384, 1, INT_MAX));
    cfg.worker.pace_mbps = args.get_in("pace-mbps", 0.0, 0.0, kInf);
    cfg.worker.bucket_bytes = static_cast<std::size_t>(
        args.get_in("bucket-bytes", 15000, 1, INT_MAX));
    cfg.worker.heartbeat_timeout_s =
        args.get_in("heartbeat-timeout-s", 5.0, 0.0, kInf);
    cfg.worker.batch_packets =
        static_cast<std::size_t>(args.get_in("batch", 128, 1, kMaxBatch));
    frames = args.get_in("frames", 0, 0, INT_MAX);

    const auto unknown = args.unqueried();
    if (!unknown.empty()) {
      for (const auto& u : unknown)
        std::fprintf(stderr, "unknown argument: --%s\n", u.c_str());
      return 2;
    }

    obs::set_enabled(true);
    daemon = std::make_unique<serve::Daemon>(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "w4kd: %s\n", e.what());
    return 2;
  }
  daemon->start();
  std::printf("w4kd: port=%u status=%u workers=%zu symbols/frame=%d\n",
              daemon->port(), daemon->status_port(), daemon->n_workers(),
              symbols);
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The only frame cadence loop: publish, then sleep one frame period
  // (--fps 0 publishes back to back).
  const double period = fps > 0.0 ? 1.0 / fps : 0.0;
  int published = 0;
  while (g_stop == 0 && (frames == 0 || published < frames)) {
    if (daemon->publish_one()) ++published;
    if (period > 0.0) {
      timespec ts;
      ts.tv_sec = static_cast<time_t>(period);
      ts.tv_nsec =
          static_cast<long>((period - static_cast<double>(ts.tv_sec)) * 1e9);
      nanosleep(&ts, nullptr);
    }
  }
  // Let workers drain their backlogs before tearing down.
  timespec drain{0, 200'000'000};
  nanosleep(&drain, nullptr);
  daemon->stop();
  std::printf("w4kd: published=%llu subscribers_at_exit=%zu\n",
              static_cast<unsigned long long>(daemon->frames_published()),
              daemon->subscribers());
  return 0;
}
