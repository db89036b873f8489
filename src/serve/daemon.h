// w4kd: the event-driven multicast serving daemon (DESIGN.md Sec. 4j).
//
// Composition root for src/serve: one FountainSource feeding a shared
// BufferPool, N sharded Workers (each an epoll loop on its own
// SO_REUSEPORT UDP socket), and an optional /status HTTP endpoint.
//
// Publish path per frame:
//   1. the source encodes each symbol once into a pool slot (refcount 1,
//      publisher-owned);
//   2. the publisher takes one extra reference per worker and pushes the
//      FrameDesc into each worker's SPSC inbox (eventfd kick); a full
//      inbox refuses the frame for that worker — references returned,
//      drop counted — so a stuck shard never blocks the source;
//   3. workers fan the slots out to their subscribers and release their
//      references; the last release frees the slot.
//
// After warmup the whole cycle — encode, publish, fan-out, release — runs
// without heap allocation (ServeAllocGate pins this under
// W4K_COUNT_ALLOCS).
#pragma once

#include "obs/metrics.h"
#include "serve/buffer_pool.h"
#include "serve/http_status.h"
#include "serve/source.h"
#include "serve/worker.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace w4k::serve {

struct DaemonConfig {
  std::uint16_t port = 0;         ///< UDP data/ctrl port; 0 = ephemeral
  std::uint16_t status_port = 0;  ///< TCP /status port; 0 = ephemeral
  bool status = true;             ///< serve /status at all
  std::size_t workers = 1;
  std::size_t pool_slots = 256;
  SourceConfig source;
  WorkerConfig worker;  ///< per-shard template; index is set per worker
};

class Daemon {
 public:
  explicit Daemon(const DaemonConfig& cfg);
  ~Daemon();

  /// Binds nothing new (sockets are bound in the constructor); starts the
  /// worker threads and the status thread.
  void start();

  /// Publishes one frame now. The caller sets the frame cadence (w4kd's
  /// loop, bench_serve, perfbench and the tests each drive their own).
  /// False when the publish ring entry is still in flight or the pool is
  /// exhausted (counted, frame skipped).
  bool publish_one();

  void stop();

  std::uint16_t port() const { return port_; }
  std::uint16_t status_port() const {
    return status_ ? status_->port() : 0;
  }
  std::size_t n_workers() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_[i]; }
  std::size_t subscribers() const;
  std::uint64_t frames_published() const { return pub_frames_.value(); }
  const DaemonConfig& config() const { return cfg_; }
  BufferPool& pool() { return pool_; }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  DaemonConfig cfg_;
  BufferPool pool_;
  FountainSource source_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<StatusServer> status_;
  std::uint16_t port_ = 0;

  static constexpr std::size_t kPubRing = 16;
  std::unique_ptr<FrameDesc[]> ring_;
  std::size_t ring_pos_ = 0;

  obs::Counter& pub_frames_;
  obs::Counter& pub_symbols_;
  obs::Counter& pub_ring_stalls_;
  obs::Counter& pub_pool_exhausted_;
  obs::Counter& pub_worker_drops_;
  obs::Gauge& g_pool_free_;
};

}  // namespace w4k::serve
