#include "serve/daemon.h"

#include "serve/wire.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>

namespace w4k::serve {
namespace {

/// SO_SNDBUF requested for each worker socket.
constexpr int kSndbufBytes = 4 << 20;

// Opens one member of the SO_REUSEPORT group on 127.0.0.1:`port`,
// non-blocking, with a kSndbufBytes send buffer. `port` 0 on the first
// socket picks the ephemeral port the rest of the group must reuse.
int open_group_socket(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("Daemon: socket failed");
  const int one = 1;
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    close(fd);
    throw std::runtime_error("Daemon: SO_REUSEPORT failed");
  }
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSndbufBytes, sizeof kSndbufBytes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error("Daemon: bind failed (port " +
                             std::to_string(port) + ")");
  }
  socklen_t alen = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
  *bound_port = ntohs(addr.sin_port);
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

obs::Counter& ctr(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

}  // namespace

Daemon::Daemon(const DaemonConfig& cfg)
    : cfg_(cfg),
      pool_(wire::kSymbolHeaderBytes + cfg.source.symbol_bytes,
            cfg.pool_slots),
      source_(cfg.source),
      ring_(std::make_unique<FrameDesc[]>(kPubRing)),
      pub_frames_(ctr("serve.pub.frames")),
      pub_symbols_(ctr("serve.pub.symbols")),
      pub_ring_stalls_(ctr("serve.pub.ring_stalls")),
      pub_pool_exhausted_(ctr("serve.pub.pool_exhausted")),
      pub_worker_drops_(ctr("serve.pub.worker_drops")),
      g_pool_free_(obs::MetricsRegistry::global().gauge("serve.pool.free")) {
  if (cfg_.workers == 0) throw std::invalid_argument("Daemon: zero workers");
  // Pool must at least hold one frame per publish-ring entry; shallower
  // pools just publish fewer frames ahead, but a pool smaller than one
  // frame can never publish at all.
  if (cfg_.pool_slots < source_.symbols_per_frame())
    throw std::invalid_argument("Daemon: pool smaller than one frame");
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    // First bind resolves an ephemeral port; the rest join its group.
    const int fd = open_group_socket(i == 0 ? cfg_.port : port_, &port_);
    WorkerConfig wc = cfg_.worker;
    wc.index = static_cast<int>(i);
    workers_.push_back(std::make_unique<Worker>(wc, pool_, fd));
  }
  if (cfg_.status) {
    status_ = std::make_unique<StatusServer>(
        cfg_.status_port, [this](std::string& body) {
          body += "\"workers\":" + std::to_string(workers_.size()) + ",";
          body += "\"subscribers\":" + std::to_string(subscribers()) + ",";
          body += "\"frames_published\":" +
                  std::to_string(frames_published()) + ",";
          body += "\"port\":" + std::to_string(port_) + ",";
        });
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  for (auto& w : workers_) w->start();
  if (status_) status_->start();
}

bool Daemon::publish_one() {
  FrameDesc& d = ring_[ring_pos_];
  if (d.workers_pending.load(std::memory_order_acquire) != 0) {
    // Every worker inbox holding this ring entry is still draining it;
    // skipping keeps the source real-time instead of head-of-line blocked.
    pub_ring_stalls_.add();
    return false;
  }
  if (!source_.next_frame(pool_, d)) {
    pub_pool_exhausted_.add();
    return false;
  }
  std::size_t enqueued = 0;
  for (auto& w : workers_) {
    for (std::uint32_t i = 0; i < d.n_symbols; ++i)
      pool_.add_refs(d.slots[i], 1);
    d.workers_pending.fetch_add(1, std::memory_order_acq_rel);
    if (w->publish(&d)) {
      ++enqueued;
    } else {
      d.workers_pending.fetch_sub(1, std::memory_order_acq_rel);
      for (std::uint32_t i = 0; i < d.n_symbols; ++i)
        pool_.release(d.slots[i]);
      pub_worker_drops_.add();
    }
  }
  // Drop the publisher's own references; workers now co-own the slots.
  for (std::uint32_t i = 0; i < d.n_symbols; ++i) pool_.release(d.slots[i]);
  ring_pos_ = (ring_pos_ + 1) % kPubRing;
  pub_frames_.add();
  pub_symbols_.add(d.n_symbols);
  g_pool_free_.set(static_cast<double>(pool_.free_slots()));
  return enqueued > 0;
}

void Daemon::stop() {
  for (auto& w : workers_) w->stop();
  if (status_) status_->stop();
}

std::size_t Daemon::subscribers() const {
  std::size_t n = 0;
  for (const auto& w : workers_) n += w->subscribers();
  return n;
}

}  // namespace w4k::serve
