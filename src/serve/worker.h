// One serving shard: an epoll loop owning one SO_REUSEPORT UDP socket,
// its subscriber table, and a single-producer/single-consumer inbox of
// published frames (DESIGN.md Sec. 4j).
//
// The kernel's SO_REUSEPORT 4-tuple hash pins each client socket — and
// therefore all of its virtual subscribers and their heartbeats — to one
// worker, so the subscriber table needs no locking: only the worker
// thread touches it. The publisher communicates exclusively through the
// lock-free inbox ring plus an eventfd kick.
//
// Steady state is allocation-free: subscriber slots, the batch arrays
// (mmsghdr / iovec / per-packet prefixes / UDP_SEGMENT control buffers),
// and the inbox are all sized at construction. Each symbol is a
// [prefix, shared pool slot] iovec pair; a subscriber's consecutive
// packets of equal wire size leave as one UDP GSO message (a UDP_SEGMENT
// cmsg with gso_size = prefix + record), so the kernel walks its stack
// once per run instead of once per datagram. A run ends at a size
// change, a pacing deferral, the batch limit, 64 segments or 65507 bytes.
// Messages go out batched through sendmmsg. When the kernel refuses GSO
// the socket's segment cap drops to 1 for good and the refused message is
// re-sent as single datagrams by the same loop; nothing is dropped for it.
#pragma once

#include "obs/metrics.h"
#include "serve/buffer_pool.h"
#include "transport/leaky_bucket.h"

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

namespace w4k::serve {

struct WorkerConfig {
  int index = 0;                    ///< shard number (metric names)
  std::size_t max_subscribers = 16384;
  double pace_mbps = 0.0;           ///< per-subscriber leaky-bucket rate;
                                    ///< 0 disables pacing
  std::size_t bucket_bytes = 15000; ///< bucket depth (~10 packets)
  double heartbeat_timeout_s = 5.0; ///< expire silent subscribers
  std::size_t batch_packets = 128;  ///< packets per sendmmsg batch
};

/// Fixed-capacity SPSC ring of published frames (publisher -> worker).
class FrameRing {
 public:
  static constexpr std::uint32_t kCap = 32;

  bool push(FrameDesc* f);       // producer
  FrameDesc* front() const;      // consumer; nullptr when empty
  void pop();                    // consumer; only after front() != nullptr
  std::size_t size() const;

 private:
  std::array<FrameDesc*, kCap> buf_{};
  std::atomic<std::uint32_t> head_{0}, tail_{0};
};

class Worker {
 public:
  /// Takes ownership of `data_fd` (bound, non-blocking, SO_REUSEPORT).
  Worker(const WorkerConfig& cfg, BufferPool& pool, int data_fd);
  ~Worker();

  void start();  ///< spawn the event-loop thread
  void stop();   ///< flag + eventfd kick + join

  /// Publisher side: enqueue a frame whose slots already carry this
  /// worker's references. False when the backlog is full (caller keeps
  /// the references and counts the drop).
  bool publish(FrameDesc* f);

  /// One synchronous event-loop iteration (tests and the alloc gate call
  /// this directly instead of start()): epoll_wait up to `timeout_ms`,
  /// drain control traffic, advance pacing clocks, pump sends, expire
  /// silent subscribers.
  void run_once(int timeout_ms);

  std::size_t subscribers() const {
    return n_active_.load(std::memory_order_relaxed);
  }
  std::size_t backlog() const { return inbox_.size(); }
  std::uint64_t packets_sent() const { return packets_sent_.value(); }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

 private:
  friend struct WorkerTestAccess;  // tests/support/serve_access.h

  /// UDP_MAX_SEGMENTS of older kernels (newer ones allow 128) and the
  /// largest UDP payload over IPv4.
  static constexpr std::size_t kMaxSegments = 64;
  static constexpr std::size_t kMaxUdpPayload = 65507;

  /// One message's UDP_SEGMENT control buffer.
  struct GsoCmsg {
    alignas(cmsghdr) std::uint8_t buf[CMSG_SPACE(sizeof(std::uint16_t))];
  };

  struct Sub {
    std::uint64_t id = 0;
    sockaddr_in addr{};
    transport::LeakyBucket bucket{Mbps{0.0}, 1};
    double last_heard = 0.0;
    std::uint32_t progress = 0;   ///< symbols of the head frame sent
    std::uint32_t active_pos = 0; ///< index into active_ (swap-remove)
    bool active = false;
  };

  void run();
  void on_ctrl(double now);
  void subscribe(std::uint64_t id, const sockaddr_in& from, double now);
  void remove(std::uint32_t slot);
  void pump();
  void enqueue_packet(std::uint32_t sub, std::uint32_t pool_slot,
                      std::size_t record);
  std::size_t build_messages(std::size_t first);
  void flush_batch();
  void finish_frame(FrameDesc* f);
  void expire(double now);
  int timeout_hint_ms() const;

  WorkerConfig cfg_;
  BufferPool& pool_;
  int fd_data_;
  int fd_event_ = -1;
  int fd_epoll_ = -1;

  FrameRing inbox_;
  std::vector<Sub> subs_;
  std::vector<std::uint32_t> free_subs_;
  std::vector<std::uint32_t> active_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_id_;

  // Batch arrays, sized at construction. Per packet (batch_packets): the
  // [prefix, slot] iovec pair, the prefix bytes and the subscriber slot.
  // Per message (at most one per packet): the mmsghdr and its control
  // buffer. Messages are cut from the packets at flush time.
  std::vector<mmsghdr> msgs_;
  std::vector<iovec> iovs_;
  std::vector<std::array<std::uint8_t, 16>> prefixes_;
  std::vector<std::uint32_t> pkt_sub_;
  std::vector<GsoCmsg> cmsgs_;
  std::size_t batch_n_ = 0;
  std::size_t seg_cap_ = kMaxSegments;  ///< 1 once the kernel refuses GSO

  bool pacing_ = false;
  double last_tick_ = 0.0;
  double last_sweep_ = 0.0;
  double next_wait_s_ = -1.0;  ///< min bucket wait seen by the last pump

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> n_active_{0};

  obs::Counter& packets_sent_;
  obs::Counter& bytes_sent_;
  obs::Counter& batches_;
  obs::Counter& gso_sends_;  ///< multi-segment messages; off with obs
  obs::Counter& send_errors_;
  obs::Counter& ctrl_rejects_;
  obs::Counter& table_full_;
  obs::Counter& expired_;
  obs::Gauge& g_subscribers_;
  obs::Gauge& g_backlog_;
};

}  // namespace w4k::serve
