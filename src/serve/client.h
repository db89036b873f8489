// Loopback client for w4kd: one UDP socket carrying many virtual
// subscribers.
//
// The daemon identifies subscriptions by 64-bit sub id, not by source
// address, so a single connected socket can emulate thousands of
// receivers — which is how w4k_loadgen demonstrates >= 10k subscribers
// under the container's fd limit. Sub ids are contiguous
// [first_sub_id, first_sub_id + n_subs), letting per-sub stats live in a
// flat preallocated vector (drain() allocates nothing).
//
// The socket asks for UDP_GRO, so the kernel may hand back a run of
// datagrams from the daemon as one buffer; drain() cuts it by the
// cmsg's gso_size (wire::split_segments) and accounts every datagram on
// its own, exactly as if it had arrived alone.
#pragma once

#include "serve/wire.h"

#include <sys/socket.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace w4k::serve {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t n_subs = 1;
    std::uint64_t first_sub_id = 0;
    std::size_t rcvbuf_bytes = 4 << 20;
  };

  struct SubStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  explicit Client(const Options& opts);
  ~Client();

  void subscribe_all();
  void heartbeat_all();
  void unsubscribe_all();

  /// Receives until EAGAIN, updating stats; returns packets drained.
  /// `on_packet` (when set) sees every parsed packet.
  std::size_t drain();

  /// Abandon the socket without unsubscribing — emulates a crashed
  /// client whose subscriptions must be reaped by heartbeat expiry.
  void kill();
  bool alive() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  const Options& options() const { return opts_; }
  const std::vector<SubStats>& stats() const { return stats_; }
  std::uint64_t total_packets() const { return total_packets_; }
  std::uint64_t parse_errors() const { return parse_errors_; }
  /// Highest frame id observed (seq_less order); valid once a packet
  /// has arrived.
  std::uint32_t last_frame() const { return last_frame_; }
  bool saw_frame() const { return saw_frame_; }

  /// Optional per-packet hook (decode checks in w4k_loadgen).
  std::function<void(const wire::DataPacket&)> on_packet;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

 private:
  void send_ctrl(wire::CtrlType type, std::uint64_t sub_id);
  /// Counts one parsed datagram; false when its sub id is not ours.
  bool account(const wire::DataPacket& pkt, std::size_t bytes);

  Options opts_;
  int fd_ = -1;
  std::vector<SubStats> stats_;
  std::vector<std::uint8_t> rxbuf_;  ///< one maximal (coalesced) datagram
  /// recvmsg control buffer (the UDP_GRO gso_size).
  alignas(cmsghdr) std::uint8_t ctrl_[CMSG_SPACE(sizeof(int))] = {};
  std::uint64_t total_packets_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint32_t last_frame_ = 0;
  bool saw_frame_ = false;
};

}  // namespace w4k::serve
