// Test-only access to serve::Worker internals: the GSO segment cap (1 =
// one datagram per message) and the data socket. It lets tests drive the
// single-datagram path without a user-settable option for it.
#pragma once

#include "serve/worker.h"

#include <cstddef>

namespace w4k::serve {

struct WorkerTestAccess {
  static std::size_t segment_cap(const Worker& w) { return w.seg_cap_; }
  static void set_segment_cap(Worker& w, std::size_t cap) { w.seg_cap_ = cap; }
  static int data_fd(const Worker& w) { return w.fd_data_; }
};

}  // namespace w4k::serve
