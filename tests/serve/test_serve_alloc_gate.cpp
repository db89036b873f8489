// Zero-allocation gate: after warmup, one full daemon cycle — encode a
// frame into pool slots, publish to the worker, fan it out to every
// subscriber as UDP GSO runs, drain it client-side through UDP_GRO —
// performs zero heap allocations.
// Only meaningful under -DW4K_COUNT_ALLOCS=ON (operator new/delete
// overridden); otherwise the test skips rather than vacuously passing.
#include "common/alloc_count.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"

#include <gtest/gtest.h>

namespace w4k::serve {
namespace {

TEST(ServeAllocGate, SteadyStateFramePathIsAllocationFree) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";

  obs::set_enabled(true);
  DaemonConfig cfg;
  cfg.status = false;  // the HTTP responder builds strings; keep it out
  cfg.workers = 1;
  cfg.pool_slots = 64;
  cfg.source.symbol_bytes = 1200;
  cfg.source.layers = {{0, 0, 8, 4}, {1, 0, 4, 2}};  // 6 symbols/frame
  // Pacing on, at a rate the 32-subscriber fan-out never saturates: the
  // bucket arithmetic runs on every packet but never defers a send, so
  // the gate covers the pacing path too.
  cfg.worker.pace_mbps = 50000.0;
  cfg.worker.bucket_bytes = 1 << 20;
  Daemon d(cfg);
  Worker& w = d.worker(0);

  Client::Options o;
  o.port = d.port();
  o.n_subs = 32;
  o.first_sub_id = 1;
  Client c(o);
  c.subscribe_all();
  w.run_once(50);
  ASSERT_EQ(w.subscribers(), 32u);

  // Warmup: first frames populate encoder scratch, batch arrays, and the
  // kernel-side socket state.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(d.publish_one());
    w.run_once(10);
    c.drain();
  }

  // Looked up before the scope: a registry lookup builds a string.
  const obs::Counter& gso_sends =
      obs::MetricsRegistry::global().counter("serve.w0.gso_sends");
  const std::uint64_t sent0 = w.packets_sent();
  const std::uint64_t gso0 = gso_sends.value();
  alloc_count::Scope scope;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.publish_one());
    w.run_once(10);
    c.drain();
  }
  EXPECT_EQ(scope.taken(), 0u)
      << "steady-state frame path allocated on the heap";
  EXPECT_EQ(w.packets_sent() - sent0, 5u * 6u * 32u);
  EXPECT_EQ(c.parse_errors(), 0u);
  // The measured frames went out as UDP GSO runs, not one datagram each.
  EXPECT_GT(gso_sends.value(), gso0);
}

// Sanity: the gate would actually trip if the path allocated.
TEST(ServeAllocGate, GateTripsOnDeliberateAllocation) {
  if (!alloc_count::counting_available())
    GTEST_SKIP() << "W4K_COUNT_ALLOCS is off in this build";
  alloc_count::Scope scope;
  auto* p = new int(7);
  EXPECT_GE(scope.taken(), 1u);
  delete p;
}

}  // namespace
}  // namespace w4k::serve
