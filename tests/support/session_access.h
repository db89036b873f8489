// Test-only read access to core::MulticastSession internals: what the
// session hands the engine each frame and what the engine reported back.
// It lets tests pin the blind-makeup schedule and the per-group rate
// feedback without a user-settable option for either.
#pragma once

#include "core/session.h"

namespace w4k::core {

struct SessionTestAccess {
  /// The engine fault state of the last transmitted frame.
  static const emu::FrameFaultState& engine_faults(const MulticastSession& s) {
    return s.efs_;
  }
  /// The last decision, and the per-group air parameters and engine result
  /// of the last transmitted frame (indexed like the decision's groups).
  static const sched::Decision& decision(const MulticastSession& s) {
    return s.decision_;
  }
  static const std::vector<emu::GroupTx>& groups_tx(const MulticastSession& s) {
    return s.groups_tx_;
  }
  static const emu::FrameTxResult& tx_result(const MulticastSession& s) {
    return s.tx_result_;
  }
};

}  // namespace w4k::core
