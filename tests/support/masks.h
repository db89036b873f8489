// Test helper that spells a group mask as a member list.
#pragma once

#include "sched/groups.h"

#include <cstddef>
#include <vector>

namespace w4k::test {

/// The mask with exactly `users` set.
inline sched::GroupMask mask_of(const std::vector<std::size_t>& users) {
  sched::GroupMask mask = 0;
  for (std::size_t u : users) mask |= sched::GroupMask{1} << u;
  return mask;
}

}  // namespace w4k::test
