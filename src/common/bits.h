// Set-bit iteration over 64-bit masks: the one loop from a member mask (a
// multicast group, a subset-lane problem) to its indices.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace w4k {

/// A mask's set bits as ascending indices:
/// `for (std::size_t u : SetBits{mask})`.
struct SetBits {
  std::uint64_t mask = 0;

  struct iterator {
    std::uint64_t rest;
    std::size_t operator*() const { return std::countr_zero(rest); }
    iterator& operator++() { rest &= rest - 1; return *this; }
    bool operator!=(const iterator& o) const { return rest != o.rest; }
  };
  iterator begin() const { return {mask}; }
  iterator end() const { return {0}; }
};

/// The mask's set-bit indices, ascending, in caller-owned storage.
inline std::span<const std::size_t> bit_indices(
    std::uint64_t mask, std::array<std::size_t, 64>& idx) {
  std::size_t m = 0;
  for (std::size_t i : SetBits{mask}) idx[m++] = i;
  return {idx.data(), m};
}

}  // namespace w4k
