// Systematic rateless (fountain) code over GF(256).
//
// Stands in for the paper's RaptorQ port (Sec. 2.6). A source block of K
// symbols is expanded into an unbounded stream: encoding symbol id (ESI)
// 0..K-1 are the source symbols verbatim (systematic part); ESI >= K are
// dense random linear combinations over GF(256) whose coefficients are
// derived deterministically from (block seed, ESI), so sender and receiver
// never exchange coefficient vectors.
//
// Properties this shares with RaptorQ, which are the ones the paper's
// design relies on:
//   * rateless: the sender can generate fresh symbols forever ("the sender
//     continuously generates data stream until the receivers can decode");
//   * any-K-ish decodability: receiving K + h symbols decodes with
//     probability ~ 1 - 1/256^(h+1) (dense random matrices over GF(q) are
//     full rank with probability prod_{i>h}(1 - q^-i));
//   * symbols are interchangeable within a block: two distinct coded
//     symbols always carry different information, so multicast groups can
//     be assigned disjoint ESI ranges with zero redundancy.
//
// The decoder performs incremental Gaussian elimination: each arriving
// symbol is reduced against the current echelon basis, so rank is tracked
// online and decode() is a back-substitution once rank == K.
#pragma once

#include "common/rng.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace w4k::fec {

/// Encoding symbol id. ESI < K: systematic; ESI >= K: repair.
using Esi = std::uint32_t;

/// Writes the GF(256) coefficient row for an encoding symbol into `row`,
/// whose size is the block's k. Systematic ESIs produce unit rows; repair
/// ESIs produce dense rows with a guaranteed nonzero element.
/// Deterministic in (block_seed, esi, k).
void coefficient_row_into(std::uint64_t block_seed, Esi esi,
                          std::span<std::uint8_t> row);

/// One coded symbol as it travels in a packet payload.
struct Symbol {
  Esi esi = 0;
  std::vector<std::uint8_t> data;
};

/// Encoder for one source block.
class FountainEncoder {
 public:
  /// Splits `data` into ceil(|data| / symbol_size) symbols, zero-padding
  /// the last. symbol_size must be > 0 and data must be non-empty
  /// (throws std::invalid_argument otherwise).
  FountainEncoder(std::span<const std::uint8_t> data, std::size_t symbol_size,
                  std::uint64_t block_seed);

  std::size_t k() const { return k_; }
  std::size_t symbol_size() const { return symbol_size_; }
  std::uint64_t block_seed() const { return block_seed_; }
  std::size_t source_size() const { return source_size_; }

  /// Produces the encoding symbol with the given ESI. O(K * symbol_size)
  /// for repair symbols, O(symbol_size) for systematic ones. Thread-safe:
  /// encoding only reads the padded source block (per-call scratch is
  /// thread-local).
  Symbol encode(Esi esi) const;

  /// Allocation-free variant: writes the symbol into `out`, reusing
  /// out.data's capacity (steady-state zero heap traffic once the buffer
  /// has reached symbol_size). Bit-identical to encode().
  void encode_into(Esi esi, Symbol& out) const;

 private:
  std::size_t symbol_size_;
  std::uint64_t block_seed_;
  std::size_t source_size_;
  std::size_t k_;
  std::vector<std::uint8_t> padded_;  // k_ * symbol_size_ bytes
};

/// Reusable Gaussian-elimination scratch for FountainDecoder::decode_into.
/// One workspace serves any number of decodes (across units and frames):
/// the nested row copies used by back substitution keep their capacity
/// between calls, so the steady state allocates nothing.
struct DecodeWorkspace {
  std::vector<std::vector<std::uint8_t>> coeffs;
  std::vector<std::vector<std::uint8_t>> data;
};

/// Decoder for one source block.
class FountainDecoder {
 public:
  /// `source_size` is the exact byte length of the original data (needed to
  /// strip padding); k and symbol_size must match the encoder's.
  FountainDecoder(std::size_t k, std::size_t symbol_size,
                  std::size_t source_size, std::uint64_t block_seed);

  /// Re-arms the decoder for a new source block without releasing the
  /// row-echelon storage: rows_ (and each row's coefficient/data buffers)
  /// keep their capacity, so a decoder cycled across a frame's coding
  /// units stops allocating once it has seen the largest unit. Same
  /// argument validation as the constructor.
  void reset(std::size_t k, std::size_t symbol_size, std::size_t source_size,
             std::uint64_t block_seed);

  /// Feeds one received symbol. Returns true if it increased the rank
  /// (i.e., was innovative), false if it was redundant or malformed.
  /// Reduction scratch is reused across calls (no steady-state heap
  /// traffic).
  bool add_symbol(const Symbol& s);

  /// Number of innovative symbols absorbed so far (== current rank).
  std::size_t rank() const { return pivots_filled_; }
  std::size_t k() const { return k_; }
  bool can_decode() const { return pivots_filled_ == k_; }

  /// Recovers the source block once can_decode(). Returns std::nullopt if
  /// the rank is still deficient.
  std::optional<std::vector<std::uint8_t>> decode() const;

  /// Allocation-free recovery: back-substitutes using the caller-provided
  /// workspace and writes the source block into `out` (capacity reused).
  /// Returns false (leaving `out` untouched) while the rank is deficient.
  /// decode() is a thin wrapper over this with a private workspace.
  bool decode_into(std::vector<std::uint8_t>& out,
                   DecodeWorkspace& ws) const;

  /// Symbols received (innovative or not); used for loss accounting.
  std::size_t symbols_seen() const { return symbols_seen_; }

 private:
  std::size_t k_;
  std::size_t symbol_size_;
  std::size_t source_size_;
  std::uint64_t block_seed_;
  std::size_t symbols_seen_ = 0;
  std::size_t pivots_filled_ = 0;
  // Row-echelon storage: rows_[p] has its leading nonzero at column p.
  struct Row {
    std::vector<std::uint8_t> coeffs;
    std::vector<std::uint8_t> data;
    bool present = false;
  };
  std::vector<Row> rows_;
  // add_symbol reduction scratch; swapped into rows_ on an innovative
  // symbol so the buffers circulate instead of being reallocated.
  std::vector<std::uint8_t> scratch_coeffs_;
  std::vector<std::uint8_t> scratch_data_;
};

}  // namespace w4k::fec
