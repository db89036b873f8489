#include "fec/fountain.h"

#include "gf256/gf256.h"
#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace w4k::fec {
namespace {

// Telemetry (guarded by obs::enabled(); one relaxed add per symbol).
obs::Counter& symbols_encoded() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fec.symbols_encoded");
  return c;
}
obs::Counter& symbols_received() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fec.symbols_received");
  return c;
}
obs::Counter& symbols_innovative() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fec.symbols_innovative");
  return c;
}
obs::Counter& units_decoded() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fec.units_decoded");
  return c;
}

}  // namespace

void coefficient_row_into(std::uint64_t block_seed, Esi esi,
                          std::span<std::uint8_t> row) {
  const std::size_t k = row.size();
  if (esi < k) {
    std::fill(row.begin(), row.end(), 0);
    row[esi] = 1;
    return;
  }
  // Dense random row seeded by (block_seed, esi). Mixing the ESI through
  // the seed keeps rows independent across symbols of the same block.
  Rng rng(block_seed ^ (0x9E3779B97F4A7C15ULL * (esi + 1)));
  bool any = false;
  for (auto& c : row) {
    c = static_cast<std::uint8_t>(rng.below(256));
    any |= (c != 0);
  }
  if (!any) row[esi % k] = 1;  // astronomically rare; keep the row usable
}

FountainEncoder::FountainEncoder(std::span<const std::uint8_t> data,
                                 std::size_t symbol_size,
                                 std::uint64_t block_seed)
    : symbol_size_(symbol_size),
      block_seed_(block_seed),
      source_size_(data.size()) {
  if (symbol_size == 0)
    throw std::invalid_argument("FountainEncoder: symbol_size must be > 0");
  if (data.empty())
    throw std::invalid_argument("FountainEncoder: data must be non-empty");
  k_ = (data.size() + symbol_size - 1) / symbol_size;
  padded_.assign(k_ * symbol_size_, 0);
  std::copy(data.begin(), data.end(), padded_.begin());
}

void FountainEncoder::encode_into(Esi esi, Symbol& out) const {
  if (obs::enabled()) symbols_encoded().add(1);
  out.esi = esi;
  if (esi < k_) {
    // Systematic symbol: construct straight from the padded block (no
    // zero-fill-then-copy).
    const auto* src =
        padded_.data() + static_cast<std::size_t>(esi) * symbol_size_;
    out.data.assign(src, src + symbol_size_);
    return;
  }
  out.data.assign(symbol_size_, 0);
  // Per-thread scratch row: repair encoding is called k times per unit per
  // receiver deficit, and a fresh allocation per call showed up in the
  // Fig. 2 profile.
  thread_local std::vector<std::uint8_t> coeffs;
  coeffs.resize(k_);
  coefficient_row_into(block_seed_, esi, coeffs);
  for (std::size_t i = 0; i < k_; ++i) {
    if (coeffs[i] == 0) continue;
    gf256::mul_add_row(
        out.data,
        std::span<const std::uint8_t>(padded_.data() + i * symbol_size_,
                                      symbol_size_),
        coeffs[i]);
  }
}

Symbol FountainEncoder::encode(Esi esi) const {
  Symbol s;
  encode_into(esi, s);
  return s;
}

FountainDecoder::FountainDecoder(std::size_t k, std::size_t symbol_size,
                                 std::size_t source_size,
                                 std::uint64_t block_seed)
    : k_(k),
      symbol_size_(symbol_size),
      source_size_(source_size),
      block_seed_(block_seed),
      rows_(k) {
  if (k == 0 || symbol_size == 0)
    throw std::invalid_argument("FountainDecoder: k and symbol_size > 0");
  if (source_size > k * symbol_size)
    throw std::invalid_argument("FountainDecoder: source_size too large");
}

void FountainDecoder::reset(std::size_t k, std::size_t symbol_size,
                            std::size_t source_size,
                            std::uint64_t block_seed) {
  if (k == 0 || symbol_size == 0)
    throw std::invalid_argument("FountainDecoder: k and symbol_size > 0");
  if (source_size > k * symbol_size)
    throw std::invalid_argument("FountainDecoder: source_size too large");
  k_ = k;
  symbol_size_ = symbol_size;
  source_size_ = source_size;
  block_seed_ = block_seed;
  symbols_seen_ = 0;
  pivots_filled_ = 0;
  // resize keeps existing Row objects (and their buffer capacity); only
  // clear the occupancy flags.
  rows_.resize(k);
  for (Row& r : rows_) r.present = false;
}

bool FountainDecoder::add_symbol(const Symbol& s) {
  ++symbols_seen_;
  if (obs::enabled()) symbols_received().add(1);
  if (s.data.size() != symbol_size_) return false;
  if (can_decode()) return false;

  scratch_coeffs_.resize(k_);
  coefficient_row_into(block_seed_, s.esi, scratch_coeffs_);
  scratch_data_.assign(s.data.begin(), s.data.end());
  std::vector<std::uint8_t>& coeffs = scratch_coeffs_;
  std::vector<std::uint8_t>& data = scratch_data_;

  // Reduce against the existing echelon basis.
  for (std::size_t p = 0; p < k_; ++p) {
    if (coeffs[p] == 0 || !rows_[p].present) continue;
    const std::uint8_t f = coeffs[p];
    gf256::mul_add_row(coeffs, rows_[p].coeffs, f);
    gf256::mul_add_row(data, rows_[p].data, f);
  }
  // Find the leading nonzero; none -> redundant symbol.
  std::size_t lead = k_;
  for (std::size_t p = 0; p < k_; ++p) {
    if (coeffs[p] != 0) {
      lead = p;
      break;
    }
  }
  if (lead == k_) return false;

  // Normalize so the pivot is 1; the reduction loop above then only needs
  // a single mul_add per pivot.
  const std::uint8_t pivot_inv = gf256::inv(coeffs[lead]);
  gf256::scale_row(coeffs, pivot_inv);
  gf256::scale_row(data, pivot_inv);

  // Swap (not move) so the displaced buffers become the next call's
  // scratch: the buffer set circulates with zero steady-state allocation.
  rows_[lead].coeffs.swap(scratch_coeffs_);
  rows_[lead].data.swap(scratch_data_);
  rows_[lead].present = true;
  ++pivots_filled_;
  if (obs::enabled()) {
    symbols_innovative().add(1);
    if (can_decode()) units_decoded().add(1);
  }
  return true;
}

bool FountainDecoder::decode_into(std::vector<std::uint8_t>& out,
                                  DecodeWorkspace& ws) const {
  if (!can_decode()) return false;

  // Back substitution over a copy of the echelon rows (the decoder stays
  // usable afterwards); the copies live in the workspace and keep their
  // capacity across calls.
  ws.coeffs.resize(k_);
  ws.data.resize(k_);
  for (std::size_t p = 0; p < k_; ++p) {
    ws.coeffs[p] = rows_[p].coeffs;
    ws.data[p] = rows_[p].data;
  }
  for (std::size_t p = k_; p-- > 0;) {
    for (std::size_t r = 0; r < p; ++r) {
      const std::uint8_t f = ws.coeffs[r][p];
      if (f == 0) continue;
      gf256::mul_add_row(ws.coeffs[r], ws.coeffs[p], f);
      gf256::mul_add_row(ws.data[r], ws.data[p], f);
    }
  }
  out.assign(source_size_, 0);
  for (std::size_t p = 0; p < k_; ++p) {
    const std::size_t offset = p * symbol_size_;
    if (offset >= source_size_) break;
    const std::size_t n = std::min(symbol_size_, source_size_ - offset);
    std::copy(ws.data[p].begin(),
              ws.data[p].begin() + static_cast<std::ptrdiff_t>(n),
              out.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> FountainDecoder::decode() const {
  DecodeWorkspace ws;
  std::vector<std::uint8_t> out;
  if (!decode_into(out, ws)) return std::nullopt;
  return out;
}

}  // namespace w4k::fec
