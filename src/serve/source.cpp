#include "serve/source.h"

#include "common/rng.h"
#include "serve/wire.h"
#include "verify/invariants.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace w4k::serve {
namespace {

std::vector<std::uint8_t> make_block(Rng& rng, std::size_t bytes) {
  std::vector<std::uint8_t> block(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t v = rng.next();
    for (std::size_t j = 0; j < 8 && i + j < bytes; ++j)
      block[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
  }
  return block;
}

}  // namespace

FountainSource::FountainSource(const SourceConfig& cfg) : cfg_(cfg) {
  if (cfg_.symbol_bytes == 0)
    throw std::invalid_argument("FountainSource: zero symbol_bytes");
  if (cfg_.layers.empty()) cfg_.layers.push_back(LayerSpec{});
  Rng rng(cfg_.seed);
  for (const LayerSpec& spec : cfg_.layers) {
    if (spec.k == 0 || spec.symbols == 0)
      throw std::invalid_argument("FountainSource: zero k or symbols");
    // Each unit gets an independent deterministic source block; the block
    // seed is forked per unit so coefficient rows differ across units.
    const auto block = make_block(rng, spec.k * cfg_.symbol_bytes);
    units_.push_back(Unit{
        spec,
        fec::FountainEncoder(block, cfg_.symbol_bytes, rng.next()),
        0,
    });
    symbols_per_frame_ += spec.symbols;
  }
  if (symbols_per_frame_ > kMaxFrameSymbols)
    throw std::invalid_argument("FountainSource: frame exceeds " +
                                std::to_string(kMaxFrameSymbols) +
                                " symbols");
  scratch_.data.reserve(cfg_.symbol_bytes);
}

bool FountainSource::next_frame(BufferPool& pool, FrameDesc& out) {
  out.frame_id = next_frame_id_;
  out.n_symbols = 0;
  for (Unit& u : units_) {
    for (std::uint16_t s = 0; s < u.spec.symbols; ++s) {
      const std::uint32_t slot = pool.acquire();
      if (slot == BufferPool::kNoSlot) {
        for (std::uint32_t i = 0; i < out.n_symbols; ++i)
          pool.release(out.slots[i]);
        out.n_symbols = 0;
        return false;
      }
      u.enc.encode_into(u.next_esi, scratch_);
      wire::SymbolHeader h;
      h.frame_id = out.frame_id;
      h.layer = u.spec.layer;
      h.sublayer = u.spec.sublayer;
      h.esi = u.next_esi;
      h.k = u.spec.k;
      h.n_frame_symbols = static_cast<std::uint16_t>(symbols_per_frame_);
      h.symbol_bytes = static_cast<std::uint32_t>(scratch_.data.size());
      h.block_seed = u.enc.block_seed();
      auto dst = pool.slot(slot);
      verify::check(
          wire::kSymbolHeaderBytes + scratch_.data.size() <= dst.size(),
          "serve.slot-overflow", [&] {
            return "record " +
                   std::to_string(wire::kSymbolHeaderBytes +
                                  scratch_.data.size()) +
                   " B > slot " + std::to_string(dst.size()) + " B";
          });
      wire::serialize_symbol_header(h, dst);
      std::memcpy(dst.data() + wire::kSymbolHeaderBytes, scratch_.data.data(),
                  scratch_.data.size());
      out.slots[out.n_symbols] = slot;
      out.bytes[out.n_symbols] = static_cast<std::uint32_t>(
          wire::kSymbolHeaderBytes + scratch_.data.size());
      ++out.n_symbols;
      ++u.next_esi;
    }
  }
  ++next_frame_id_;  // wraps; receivers order with transport::seq_less
  return true;
}

}  // namespace w4k::serve
