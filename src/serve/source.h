// Fountain symbol source for the serving daemon.
//
// Holds one persistent FountainEncoder per configured (layer, sublayer)
// unit and, for each published frame, emits the next never-before-sent
// ESIs of every unit ("the sender continuously generates data stream"),
// writing each symbol record — wire::SymbolHeader + payload — directly
// into a BufferPool slot. The encoder scratch Symbol is reused across
// frames, so after the first frame reaches steady state next_frame()
// performs no heap allocation.
#pragma once

#include "fec/fountain.h"
#include "serve/buffer_pool.h"

#include <cstdint>
#include <vector>

namespace w4k::serve {

struct LayerSpec {
  std::uint16_t layer = 0;
  std::uint16_t sublayer = 0;
  std::uint16_t k = 4;        ///< source symbols per block
  std::uint16_t symbols = 2;  ///< coded symbols emitted per frame
};

struct SourceConfig {
  std::size_t symbol_bytes = 1200;  ///< fountain symbol payload size
  std::uint64_t seed = 1;           ///< block-seed / source-content seed
  std::vector<LayerSpec> layers;    ///< empty = one base layer {0,0,4,2}
};

class FountainSource {
 public:
  explicit FountainSource(const SourceConfig& cfg);

  /// Encodes one frame's symbols into freshly acquired pool slots and
  /// fills `out` (frame id, slot indices, record lengths). On pool
  /// exhaustion releases anything acquired and returns false, leaving the
  /// frame id unconsumed. The caller owns one reference per slot.
  bool next_frame(BufferPool& pool, FrameDesc& out);

  std::size_t symbols_per_frame() const { return symbols_per_frame_; }
  std::uint32_t next_frame_id() const { return next_frame_id_; }
  const SourceConfig& config() const { return cfg_; }

 private:
  struct Unit {
    LayerSpec spec;
    fec::FountainEncoder enc;
    fec::Esi next_esi = 0;
  };

  SourceConfig cfg_;
  std::vector<Unit> units_;
  std::size_t symbols_per_frame_ = 0;
  std::uint32_t next_frame_id_ = 0;
  fec::Symbol scratch_;
};

}  // namespace w4k::serve
