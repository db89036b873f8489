#include "core/frame_context.h"

#include <algorithm>

namespace w4k::core {

FrameContext make_frame_context(video::Frame frame,
                                const video::Frame* previous,
                                std::size_t symbol_size,
                                std::size_t symbols_per_unit) {
  FrameContext ctx;
  ctx.encoded = video::encode(frame);
  quality::reference_sums_into(frame.y, ctx.reference);
  const quality::ContentFeatures f =
      quality::content_features(frame.y, ctx.reference, ctx.encoded);
  ctx.units = sched::frame_units(frame.width(), frame.height(), symbol_size,
                                 symbols_per_unit);
  // Layer caps are the symbol-padded transmission sizes (sum of whole
  // symbols over the layer's coding units), not the raw byte sizes —
  // otherwise an allocation of exactly layer_bytes comes up a few symbols
  // short of decoding the final unit of each sublayer.
  for (int l = 0; l < video::kNumLayers; ++l) {
    const auto ls = static_cast<std::size_t>(l);
    ctx.content.layer_bytes[ls] = 0.0;
    ctx.content.up_to_layer_ssim[ls] = f.up_to_layer[ls];
  }
  for (const auto& u : ctx.units)
    ctx.content.layer_bytes[u.id.layer] +=
        static_cast<double>(u.k_symbols * symbol_size);
  ctx.content.blank_ssim = f.blank;
  ctx.blank_psnr = f.blank_psnr;
  if (previous != nullptr)
    ctx.prev_frame_ssim =
        quality::scores(frame.y, ctx.reference, previous->y).ssim;
  ctx.original = std::move(frame);
  return ctx;
}

std::vector<FrameContext> make_contexts(const video::SyntheticVideo& clip,
                                        int count,
                                        std::size_t symbol_size) {
  std::vector<FrameContext> out;
  out.reserve(static_cast<std::size_t>(count));
  video::Frame prev;
  for (int t = 0; t < count && t < clip.frame_count(); ++t) {
    video::Frame f = clip.frame(t);
    out.push_back(make_frame_context(f, t > 0 ? &prev : nullptr,
                                     symbol_size));
    prev = std::move(f);
  }
  return out;
}

void reconstruct_luma_from_units_into(const FrameContext& ctx,
                                      const std::vector<bool>& unit_decoded,
                                      video::ReconstructWorkspace& ws,
                                      video::Plane& out) {
  const int w = ctx.encoded.width;
  const int h = ctx.encoded.height;
  ws.begin(w, h);
  for (std::size_t i = 0; i < ctx.units.size() && i < unit_decoded.size();
       ++i) {
    if (!unit_decoded[i]) continue;
    const sched::UnitSpec& u = ctx.units[i];
    // Units past the luma slice carry only chroma.
    const std::size_t luma = video::sublayer_luma_bytes(u.id.layer, w, h);
    if (u.offset >= luma) continue;
    const auto& src =
        ctx.encoded.layers[u.id.layer][static_cast<std::size_t>(u.sublayer_k)];
    ws.write(u.id.layer, u.sublayer_k, u.offset, src.data() + u.offset,
             std::min(u.source_bytes, luma - u.offset));
  }
  ws.finish_luma(out);
}

video::Frame reconstruct_from_units(const FrameContext& ctx,
                                    const std::vector<bool>& unit_decoded) {
  video::ReconstructWorkspace ws;
  ws.begin(ctx.encoded.width, ctx.encoded.height);
  for (std::size_t i = 0; i < ctx.units.size() && i < unit_decoded.size();
       ++i) {
    if (!unit_decoded[i]) continue;
    const sched::UnitSpec& u = ctx.units[i];
    const auto& src =
        ctx.encoded.layers[u.id.layer][static_cast<std::size_t>(u.sublayer_k)];
    ws.write(u.id.layer, u.sublayer_k, u.offset, src.data() + u.offset,
             u.source_bytes);
  }
  video::Frame out;
  ws.finish(out);
  return out;
}

double rate_scale_for(int width, int height) {
  return (static_cast<double>(width) * height) /
         (static_cast<double>(video::k4kWidth) * video::k4kHeight);
}

std::size_t scaled_symbol_size(int width, int height) {
  const double s = static_cast<double>(fec::kDefaultSymbolSize) *
                   rate_scale_for(width, height);
  return std::max<std::size_t>(40, static_cast<std::size_t>(s + 0.5));
}

}  // namespace w4k::core
