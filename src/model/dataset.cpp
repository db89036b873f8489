#include "model/dataset.h"

#include <algorithm>
#include <cmath>

namespace w4k::model {
namespace {

/// Share of the examples that go to the training split (paper: 7:3).
constexpr double kTrainSplit = 0.7;

}  // namespace

void Features::to_input_into(Vec& x) const {
  x.clear();
  x.reserve(kFeatureCount);
  for (double f : fraction) x.push_back(f);
  for (double s : up_to_layer) x.push_back(s);
  x.push_back(blank);
}

Vec Features::to_input() const {
  Vec x;
  to_input_into(x);
  return x;
}

void splice_fractions(const video::EncodedFrame& enc,
                      const std::array<double, video::kNumLayers>& fraction,
                      video::ReconstructWorkspace& ws) {
  ws.begin(enc.width, enc.height);
  for (int l = 0; l < video::kNumLayers; ++l) {
    const std::size_t per_sub =
        video::sublayer_bytes(l, enc.width, enc.height);
    const double frac = std::clamp(fraction[static_cast<std::size_t>(l)], 0.0, 1.0);
    std::size_t remaining = static_cast<std::size_t>(
        frac * static_cast<double>(video::layer_bytes(l, enc.width, enc.height)));
    for (int k = 0; k < video::sublayer_count(l) && remaining > 0; ++k) {
      const std::size_t take = std::min(remaining, per_sub);
      ws.write(l, k, 0, enc.layers[l][static_cast<std::size_t>(k)].data(),
               take);
      remaining -= take;
    }
  }
}

Dataset build_dataset(const std::vector<video::VideoSpec>& specs,
                      const DatasetConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<Example> all;
  video::ReconstructWorkspace ws;
  video::Plane rec;

  // Measures the configured metric on luma, normalized to ~[0, 1].
  const auto measure = [&cfg](const video::Plane& ref,
                              const video::Plane& dist) {
    return cfg.metric == TargetMetric::kSsim
               ? quality::ssim(ref, dist)
               : std::min(1.0, quality::psnr(ref, dist) / kPsnrScale);
  };

  for (const auto& spec : specs) {
    const video::SyntheticVideo clip(spec);
    for (int s = 0; s < cfg.frames_per_video; ++s) {
      const int t = spec.frames <= 1
                        ? 0
                        : s * (spec.frames - 1) / std::max(1, cfg.frames_per_video - 1);
      const video::Frame original = clip.frame(t);
      const video::EncodedFrame enc = video::encode(original);
      quality::ContentFeatures content =
          quality::content_features(original, enc);
      if (cfg.metric == TargetMetric::kPsnr) {
        // PSNR-valued anchor features, per the paper's generalization.
        content.blank = measure(
            original.y, video::Frame::blank(enc.width, enc.height).y);
        // Layer prefixes are cumulative: splicing layer l into the
        // workspace that already holds layers 0..l-1 gives prefix l.
        ws.begin(enc.width, enc.height);
        for (int l = 0; l < video::kNumLayers; ++l) {
          for (int k = 0; k < video::sublayer_count(l); ++k) {
            const auto& sub = enc.layers[l][static_cast<std::size_t>(k)];
            ws.write(l, k, 0, sub.data(), sub.size());
          }
          ws.finish_luma(rec);
          content.up_to_layer[static_cast<std::size_t>(l)] =
              measure(original.y, rec);
        }
      }

      for (int i = 0; i < cfg.fractions_per_frame; ++i) {
        Features f;
        f.up_to_layer = content.up_to_layer;
        f.blank = content.blank;
        // Bias toward "lower layers mostly complete" which is where the
        // system actually operates (the scheduler fills lower layers
        // first), plus uniform coverage of the rest of the cube.
        for (int l = 0; l < video::kNumLayers; ++l) {
          double frac = rng.uniform();
          if (i % 2 == 0) {
            // Prefix-style sample: lower layers complete, upper truncated.
            frac = l < static_cast<int>(rng.below(video::kNumLayers + 1))
                       ? 1.0
                       : rng.uniform();
          }
          f.fraction[static_cast<std::size_t>(l)] = frac;
        }
        splice_fractions(enc, f.fraction, ws);
        ws.finish_luma(rec);
        Example ex;
        ex.x = f.to_input();
        ex.y = measure(original.y, rec);
        all.push_back(std::move(ex));
      }
    }
  }

  // 7:3 random split with no overlap.
  for (std::size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1], all[rng.below(i)]);
  const auto cut = static_cast<std::size_t>(
      kTrainSplit * static_cast<double>(all.size()));
  Dataset ds;
  ds.train.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(cut));
  ds.test.assign(all.begin() + static_cast<std::ptrdiff_t>(cut), all.end());
  return ds;
}

}  // namespace w4k::model
