// Offline codec tool: show what a receiver would see at a given link
// budget by pushing a Y4M clip through the layered codec and writing the
// partially-received reconstruction back out as Y4M.
//
//   degrade_y4m <in.y4m> <out.y4m> <megabits-per-second> [max-frames]
//
// With no arguments, generates a demo clip first and degrades that, so
// the example runs out of the box. Feed it a real Derf 4K clip to see the
// codec on real footage.
#include "common/stats.h"
#include "core/frame_context.h"
#include "model/dataset.h"
#include "video/io.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

/// Writes a short synthetic demo clip and returns its path.
std::string make_demo_clip() {
  using namespace w4k;
  const std::string path = "degrade_demo_in.y4m";
  video::VideoSpec spec;
  spec.width = 256;
  spec.height = 144;
  spec.frames = 30;
  spec.richness = video::Richness::kHigh;
  spec.seed = 5;
  const video::SyntheticVideo clip(spec);
  video::Y4mWriter writer(path, spec.width, spec.height);
  for (int t = 0; t < spec.frames; ++t) writer.write(clip.frame(t));
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace w4k;

  std::string in_path = argc > 1 ? argv[1] : make_demo_clip();
  const std::string out_path = argc > 2 ? argv[2] : "degrade_demo_out.y4m";
  // Default budget: enough for the lower layers plus a slice of layer 3.
  const double mbps = argc > 3 ? std::atof(argv[3]) : 8.0;
  const int max_frames = argc > 4 ? std::atoi(argv[4]) : 90;

  video::Y4mReader reader(in_path);
  const auto& hdr = reader.header();
  std::printf("input: %s (%dx%d @ %d/%d fps)\n", in_path.c_str(), hdr.width,
              hdr.height, hdr.fps_num, hdr.fps_den);
  video::Y4mWriter writer(out_path, hdr.width, hdr.height, hdr.fps_num,
                          hdr.fps_den);

  const double fps =
      static_cast<double>(hdr.fps_num) / std::max(1, hdr.fps_den);
  const double bytes_per_frame = mbps * 1e6 / 8.0 / fps;
  std::printf("link budget: %.1f Mbps -> %.0f bytes/frame\n", mbps,
              bytes_per_frame);

  std::vector<double> ssim_all;
  video::ReconstructWorkspace ws;
  video::Frame rec;
  int frames = 0;
  while (auto frame = reader.next()) {
    if (frames >= max_frames) break;
    const video::EncodedFrame enc = video::encode(*frame);

    // Fill layers lowest-first with the per-frame byte budget — exactly
    // what the scheduler does when one user has the whole link.
    std::array<double, video::kNumLayers> fraction{};
    double remaining = bytes_per_frame;
    for (int l = 0; l < video::kNumLayers; ++l) {
      const double cap = static_cast<double>(
          video::layer_bytes(l, hdr.width, hdr.height));
      const double take = std::min(cap, remaining);
      fraction[static_cast<std::size_t>(l)] = cap > 0 ? take / cap : 0.0;
      remaining -= take;
    }
    model::splice_fractions(enc, fraction, ws);
    ws.finish(rec);
    ssim_all.push_back(quality::ssim(*frame, rec));
    writer.write(rec);
    ++frames;
  }

  std::printf("wrote %d degraded frames to %s\n", frames, out_path.c_str());
  std::printf("quality at this budget: SSIM %s\n",
              to_string(summarize(ssim_all)).c_str());
  return 0;
}
