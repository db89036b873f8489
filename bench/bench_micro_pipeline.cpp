// Microbenchmarks of the per-frame pipeline stages (google-benchmark):
// layered encode, reconstruction, SSIM, quality-model inference, and the
// Eq. 1 optimizer — the budget items behind the paper's claim that the
// optimization stage "takes a few milliseconds". The SSIM and GF(256)
// cases report bytes/second (per-kernel MB/s) and label the active SIMD
// tier; BENCH_kernels.json (the machine-readable A/B) is emitted by
// bench_fig2_raptor_timing.
#include "gbench_common.h"

#include "common/thread_pool.h"
#include "gf256/gf256.h"
#include "sched/workspace.h"

namespace {

using namespace w4k;

const video::Frame& frame_512() {
  static const video::Frame f = [] {
    video::VideoSpec spec;
    spec.width = 512;
    spec.height = 288;
    spec.frames = 1;
    spec.richness = video::Richness::kHigh;
    return video::SyntheticVideo(spec).frame(0);
  }();
  return f;
}

/// Splices layers 0..`layer` of `enc`, fully received, into `ws`.
void splice_layers(const video::EncodedFrame& enc, int layer,
                   video::ReconstructWorkspace& ws) {
  ws.begin(enc.width, enc.height);
  for (int l = 0; l <= layer; ++l) {
    for (int k = 0; k < video::sublayer_count(l); ++k) {
      const auto& sub = enc.layers[l][static_cast<std::size_t>(k)];
      ws.write(l, k, 0, sub.data(), sub.size());
    }
  }
}

/// The frame a receiver of layers 0..`layer` decodes.
video::Frame decode_layers(const video::EncodedFrame& enc, int layer) {
  video::ReconstructWorkspace ws;
  splice_layers(enc, layer, ws);
  video::Frame out;
  ws.finish(out);
  return out;
}

void BM_LayeredEncode(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(video::encode(frame_512()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_512().total_bytes()));
}
BENCHMARK(BM_LayeredEncode)->Unit(benchmark::kMillisecond);

void BM_Reconstruct(benchmark::State& state) {
  const auto enc = video::encode(frame_512());
  video::ReconstructWorkspace ws;
  video::Frame out;
  for (auto _ : state) {
    splice_layers(enc, video::kNumLayers - 1, ws);
    ws.finish(out);
    benchmark::DoNotOptimize(out.y.pix.data());
  }
}
BENCHMARK(BM_Reconstruct)->Unit(benchmark::kMillisecond);

void BM_Ssim(benchmark::State& state) {
  const video::Frame& a = frame_512();
  const video::Frame b = decode_layers(video::encode(a), 2);
  for (auto _ : state) benchmark::DoNotOptimize(quality::ssim(a, b));
  state.counters["pool"] = static_cast<double>(ThreadPool::shared().size());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(a.y.pix.size()));
}
BENCHMARK(BM_Ssim)->Unit(benchmark::kMillisecond);

// SSIM at the paper's native 4K: the per-frame budget item that forced
// the banded-parallel tiling. Reports plane MB/s on the shared pool.
void BM_Ssim4K(benchmark::State& state) {
  static const video::Frame a = [] {
    video::VideoSpec spec;
    spec.width = 3840;
    spec.height = 2160;
    spec.frames = 1;
    spec.richness = video::Richness::kHigh;
    return video::SyntheticVideo(spec).frame(0);
  }();
  static const video::Frame b = decode_layers(video::encode(a), 2);
  for (auto _ : state) benchmark::DoNotOptimize(quality::ssim(a, b));
  state.counters["pool"] = static_cast<double>(ThreadPool::shared().size());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(a.y.pix.size()));
}
BENCHMARK(BM_Ssim4K)->Unit(benchmark::kMillisecond);

// Raw GF(256) row kernel at the paper's 6000 B symbol size; the label
// names the dispatch tier actually in use.
void BM_GfMulAddRow6000(benchmark::State& state) {
  auto dst = bench::affine_bytes(6000, 7, 3);
  const auto src = bench::affine_bytes(6000, 13, 1);
  for (auto _ : state) {
    gf256::mul_add_row(dst, src, 0xA7);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(gf256::tier_name(gf256::active_tier()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dst.size()));
}
BENCHMARK(BM_GfMulAddRow6000)->Unit(benchmark::kNanosecond);

void BM_QualityModelPredict(benchmark::State& state) {
  auto& model = bench::quality_model();
  model::Features f;
  f.fraction = {1.0, 1.0, 0.6, 0.2};
  f.up_to_layer = {0.8, 0.9, 0.95, 1.0};
  f.blank = 0.7;
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(f));
}
BENCHMARK(BM_QualityModelPredict)->Unit(benchmark::kMicrosecond);

void BM_ScheduleOptimizer(benchmark::State& state) {
  // N users at 8-16 m: enumerate groups once, then time Eq. 1.
  const auto n_users = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  channel::PropagationConfig prop;
  const auto users = core::place_users_random(n_users, 8.0, 16.0, 2.09, rng);
  const auto channels = core::channels_for(prop, users);
  sched::SchedWorkspace gws;
  const auto emitted = sched::enumerate_groups(
      beamforming::Scheme::kOptimizedMulticast, channels,
      beamforming::Codebook{}, rng.next(), {}, nullptr, gws);
  // Owning copy: AllocProblem::groups is a span and the workspace-backed
  // span would be invalidated by any further enumeration.
  std::vector<sched::GroupSpec> groups(emitted.begin(), emitted.end());
  const double scale = core::rate_scale_for(bench::kWidth, bench::kHeight);
  for (auto& g : groups) g.beam.rate = Mbps{g.beam.rate.value * scale};

  sched::AllocProblem p;
  p.groups = groups;
  p.n_users = n_users;
  p.content = bench::hr_contexts()[0].content;
  auto& model = bench::quality_model();
  sched::AllocScratch scratch;
  sched::Allocation out;
  for (auto _ : state) {
    sched::optimize_allocation_into(p, model, scratch, out);
    benchmark::DoNotOptimize(out.objective);
  }
  state.counters["groups"] = static_cast<double>(groups.size());
}
BENCHMARK(BM_ScheduleOptimizer)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MulticastBeamSvd(benchmark::State& state) {
  const auto n_users = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  channel::PropagationConfig prop;
  const auto users = core::place_users_random(n_users, 8.0, 16.0, 2.09, rng);
  const auto channels = core::channels_for(prop, users);
  for (auto _ : state)
    benchmark::DoNotOptimize(beamforming::group_beam(
        beamforming::Scheme::kOptimizedMulticast, channels,
        beamforming::Codebook{}, /*seed=*/8));
}
BENCHMARK(BM_MulticastBeamSvd)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return w4k::bench::run_gbench("bench_micro_pipeline", argc, argv);
}
