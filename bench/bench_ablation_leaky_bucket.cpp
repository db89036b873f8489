// Ablation: leaky-bucket depth (Sec. 2.7 sets it to ~10 packets — "a
// small value that still sustains high throughput"). Sweeps the depth to
// show tiny buckets throttle throughput while huge ones approach the
// no-rate-control queueing regime.
#include "common.h"

int main() {
  using namespace w4k;
  bench::BenchMain bm("bench_ablation_leaky_bucket");
  bench::print_header(
      "Ablation: leaky-bucket depth (3 users, 3 m, MAS 60)",
      "very small depth starves; ~10 packets is enough; larger adds "
      "nothing");

  std::printf("%-14s %-12s\n", "depth(pkts)", "mean SSIM");
  std::vector<std::pair<std::size_t, double>> results;
  core::Experiment exp(bench::quality_model(), bench::hr_contexts());
  exp.codebook(beamforming::commodity_codebook());
  for (std::size_t depth : {1u, 2u, 5u, 10u, 40u, 200u}) {
    std::vector<double> ssim;
    Rng placement_rng(99);
    for (int run = 0; run < 8; ++run) {
      core::SessionConfig& cfg = exp.config();
      cfg.engine.bucket_packets = depth;
      cfg.seed = 99 + static_cast<std::uint64_t>(run);
      exp.place_fixed(3, 3.0, 1.047, placement_rng);
      const auto r = exp.run_static(6);
      const auto run_ssim = r.all_ssim();
      ssim.insert(ssim.end(), run_ssim.begin(), run_ssim.end());
    }
    const double m = mean(ssim);
    std::printf("%-14zu %-12.4f\n", depth, m);
    results.emplace_back(depth, m);
  }
  // Depth 10 should match depth 200 (no starvation), and depth 1 must not
  // beat depth 10.
  const double at1 = results[0].second;
  const double at10 = results[3].second;
  const double at200 = results[5].second;
  const bool shape_ok = at10 >= at200 - 0.005 && at1 <= at10 + 0.002;
  std::printf("\nshape check (10-packet bucket sustains throughput): %s\n",
              shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
