// Ablation: group-enumeration pruning (Sec. 2.4 "we omit the groups whose
// throughput is below a threshold to speed up computation"). Sweeps the
// rate threshold and reports surviving groups, optimizer wall time, and
// delivered quality — quantifying the compute/quality trade.
#include "common.h"

#include "sched/workspace.h"

#include <chrono>

int main() {
  using namespace w4k;
  bench::BenchMain bm("bench_ablation_group_pruning");
  bench::print_header(
      "Ablation: group pruning threshold vs optimizer cost and quality",
      "aggressive pruning cuts optimizer time with little quality loss");

  Rng rng(2025);
  channel::PropagationConfig prop;
  const auto users = core::place_users_random(6, 8.0, 16.0, 2.0944, rng);
  const auto channels = core::channels_for(prop, users);

  core::Experiment exp(bench::quality_model(), bench::hr_contexts());
  exp.codebook(beamforming::commodity_codebook());
  exp.channels(channels);

  // decide(ms) is wall clock and varies run to run, so it prints only on
  // '#' lines.
  std::printf("%-16s %-10s %-12s\n", "threshold(Mbps)", "groups",
              "mean SSIM");
  double unpruned_ssim = 0.0;
  bool shape_ok = true;
  for (double threshold : {0.0, 300.0, 700.0, 1250.0}) {
    core::SessionConfig& cfg = exp.config();
    cfg.group_enum.rate_threshold = Mbps{threshold};
    cfg.seed = 2025;

    // Count groups the config admits.
    Rng grng(1);
    sched::SchedWorkspace gws;
    const auto groups = sched::enumerate_groups(
        cfg.scheme, channels, beamforming::commodity_codebook(), grng.next(),
        cfg.group_enum, nullptr, gws);

    const auto t0 = std::chrono::steady_clock::now();
    const auto run = exp.run_static(6);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      6.0;
    const double ssim = run.ssim_summary().mean;
    std::printf("%-16.0f %-10zu %-12.4f\n", threshold, groups.size(), ssim);
    std::printf("# decide(ms) %.2f\n", ms);
    if (threshold == 0.0) unpruned_ssim = ssim;
    // Moderate pruning must be quality-free; the most aggressive setting
    // (6 groups left) may pay a visible but bounded price.
    if (threshold <= 700.0) shape_ok &= ssim > unpruned_ssim - 0.01;
    else shape_ok &= ssim > unpruned_ssim - 0.05;
  }
  std::printf("\nshape check (moderate pruning free, aggressive bounded): "
              "%s\n",
              shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
