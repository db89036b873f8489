// VR arcade scenario — the paper's motivating use case: one WiGig AP
// streams live 4K content to several headsets in the same room.
//
// Six users sit 4-10 m from the AP across a 100-degree spread. The example
// compares all four beamforming schemes and the round-robin scheduler on
// identical placements, printing the per-user quality a player would see.
#include "common/stats.h"
#include "core/experiment.h"
#include "core/pretrained.h"

#include <cstdio>

int main() {
  using namespace w4k;

  constexpr int kW = 256;
  constexpr int kH = 144;  // 1/240-scale stand-in for 4K (rates scaled too)

  // Content: a high-richness clip, the hard case for the codec.
  video::VideoSpec spec = video::standard_videos(kW, kH, 8)[0];
  const auto contexts = core::make_contexts(
      video::SyntheticVideo(spec), 6, core::scaled_symbol_size(kW, kH));

  model::QualityModel quality;
  core::ensure_trained(quality);

  // Headset placement: 6 seats, 4-10 m, 100-degree fan.
  Rng rng(2026);
  channel::PropagationConfig prop;
  const auto seats = core::place_users_random(6, 4.0, 10.0, 1.745, rng);
  const auto channels = core::channels_for(prop, seats);
  std::printf("seats:\n");
  for (std::size_t u = 0; u < seats.size(); ++u)
    std::printf("  headset %zu: %.1f m at %+.0f deg\n", u,
                seats[u].distance(), seats[u].azimuth() * 57.2958);

  std::printf("\n%-26s %-9s %-9s  per-headset SSIM\n", "configuration",
              "SSIM", "PSNR");
  core::Experiment exp(quality, contexts);
  exp.config() = core::SessionConfig::scaled(kW, kH);
  exp.codebook(beamforming::commodity_codebook());
  exp.channels(channels);
  const auto run_one = [&](const char* label, beamforming::Scheme scheme,
                           bool optimized) {
    core::SessionConfig& cfg = exp.config();
    cfg.scheme = scheme;
    cfg.optimized_schedule = optimized;
    cfg.seed = 7;
    const core::SessionReport report = exp.run_static(10);
    std::printf("%-26s %-9.4f %-9.2f ", label,
                report.ssim_summary().mean, report.psnr_summary().mean);
    for (double s : report.per_user_mean_ssim())
      std::printf(" %.3f", s);
    std::printf("\n");
  };

  run_one("opt-multicast + opt-sched", beamforming::Scheme::kOptimizedMulticast,
          true);
  run_one("opt-multicast + roundrobin",
          beamforming::Scheme::kOptimizedMulticast, false);
  run_one("pre-defined multicast", beamforming::Scheme::kPredefinedMulticast,
          true);
  run_one("optimized unicast", beamforming::Scheme::kOptimizedUnicast, true);
  run_one("pre-defined unicast", beamforming::Scheme::kPredefinedUnicast,
          true);

  std::printf("\nthe full system (first row) should lead on both the mean\n"
              "and the worst headset - multicast beams serve shared layers\n"
              "to everyone at once, and the Eq. 1 optimizer spends airtime\n"
              "where the quality model says it buys the most SSIM.\n");
  return 0;
}
