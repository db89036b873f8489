#include "beamforming/codebook.h"

#include "channel/array.h"

#include <cmath>
#include <stdexcept>

namespace w4k::beamforming {

namespace {

/// Steered beam on the leading `subarray` elements of an `n`-element
/// array, phase-quantized; trailing elements are muted.
linalg::CVector subarray_beam(double theta, std::size_t n,
                              std::size_t subarray, int bits) {
  const linalg::CVector steer =
      channel::steering_vector(theta, subarray).conj();
  const linalg::CVector quant = channel::quantize_phases(steer, bits);
  linalg::CVector out(n);
  for (std::size_t i = 0; i < subarray; ++i) out[i] = quant[i];
  return out;  // norm is 1: quantize_phases sets magnitude 1/sqrt(subarray)
}

}  // namespace

Codebook make_multilevel_codebook(std::size_t n_antennas,
                                  const std::vector<CodebookLevel>& levels,
                                  int phase_bits, double max_abs_azimuth) {
  std::size_t total = 0;
  for (const auto& lvl : levels) total += lvl.n_beams;
  if (total == 0 || total > 128)
    throw std::invalid_argument(
        "make_multilevel_codebook: total beams must be in 1..128");
  Codebook cb;
  cb.beams.reserve(total);
  const double smax = std::sin(max_abs_azimuth);
  for (const auto& lvl : levels) {
    if (lvl.subarray == 0 || lvl.subarray > n_antennas)
      throw std::invalid_argument(
          "make_multilevel_codebook: bad subarray size");
    for (std::size_t k = 0; k < lvl.n_beams; ++k) {
      const double frac =
          lvl.n_beams == 1
              ? 0.5
              : static_cast<double>(k) / static_cast<double>(lvl.n_beams - 1);
      const double theta = std::asin(-smax + 2.0 * smax * frac);
      cb.beams.push_back(
          subarray_beam(theta, n_antennas, lvl.subarray, phase_bits));
    }
  }
  return cb;
}

void append_dual_lobe_beams(Codebook& cb, std::size_t n_antennas,
                            std::size_t n_directions, int phase_bits,
                            double max_abs_azimuth) {
  if (n_directions < 2)
    throw std::invalid_argument("append_dual_lobe_beams: need >= 2 dirs");
  const std::size_t added = n_directions * (n_directions - 1) / 2;
  if (cb.size() + added > 128)
    throw std::invalid_argument(
        "append_dual_lobe_beams: would exceed the 128-entry limit");
  const std::size_t half = n_antennas / 2;
  const double smax = std::sin(max_abs_azimuth);
  std::vector<double> dirs(n_directions);
  for (std::size_t i = 0; i < n_directions; ++i)
    dirs[i] = std::asin(-smax + 2.0 * smax * static_cast<double>(i) /
                                     static_cast<double>(n_directions - 1));
  for (std::size_t a = 0; a < n_directions; ++a) {
    for (std::size_t b = a + 1; b < n_directions; ++b) {
      const linalg::CVector lobe_a =
          channel::steering_vector(dirs[a], half).conj();
      const linalg::CVector lobe_b =
          channel::steering_vector(dirs[b], half).conj();
      linalg::CVector beam(n_antennas);
      for (std::size_t n = 0; n < half; ++n) beam[n] = lobe_a[n];
      for (std::size_t n = half; n < n_antennas; ++n)
        beam[n] = lobe_b[n - half];
      // Quantize to the shifter grid (also fixes all-element equal power).
      cb.beams.push_back(channel::quantize_phases(beam, phase_bits));
    }
  }
}

const Codebook& commodity_codebook() {
  static const Codebook cb = [] {
    Codebook book = make_multilevel_codebook(channel::kDefaultApAntennas,
                                             {{32, 20}, {8, 8}, {4, 4}});
    append_dual_lobe_beams(book, channel::kDefaultApAntennas, 14, kPhaseBits,
                           /*max_abs_azimuth=*/1.06);
    return book;
  }();
  return cb;
}

Codebook make_sector_codebook(const CodebookConfig& cfg) {
  if (cfg.n_beams == 0 || cfg.n_beams > 128)
    throw std::invalid_argument(
        "make_sector_codebook: n_beams must be in 1..128");
  Codebook cb;
  cb.beams.reserve(cfg.n_beams);
  const double smax = std::sin(kSectorAzimuth);
  for (std::size_t k = 0; k < cfg.n_beams; ++k) {
    const double frac =
        cfg.n_beams == 1
            ? 0.5
            : static_cast<double>(k) / static_cast<double>(cfg.n_beams - 1);
    const double s = -smax + 2.0 * smax * frac;
    const double theta = std::asin(s);
    // The conjugate steering vector is the matched (MRT) beam toward theta;
    // quantization to the phase-shifter grid makes it "pre-defined".
    const linalg::CVector ideal =
        channel::steering_vector(theta, cfg.n_antennas).conj();
    cb.beams.push_back(channel::quantize_phases(ideal, kPhaseBits));
  }
  return cb;
}

}  // namespace w4k::beamforming
