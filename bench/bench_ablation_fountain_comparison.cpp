// Ablation: dense GF(256) fountain (the paper's RaptorQ stand-in) vs the
// classic sparse LT code over the paper's coding-unit geometry. Shows why
// a RaptorQ-class code is the right choice for 20-symbol units: at small
// K the LT's soliton overhead is punishing, while the dense code decodes
// at K symbols with ~1/256 residual failure.
#include "common.h"

#include "fec/fountain.h"
#include "fec/lt.h"

#include <chrono>
#include <cstdio>
#include <vector>

namespace {

using namespace w4k;

std::vector<std::uint8_t> unit_data(std::size_t bytes) {
  std::vector<std::uint8_t> data(bytes);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return data;
}

struct CodeStats {
  double overhead = 0.0;       // symbols needed / K
  double encode_us_per_sym = 0.0;
  double decode_us_per_unit = 0.0;
};

CodeStats measure_dense(std::size_t k, std::size_t symbol, int trials) {
  const auto data = unit_data(k * symbol);
  double total_syms = 0.0;
  double enc_us = 0.0, dec_us = 0.0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 77 + static_cast<std::uint64_t>(t);
    fec::FountainEncoder enc(data, symbol, seed);
    fec::FountainDecoder dec(k, symbol, data.size(), seed);
    fec::Esi esi = static_cast<fec::Esi>(k);  // repair-only (worst case)
    int sent = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (!dec.can_decode()) {
      dec.add_symbol(enc.encode(esi++));
      ++sent;
    }
    dec_us += std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    total_syms += sent;
    const auto e0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < k; ++i)
      (void)enc.encode(esi + static_cast<fec::Esi>(i));
    enc_us += std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - e0)
                  .count();
  }
  return {total_syms / (trials * static_cast<double>(k)),
          enc_us / (trials * static_cast<double>(k)), dec_us / trials};
}

CodeStats measure_lt(std::size_t k, std::size_t symbol, int trials) {
  const auto data = unit_data(k * symbol);
  double total_syms = 0.0;
  double enc_us = 0.0, dec_us = 0.0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 77 + static_cast<std::uint64_t>(t);
    fec::LtEncoder enc(data, symbol, seed);
    fec::LtDecoder dec(k, symbol, data.size(), seed);
    std::uint32_t esi = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (!dec.can_decode()) {
      dec.add_symbol(esi, enc.encode(esi));
      ++esi;
    }
    dec_us += std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    total_syms += esi;
    const auto e0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < k; ++i)
      (void)enc.encode(esi + static_cast<std::uint32_t>(i));
    enc_us += std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - e0)
                  .count();
  }
  return {total_syms / (trials * static_cast<double>(k)),
          enc_us / (trials * static_cast<double>(k)), dec_us / trials};
}

}  // namespace

int main() {
  w4k::bench::BenchMain bm("bench_ablation_fountain_comparison");
  std::printf("==============================================================\n");
  std::printf("Ablation: dense GF(256) fountain vs sparse LT code\n");
  std::printf("unit geometry per the paper: symbol 6000 B; K swept\n");
  std::printf("==============================================================\n");
  std::printf("%-6s %-8s | %-10s\n", "K", "code", "overhead");

  // Wall-clock costs vary run to run, so they print only on '#' lines:
  // the rest of stdout is a pure function of the code.
  bool shape_ok = true;
  for (std::size_t k : {10u, 20u, 50u, 200u}) {
    const CodeStats dense = measure_dense(k, 6000, 5);
    const CodeStats lt = measure_lt(k, 6000, 5);
    std::printf("%-6zu %-8s | %-10.3f\n", k, "dense", dense.overhead);
    std::printf("# %-4s %-8s   enc us/sym %-8.1f dec us/unit %.0f\n", "",
                "dense", dense.encode_us_per_sym, dense.decode_us_per_unit);
    std::printf("%-6s %-8s | %-10.3f\n", "", "LT", lt.overhead);
    std::printf("# %-4s %-8s   enc us/sym %-8.1f dec us/unit %.0f\n", "",
                "LT", lt.encode_us_per_sym, lt.decode_us_per_unit);
    // Dense decodes at ~K (overhead < 1.07 incl. the 1/256 retries);
    // LT pays visibly more at the paper's small unit sizes.
    shape_ok &= dense.overhead < 1.07;
    shape_ok &= lt.overhead > dense.overhead;
  }
  std::printf("\nshape check (dense ~zero overhead, LT pays the soliton "
              "tax at small K): %s\n",
              shape_ok ? "PASS" : "FAIL");
  return shape_ok ? 0 : 1;
}
