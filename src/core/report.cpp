#include "core/report.h"

#include "obs/export.h"
#include "verify/invariants.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace w4k::core {

using obs::number_text;

namespace {

/// user_present is empty on the no-churn fast path (everyone present).
bool present(const FrameOutcome& f, std::size_t u) {
  return f.user_present.empty() ||
         (u < f.user_present.size() && f.user_present[u]);
}

}  // namespace

void SessionReport::add(const FrameOutcome& outcome) {
  if (verify::enabled()) {
    const auto& f = outcome;
    verify::check(f.psnr.size() == f.ssim.size() &&
                      f.decoded_fraction.size() == f.ssim.size(),
                  "report.ragged-outcome", [&] {
                    return "ssim/psnr/decoded sizes " +
                           std::to_string(f.ssim.size()) + "/" +
                           std::to_string(f.psnr.size()) + "/" +
                           std::to_string(f.decoded_fraction.size());
                  });
    for (std::size_t u = 0; u < f.ssim.size(); ++u) {
      verify::check(f.ssim[u] >= 0.0 && f.ssim[u] <= 1.0 + 1e-9,
                    "report.ssim-out-of-range", [&] {
                      return "user " + std::to_string(u) + " ssim " +
                             std::to_string(f.ssim[u]);
                    });
      if (u < f.psnr.size())
        verify::check(std::isfinite(f.psnr[u]) && f.psnr[u] >= 0.0,
                      "report.psnr-out-of-range", [&] {
                        return "user " + std::to_string(u) + " psnr " +
                               std::to_string(f.psnr[u]);
                      });
      if (u < f.decoded_fraction.size())
        verify::check(f.decoded_fraction[u] >= 0.0 &&
                          f.decoded_fraction[u] <= 1.0 + 1e-9,
                      "report.decoded-fraction-out-of-range", [&] {
                        return "user " + std::to_string(u) + " decoded " +
                               std::to_string(f.decoded_fraction[u]);
                      });
    }
    verify::check(frames_.empty() || f.frame_id >= frames_.back().frame_id,
                  "report.frame-id-regression", [&] {
                    return "frame_id " + std::to_string(f.frame_id) +
                           " after " + std::to_string(frames_.back().frame_id);
                  });
    verify::check(f.stats.packets_sent <= f.stats.packets_offered,
                  "report.sent-exceeds-offered", [&] {
                    return std::to_string(f.stats.packets_sent) + " sent of " +
                           std::to_string(f.stats.packets_offered) +
                           " offered";
                  });
  }
  frames_.push_back(outcome);
}

std::size_t SessionReport::users() const {
  std::size_t n = 0;
  for (const auto& f : frames_) n = std::max(n, f.ssim.size());
  return n;
}

std::vector<double> SessionReport::all_ssim() const {
  std::vector<double> all;
  for (const auto& f : frames_)
    for (std::size_t u = 0; u < f.ssim.size(); ++u)
      if (present(f, u)) all.push_back(f.ssim[u]);
  return all;
}

std::vector<double> SessionReport::all_psnr() const {
  std::vector<double> all;
  for (const auto& f : frames_)
    for (std::size_t u = 0; u < f.psnr.size(); ++u)
      if (present(f, u)) all.push_back(f.psnr[u]);
  return all;
}

std::vector<double> SessionReport::all_decoded_fraction() const {
  std::vector<double> all;
  for (const auto& f : frames_)
    for (std::size_t u = 0; u < f.decoded_fraction.size(); ++u)
      if (present(f, u)) all.push_back(f.decoded_fraction[u]);
  return all;
}

void SessionReport::merge(const SessionReport& other) {
  // frame_id must stay monotone across the splice even though both
  // segments numbered from 0; rebase the appended segment past our tail.
  std::uint32_t next_id = frames_.empty() ? 0 : frames_.back().frame_id + 1;
  for (const FrameOutcome& f : other.frames_) {
    FrameOutcome renumbered = f;
    renumbered.frame_id = next_id++;
    add(renumbered);
  }
}

Summary SessionReport::ssim_summary() const { return summarize(all_ssim()); }

Summary SessionReport::psnr_summary() const { return summarize(all_psnr()); }

std::vector<double> SessionReport::per_user_mean_ssim() const {
  if (frames_.empty()) return {};
  std::vector<double> sums(users(), 0.0);
  std::vector<std::size_t> present(sums.size(), 0);
  for (const auto& f : frames_)
    for (std::size_t u = 0; u < sums.size() && u < f.ssim.size(); ++u) {
      if (!core::present(f, u)) continue;  // churned out this frame
      sums[u] += f.ssim[u];
      ++present[u];
    }
  for (std::size_t u = 0; u < sums.size(); ++u)
    if (present[u] > 0) sums[u] /= static_cast<double>(present[u]);
  return sums;
}

double SessionReport::bad_frame_fraction(double ssim_threshold) const {
  if (frames_.empty()) return 0.0;
  std::size_t bad = 0;
  for (const auto& f : frames_) {
    bool any_bad = false;
    for (std::size_t u = 0; u < f.ssim.size(); ++u)
      any_bad |= present(f, u) && f.ssim[u] < ssim_threshold;
    bad += any_bad ? 1 : 0;
  }
  return static_cast<double>(bad) / static_cast<double>(frames_.size());
}

SessionReport::Totals SessionReport::totals() const {
  Totals t;
  for (const auto& f : frames_) {
    t.packets_offered += f.stats.packets_offered;
    t.packets_sent += f.stats.packets_sent;
    t.packets_dropped_queue += f.stats.packets_dropped_queue;
    t.makeup_packets += f.stats.makeup_packets;
    t.airtime += f.stats.airtime;
    t.csi_held_frames += f.csi_held ? 1 : 0;
    t.shed_symbols += f.shed_symbols;
    t.handoffs += f.handoffs;
    t.relay_packets += f.stats.relay_packets;
    t.relayed_symbols += f.relayed_symbols;
  }
  return t;
}

std::string SessionReport::summary_text() const {
  std::ostringstream os;
  os << "frames: " << frames() << ", users: " << users() << "\n";
  os << "SSIM " << to_string(ssim_summary()) << "\n";
  os << "PSNR " << to_string(psnr_summary()) << "\n";
  os << "per-user mean SSIM:";
  for (double s : per_user_mean_ssim()) {
    os.precision(4);
    os << " " << std::fixed << s;
  }
  os << "\nbad-frame rate (<0.9): " << bad_frame_fraction() << "\n";
  const Totals t = totals();
  os << "packets sent " << t.packets_sent << " (makeup " << t.makeup_packets
     << ", queue-dropped " << t.packets_dropped_queue << "), airtime "
     << t.airtime << " s\n";
  if (t.csi_held_frames > 0 || t.shed_symbols > 0)
    os << "degraded: " << t.csi_held_frames << " frames on held CSI, "
       << t.shed_symbols << " enhancement symbols shed\n";
  if (t.handoffs > 0 || t.relay_packets > 0)
    os << "multi-AP: " << t.handoffs << " handoffs, " << t.relay_packets
       << " relay packets (" << t.relayed_symbols << " symbols delivered)\n";
  return os.str();
}

void SessionReport::write_csv(std::ostream& os) const {
  const std::size_t n = users();
  os << "frame";
  for (std::size_t u = 0; u < n; ++u) os << ",ssim_u" << u;
  for (std::size_t u = 0; u < n; ++u) os << ",psnr_u" << u;
  for (std::size_t u = 0; u < n; ++u) os << ",decoded_u" << u;
  os << ",packets_sent,packets_dropped,makeup,airtime_s\n";
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    const auto& f = frames_[i];
    os << i;
    // Users absent from a frame (churn) get an empty cell, not a fake 0;
    // frames that simply recorded fewer users keep the zero fill.
    const auto cell = [&](const std::vector<double>& v, std::size_t u) {
      if (u < v.size() && !present(f, u)) return;  // absent: empty cell
      os << (u < v.size() ? v[u] : 0.0);
    };
    for (std::size_t u = 0; u < n; ++u) { os << ','; cell(f.ssim, u); }
    for (std::size_t u = 0; u < n; ++u) { os << ','; cell(f.psnr, u); }
    for (std::size_t u = 0; u < n; ++u) { os << ','; cell(f.decoded_fraction, u); }
    os << ',' << f.stats.packets_sent << ',' << f.stats.packets_dropped_queue
       << ',' << f.stats.makeup_packets << ',' << f.stats.airtime << '\n';
  }
}

void SessionReport::write_csv_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os)
    throw std::runtime_error("SessionReport: cannot create " + path);
  write_csv(os);
  if (!os) throw std::runtime_error("SessionReport: write failed");
}

namespace {

void jarray(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? "," : "") << number_text(v[i]);
  os << ']';
}

void jarray(std::ostream& os, const std::vector<bool>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? "," : "") << (v[i] ? 1 : 0);
  os << ']';
}

void jarray(std::ostream& os, const std::vector<std::uint8_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? "," : "") << static_cast<unsigned>(v[i]);
  os << ']';
}

void jsummary(std::ostream& os, const Summary& s) {
  os << "{\"count\":" << s.count << ",\"mean\":" << number_text(s.mean)
     << ",\"min\":" << number_text(s.min) << ",\"q1\":" << number_text(s.q1)
     << ",\"median\":" << number_text(s.median)
     << ",\"q3\":" << number_text(s.q3)
     << ",\"max\":" << number_text(s.max) << '}';
}

}  // namespace

void SessionReport::write_json(std::ostream& os) const {
  os << "{\"frames\":" << frames() << ",\"users\":" << users();
  os << ",\"ssim\":";
  jsummary(os, ssim_summary());
  os << ",\"psnr\":";
  jsummary(os, psnr_summary());
  os << ",\"per_user_mean_ssim\":";
  jarray(os, per_user_mean_ssim());
  os << ",\"bad_frame_fraction\":" << number_text(bad_frame_fraction());
  const Totals t = totals();
  os << ",\"totals\":{\"packets_offered\":" << t.packets_offered
     << ",\"packets_sent\":" << t.packets_sent
     << ",\"packets_dropped_queue\":" << t.packets_dropped_queue
     << ",\"makeup_packets\":" << t.makeup_packets
     << ",\"airtime\":" << number_text(t.airtime)
     << ",\"csi_held_frames\":" << t.csi_held_frames
     << ",\"shed_symbols\":" << t.shed_symbols;
  // Feature-gated keys: emitted only when multi-AP / relay machinery
  // actually fired, so legacy (single-AP, relay-off) goldens stay
  // byte-identical without a re-bless.
  if (t.handoffs > 0) os << ",\"handoffs\":" << t.handoffs;
  if (t.relay_packets > 0 || t.relayed_symbols > 0)
    os << ",\"relay_packets\":" << t.relay_packets
       << ",\"relayed_symbols\":" << t.relayed_symbols;
  os << '}';
  os << ",\"per_frame\":[";
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    const auto& f = frames_[i];
    os << (i ? "," : "") << "{\"frame_id\":" << f.frame_id << ",\"ssim\":";
    jarray(os, f.ssim);
    os << ",\"psnr\":";
    jarray(os, f.psnr);
    os << ",\"decoded_fraction\":";
    jarray(os, f.decoded_fraction);
    os << ",\"user_present\":";
    jarray(os, f.user_present);
    os << ",\"user_quarantined\":";
    jarray(os, f.user_quarantined);
    os << ",\"stats\":{\"packets_offered\":" << f.stats.packets_offered
       << ",\"packets_sent\":" << f.stats.packets_sent
       << ",\"packets_dropped_queue\":" << f.stats.packets_dropped_queue
       << ",\"makeup_packets\":" << f.stats.makeup_packets
       << ",\"airtime\":" << number_text(f.stats.airtime)
       << ",\"backlog_packets_after\":" << f.stats.backlog_packets_after;
    if (f.stats.relay_packets > 0)
      os << ",\"relay_packets\":" << f.stats.relay_packets
         << ",\"relay_airtime\":" << number_text(f.stats.relay_airtime);
    os << '}';
    os << ",\"shed_symbols\":" << f.shed_symbols
       << ",\"csi_held\":" << (f.csi_held ? "true" : "false");
    if (!f.user_ap.empty()) {
      os << ",\"user_ap\":";
      jarray(os, f.user_ap);
    }
    if (f.handoffs > 0) os << ",\"handoffs\":" << f.handoffs;
    if (f.relayed_symbols > 0)
      os << ",\"relayed_symbols\":" << f.relayed_symbols;
    os << '}';
  }
  os << "]}\n";
}

void SessionReport::write_json_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os)
    throw std::runtime_error("SessionReport: cannot create " + path);
  write_json(os);
  if (!os) throw std::runtime_error("SessionReport: write failed");
}

}  // namespace w4k::core
