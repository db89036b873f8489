#include "campaign/shard.h"

#include "common/stats.h"
#include "obs/export.h"
#include "obs/jsonlite.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace w4k::campaign {

using obs::number_text;

namespace {

CellKind kind_from_string(const std::string& s) {
  if (s == "static") return CellKind::kStatic;
  if (s == "mobile") return CellKind::kMobile;
  if (s == "multiap") return CellKind::kMultiAp;
  throw std::runtime_error("unknown cell kind '" + s + "'");
}

}  // namespace

const std::array<const char*, kNumMetrics> kMetricNames = {
    "ssim_mean",          "ssim_p5",
    "psnr_mean",          "delivery_mean",
    "base_delivery",      "bad_frame_fraction",
    "csi_held_frames",    "shed_symbols",
    "handoffs",           "relay_packets",
};

CellMetrics metrics_from_report(const core::SessionReport& report) {
  CellMetrics m;
  std::vector<double> ssim = report.all_ssim();
  std::sort(ssim.begin(), ssim.end());
  m.v[0] = mean(ssim);
  m.v[1] = quantile_sorted(ssim, 0.05);
  m.v[2] = mean(report.all_psnr());
  const std::vector<double> decoded = report.all_decoded_fraction();
  m.v[3] = mean(decoded);
  std::size_t base_ok = 0;
  for (double d : decoded) base_ok += d > 0.0 ? 1 : 0;
  m.v[4] = decoded.empty()
               ? 0.0
               : static_cast<double>(base_ok) /
                     static_cast<double>(decoded.size());
  m.v[5] = report.bad_frame_fraction();
  const core::SessionReport::Totals t = report.totals();
  m.v[6] = static_cast<double>(t.csi_held_frames);
  m.v[7] = static_cast<double>(t.shed_symbols);
  m.v[8] = static_cast<double>(t.handoffs);
  m.v[9] = static_cast<double>(t.relay_packets);
  for (std::size_t i = 0; i < kNumMetrics; ++i)
    if (!std::isfinite(m.v[i]))
      throw std::runtime_error(std::string("non-finite metric ") +
                               kMetricNames[i]);
  return m;
}

const char* to_string(CellRow::Status s) {
  switch (s) {
    case CellRow::Status::kOk: return "ok";
    case CellRow::Status::kFailed: return "failed";
    case CellRow::Status::kCrashed: return "crashed";
  }
  return "unknown";
}

std::string to_jsonl(const CellRow& row) {
  std::ostringstream os;
  os << "{\"cell\":" << row.cell << ",\"kind\":\"" << to_string(row.kind)
     << "\",\"status\":\"" << to_string(row.status) << '"';
  if (row.status == CellRow::Status::kOk) {
    os << ",\"metrics\":{";
    for (std::size_t i = 0; i < kNumMetrics; ++i)
      os << (i ? "," : "") << '"' << kMetricNames[i]
         << "\":" << number_text(row.metrics.v[i]);
    os << '}';
  }
  if (!row.error.empty()) {
    std::string escaped;
    obs::append_json_escaped(escaped, row.error);
    os << ",\"error\":\"" << escaped << '"';
  }
  os << ",\"wall_ms\":" << number_text(row.wall_ms) << '}';
  return os.str();
}

bool parse_row(const std::string& line, CellRow* out, std::string* err) {
  std::string perr;
  const auto doc = obs::json::parse(line, &perr);
  if (!doc || !doc->is_object()) {
    if (err) *err = perr.empty() ? "not a JSON object" : perr;
    return false;
  }
  const auto* cell = doc->find("cell");
  const auto* kind = doc->find("kind");
  const auto* status = doc->find("status");
  if (!cell || !cell->is_number() || !kind || !kind->is_string() || !status ||
      !status->is_string()) {
    if (err) *err = "missing cell/kind/status";
    return false;
  }
  CellRow row;
  row.cell = static_cast<std::uint64_t>(cell->number);
  try {
    row.kind = kind_from_string(kind->str);
  } catch (const std::exception& e) {
    if (err) *err = e.what();
    return false;
  }
  if (status->str == "ok") {
    row.status = CellRow::Status::kOk;
  } else if (status->str == "failed") {
    row.status = CellRow::Status::kFailed;
  } else if (status->str == "crashed") {
    row.status = CellRow::Status::kCrashed;
  } else {
    if (err) *err = "unknown status '" + status->str + "'";
    return false;
  }
  if (row.status == CellRow::Status::kOk) {
    const auto* metrics = doc->find("metrics");
    if (!metrics || !metrics->is_object()) {
      if (err) *err = "ok row without metrics";
      return false;
    }
    for (std::size_t i = 0; i < kNumMetrics; ++i) {
      const auto* v = metrics->find(kMetricNames[i]);
      if (!v || !v->is_number()) {
        if (err) *err = std::string("missing metric ") + kMetricNames[i];
        return false;
      }
      row.metrics.v[i] = v->number;
    }
  }
  if (const auto* e = doc->find("error"); e && e->is_string())
    row.error = e->str;
  if (const auto* w = doc->find("wall_ms"); w && w->is_number())
    row.wall_ms = w->number;
  *out = row;
  return true;
}

std::vector<CellRow> read_shard(const std::string& path) {
  std::vector<CellRow> rows;
  std::ifstream is(path);
  if (!is) return rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    CellRow row;
    // A torn final line (worker crashed mid-write) parses as garbage and
    // is skipped: the parent reschedules the missing cell.
    if (parse_row(line, &row, nullptr)) rows.push_back(row);
  }
  return rows;
}

CampaignSummary summarize_rows(std::uint64_t campaign_seed,
                               std::uint64_t n_cells,
                               const std::vector<CellRow>& rows) {
  CampaignSummary s;
  s.campaign_seed = campaign_seed;
  s.cells = n_cells;
  for (const CellRow& row : rows) {
    if (row.status == CellRow::Status::kOk) {
      ++s.ok;
      for (std::size_t i = 0; i < kNumMetrics; ++i)
        s.metrics[i].push_back(row.metrics.v[i]);
    } else {
      ++s.failed;
    }
  }
  for (auto& values : s.metrics) std::sort(values.begin(), values.end());
  return s;
}

void write_summary(std::ostream& os, const CampaignSummary& s) {
  os << "{\"campaign_seed\":" << s.campaign_seed << ",\"cells\":" << s.cells
     << ",\"ok\":" << s.ok << ",\"failed\":" << s.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const std::vector<double>& v = s.metrics[i];
    os << (i ? "," : "") << '"' << kMetricNames[i]
       << "\":{\"count\":" << v.size();
    os << ",\"mean\":" << number_text(mean(v))
       << ",\"p5\":" << number_text(quantile_sorted(v, 0.05))
       << ",\"p50\":" << number_text(quantile_sorted(v, 0.50))
       << ",\"p99\":" << number_text(quantile_sorted(v, 0.99));
    os << ",\"values\":[";
    for (std::size_t j = 0; j < v.size(); ++j)
      os << (j ? "," : "") << number_text(v[j]);
    os << "]}";
  }
  os << "}}\n";
}

void write_summary_file(const std::string& path, const CampaignSummary& s) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("campaign: cannot create " + path);
  write_summary(os, s);
  if (!os) throw std::runtime_error("campaign: write failed: " + path);
}

CampaignSummary load_summary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("campaign: cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  std::string err;
  const auto doc = obs::json::parse(buf.str(), &err);
  if (!doc || !doc->is_object())
    throw std::runtime_error("campaign: " + path + ": " +
                             (err.empty() ? "not a JSON object" : err));
  CampaignSummary s;
  const auto num = [&](const char* key) {
    const auto* v = doc->find(key);
    if (!v || !v->is_number())
      throw std::runtime_error("campaign: " + path + ": missing " + key);
    return static_cast<std::uint64_t>(v->number);
  };
  s.campaign_seed = num("campaign_seed");
  s.cells = num("cells");
  s.ok = num("ok");
  s.failed = num("failed");
  const auto* metrics = doc->find("metrics");
  if (!metrics || !metrics->is_object())
    throw std::runtime_error("campaign: " + path + ": missing metrics");
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const auto* m = metrics->find(kMetricNames[i]);
    if (!m || !m->is_object())
      throw std::runtime_error("campaign: " + path + ": missing metric " +
                               kMetricNames[i]);
    const auto* values = m->find("values");
    if (!values || !values->is_array())
      throw std::runtime_error("campaign: " + path + ": metric " +
                               kMetricNames[i] + " has no values");
    for (const auto& v : values->arr) {
      if (!v.is_number())
        throw std::runtime_error("campaign: " + path + ": non-numeric value");
      s.metrics[i].push_back(v.number);
    }
    std::sort(s.metrics[i].begin(), s.metrics[i].end());
  }
  return s;
}

}  // namespace w4k::campaign
