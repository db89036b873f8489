#include "obs/export.h"

#include "obs/metrics.h"

#include <cstdio>
#include <ostream>

namespace w4k::obs {

std::string number_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_number(double v) {
  // JSON has no inf/nan; clamp to null-free sentinels.
  std::string s = number_text(v);
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos)
    return "0";
  return s;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void write_json_snapshot(std::ostream& os, const MetricsRegistry& reg) {
  std::string out;
  auto key = [&out](std::string_view name) {
    out += '"';
    append_json_escaped(out, name);
    out += "\":";
  };

  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : reg.counter_values()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    key(name);
    out += std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : reg.gauge_values()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    key(name);
    out += json_number(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    key(name);
    out += "{\"bounds\":[";
    for (std::size_t i = 0; i < h->bounds().size(); ++i) {
      if (i) out += ",";
      out += json_number(h->bounds()[i]);
    }
    out += "],\"counts\":[";
    const auto counts = h->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(counts[i]);
    }
    out += "],\"count\":" + std::to_string(h->count());
    out += ",\"sum\":" + json_number(h->sum()) + "}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"stages\": {";
  first = true;
  for (const StageSummary& s : reg.stage_summaries()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    key(s.name);
    out += "{\"count\":" + std::to_string(s.count);
    out += ",\"total_us\":" +
           json_number(static_cast<double>(s.total_ns) / 1e3);
    out += ",\"max_us\":" +
           json_number(static_cast<double>(s.max_ns) / 1e3) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  os << out;
}

}  // namespace w4k::obs
