#include "obs/manifest.h"

#include "obs/export.h"
#include "obs/metrics.h"

#include <fstream>
#include <ostream>
#include <sstream>

namespace w4k::obs {
namespace {

std::string quoted(std::string_view s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += '"';
  return out;
}

void write_kv(std::ostream& os,
              const std::vector<std::pair<std::string, std::string>>& kv) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    os << (first ? "\n    " : ",\n    ") << quoted(k) << ": " << v;
    first = false;
  }
  os << (first ? "}" : "\n  }");
}

}  // namespace

void Manifest::set(std::string_view key, std::string_view value) {
  config_.emplace_back(std::string(key), quoted(value));
}
void Manifest::set(std::string_view key, const char* value) {
  set(key, std::string_view(value));
}
void Manifest::set(std::string_view key, double value) {
  config_.emplace_back(std::string(key), json_number(value));
}
void Manifest::set(std::string_view key, std::int64_t value) {
  config_.emplace_back(std::string(key), std::to_string(value));
}
void Manifest::set(std::string_view key, bool value) {
  config_.emplace_back(std::string(key), value ? "true" : "false");
}
void Manifest::set_env(std::string_view key, std::string_view value) {
  env_.emplace_back(std::string(key), quoted(value));
}
void Manifest::set_env(std::string_view key, std::int64_t value) {
  env_.emplace_back(std::string(key), std::to_string(value));
}

void Manifest::write(std::ostream& os) const {
  os << "{\n  \"name\": " << quoted(name_) << ",\n  \"config\": ";
  write_kv(os, config_);
  os << ",\n  \"environment\": ";
  write_kv(os, env_);
  os << ",\n  \"stages\": {";
  bool first = true;
  for (const StageSummary& s : MetricsRegistry::global().stage_summaries()) {
    os << (first ? "\n    " : ",\n    ") << quoted(s.name)
       << ": {\"count\": " << s.count
       << ", \"total_us\": "
       << json_number(static_cast<double>(s.total_ns) / 1e3)
       << ", \"mean_us\": "
       << json_number(s.count ? static_cast<double>(s.total_ns) / 1e3 /
                                    static_cast<double>(s.count)
                              : 0.0)
       << ", \"max_us\": "
       << json_number(static_cast<double>(s.max_ns) / 1e3) << "}";
    first = false;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

bool Manifest::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return os.good();
}

}  // namespace w4k::obs
