#include "common/args.h"

#include <sstream>
#include <stdexcept>

namespace w4k {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      named_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another option or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      named_[body] = argv[++i];
    } else {
      named_[body] = "";
    }
  }
}

bool Args::has(const std::string& name) const {
  queried_[name] = true;
  return named_.count(name) > 0;
}

std::optional<std::string> Args::value(const std::string& name) const {
  queried_[name] = true;
  const auto it = named_.find(name);
  if (it == named_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  return value(name).value_or(def);
}

double Args::get(const std::string& name, double def) const {
  const auto v = value(name);
  if (!v) return def;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                *v + "'");
  }
}

int Args::get(const std::string& name, int def) const {
  const auto v = value(name);
  if (!v) return def;
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + ": expected an integer, got '" +
                                *v + "'");
  }
}

bool Args::get(const std::string& name, bool def) const {
  queried_[name] = true;
  const auto it = named_.find(name);
  if (it == named_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes" || v == "on")
    return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name + ": expected a boolean, got '" +
                              v + "'");
}

template <typename T>
T Args::get_in(const std::string& name, T def, T lo, T hi) const {
  const T v = get(name, def);
  if (!(v >= lo && v <= hi)) {
    std::ostringstream os;
    os << "--" << name << " must be in [" << lo << ", " << hi << "], got "
       << v;
    throw std::invalid_argument(os.str());
  }
  return v;
}

template int Args::get_in(const std::string&, int, int, int) const;
template double Args::get_in(const std::string&, double, double,
                             double) const;

std::vector<std::string> Args::unqueried() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : named_)
    if (queried_.find(name) == queried_.end()) out.push_back(name);
  return out;
}

}  // namespace w4k
