// Minimal command-line argument parsing for the example/CLI binaries.
//
// Supports "--name value" and "--name=value" pairs plus boolean flags
// ("--flag"). Typed getters validate and fall back to defaults; unknown
// arguments are collected so tools can reject typos instead of silently
// ignoring them.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace w4k {

class Args {
 public:
  /// Parses argv. Positional arguments (no leading --) are kept in order.
  Args(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// Raw string value of --name, if present with a value.
  std::optional<std::string> value(const std::string& name) const;

  /// Typed getters with defaults. Throw std::invalid_argument when the
  /// value is present but unparseable (a typo should fail loudly).
  std::string get(const std::string& name, const std::string& def) const;
  double get(const std::string& name, double def) const;
  int get(const std::string& name, int def) const;
  bool get(const std::string& name, bool def) const;

  /// Range-checked getter for int or double flags: get(name, def), then
  /// throws std::invalid_argument ("--port must be in [0, 65535], got
  /// 70000") unless the value lies in [lo, hi]; NaN lies in no range.
  /// Callers narrowing the value can then cast without wrapping.
  template <typename T>
  T get_in(const std::string& name, T def, T lo, T hi) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names seen on the command line that the program never queried;
  /// call after all get()/has() calls to report typos.
  std::vector<std::string> unqueried() const;

 private:
  std::map<std::string, std::string> named_;  // "" when flag-only
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace w4k
