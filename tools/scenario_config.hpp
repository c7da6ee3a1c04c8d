#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dvc::tools {

/// Parser for dvcsim scenario files: one `key = value` per line, `#`
/// comments, blank lines ignored. Values are strings; typed getters
/// convert on demand and throw with the offending key on bad input.
class ScenarioConfig final {
 public:
  /// Parses scenario text (the CLI reads the file and hands it in).
  static ScenarioConfig parse(const std::string& text) {
    ScenarioConfig cfg;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const std::string trimmed = trim(line);
      if (trimmed.empty()) continue;
      const auto eq = trimmed.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("scenario line " +
                                    std::to_string(line_no) +
                                    ": expected key = value");
      }
      const std::string key = trim(trimmed.substr(0, eq));
      const std::string value = trim(trimmed.substr(eq + 1));
      if (key.empty()) {
        throw std::invalid_argument("scenario line " +
                                    std::to_string(line_no) + ": empty key");
      }
      cfg.values_[key] = value;
    }
    return cfg;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      std::size_t pos = 0;
      const std::int64_t v = std::stoll(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument("trailing");
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("scenario key '" + key +
                                  "': not an integer: " + it->second);
    }
  }

  /// get_int() for keys stored in a 32-bit field: values outside
  /// [0, max] throw naming the key instead of silently narrowing.
  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback,
                                      std::uint32_t max = UINT32_MAX) const {
    const std::int64_t v = get_int(key, fallback);
    if (v < 0 || v > std::int64_t{max}) {
      throw std::invalid_argument("scenario key '" + key +
                                  "': out of range [0, " +
                                  std::to_string(max) +
                                  "]: " + values_.at(key));
    }
    return static_cast<std::uint32_t>(v);
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      std::size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos != it->second.size()) throw std::invalid_argument("trailing");
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("scenario key '" + key +
                                  "': not a number: " + it->second);
    }
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
    if (v == "false" || v == "no" || v == "off" || v == "0") return false;
    throw std::invalid_argument("scenario key '" + key +
                                "': not a boolean: " + v);
  }

  /// Rejects keys outside the caller's vocabulary (the shared list in
  /// scenario_keys.hpp), so a typo in a scenario file fails loudly instead
  /// of silently falling back to a default. Throws listing the first
  /// offending key.
  void validate_keys(const std::vector<const char*>& known) const {
    const std::set<std::string, std::less<>> allowed(known.begin(),
                                                     known.end());
    for (const auto& [key, value] : values_) {
      if (!allowed.contains(key)) {
        throw std::invalid_argument("scenario key '" + key +
                                    "' is not recognised");
      }
    }
  }

  /// Sets (or overrides) one key — how a sweep mix's overrides and the
  /// per-cell seed are layered onto a base scenario.
  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }

  [[nodiscard]] const std::map<std::string, std::string>& entries()
      const noexcept {
    return values_;
  }

 private:
  [[nodiscard]] static std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
  }

  std::map<std::string, std::string> values_;
};

}  // namespace dvc::tools
