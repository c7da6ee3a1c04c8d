#include "stats.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace dvcbench {

std::size_t samples_beyond(std::size_t n, double p) {
  if (p < 0.0 || p > 100.0) {
    throw std::domain_error("percentile out of range: " +
                            std::to_string(p));
  }
  // Small epsilon so that e.g. 100 samples at p90 count exactly 10.
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

double percentile(std::vector<double> values, double p) {
  const std::size_t beyond = samples_beyond(values.size(), p);
  if (beyond < kMinTail) {
    throw std::domain_error(
        "p" + format_number(p) + " of " + std::to_string(values.size()) +
        " samples leaves " + std::to_string(beyond) +
        " beyond it; need " + std::to_string(kMinTail));
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::domain_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

namespace {

[[nodiscard]] bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string format_number(double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("non-finite metric value");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string RunResult::to_json() const {
  if (attempted == 0) {
    throw std::invalid_argument("a run must attempt at least one cell");
  }
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  std::set<std::string, std::less<>> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("bad metric name '" + m.name + "'");
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("bad unit '" + m.unit + "' on " + m.name);
    }
    if (!seen.insert(m.name).second) {
      throw std::invalid_argument("metric '" + m.name + "' repeated");
    }
    if (i > 0) j += ", ";
    j += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  j += "}}";
  return j;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t replay_mismatches(
    const std::vector<std::string>& first,
    const std::vector<std::pair<std::size_t, std::string>>& reruns) {
  std::size_t bad = 0;
  for (const auto& [cell, bytes] : reruns) {
    if (cell >= first.size() || first[cell] != bytes) ++bad;
  }
  return bad;
}

}  // namespace dvcbench
