#pragma once

// Statistics and result formatting shared by every dvcbench workload: the
// tail-checked percentile, the metric-name grammar, the result line the
// benchmark prints last, the modelled-output digest and the replay check.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dvcbench {

/// A percentile is only reported when at least this many samples lie
/// beyond it (so p90 needs >= 100 samples, the median >= 20).
inline constexpr std::size_t kMinTail = 10;

/// Samples that lie beyond the p-th percentile of `n` samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Linear-interpolated p-th percentile (0..100) of `values`. Throws
/// std::domain_error when fewer than kMinTail samples lie beyond it.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Plain median of a non-empty sample (no tail requirement): for repeated
/// measurements of one quantity, such as set-up time.
[[nodiscard]] double median(std::vector<double> values);

/// Metric names: a letter or digit, then letters, digits, `_`, `.`, `-`;
/// at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
[[nodiscard]] bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The one JSON object a run prints as its last line.
struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
  /// Throws std::invalid_argument on a bad or repeated metric name, a bad
  /// unit, a non-finite value, or attempted == 0.
  [[nodiscard]] std::string to_json() const;
};

/// Shortest decimal text that reads back as exactly `v`.
[[nodiscard]] std::string format_number(double v);

/// 64-bit FNV-1a, chainable through `h`.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = kFnvOffset);

/// Replay check: `first[i]` is cell i's outcome bytes from its first run;
/// each rerun is (cell index, outcome bytes). Returns how many reruns
/// differ from their first run.
[[nodiscard]] std::size_t replay_mismatches(
    const std::vector<std::string>& first,
    const std::vector<std::pair<std::size_t, std::string>>& reruns);

}  // namespace dvcbench
