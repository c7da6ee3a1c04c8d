#pragma once

// The two kinds of dvcbench run. The untraced run times cells on a closed
// worker pool and reports the end-to-end metrics; the traced run drives a
// fixed sample of cells through host spans and reports the per-layer
// metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace dvcbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, in the order the untraced run prints them.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_defs();
/// Per-layer metrics, in the order the traced run prints them.
[[nodiscard]] const std::vector<MetricDef>& per_layer_defs();

struct RunOptions {
  double seconds = 10.0;   ///< length of the timed phase
  unsigned threads = 4;    ///< worker pool size
  double setup_s = 0.0;    ///< set-up time in reference seconds (calib.hpp)
  std::string trace_out;   ///< traced run: Chrome-trace file ("" = none)
};

struct RunReport {
  RunResult result;
  std::vector<std::string> summary;  ///< human-readable lines
};

/// Closed-loop pool over the workload's cells for `seconds` (always at
/// least one full pass), then a replay of a fixed sample of cells.
[[nodiscard]] RunReport run_untraced(const Workload& w,
                                     const RunOptions& opt);

/// Per-layer run: a short pool phase for the pool's own metrics, then the
/// traced cells run untraced, traced and with the checker off.
[[nodiscard]] RunReport run_traced(const Workload& w, const RunOptions& opt);

/// Fills `metrics` in the order of `defs` from `values`; throws
/// std::logic_error if a defined metric has no value or a value has no
/// definition.
void emit_metrics(const std::vector<MetricDef>& defs,
                  const std::vector<std::pair<std::string, double>>& values,
                  std::vector<Metric>& metrics);

}  // namespace dvcbench
