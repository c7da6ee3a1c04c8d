#pragma once

// Host-clock spans recorded from the benchmark's own files around each call
// into a simulator layer. Spans stay in memory and are written once, at the
// end of the traced run, as a Chrome trace (the JSON array format the
// simulator's own MetricsRegistry::write_chrome_trace emits).
//
// Single-threaded: the traced run drives its cells one after another.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace dvcbench {

class HostTrace final {
 public:
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;    ///< "<layer>.<call>", e.g. "sim.run_until"
    std::int64_t start_ns = 0;  ///< host ns since the trace was created
    std::int64_t end_ns = 0;
    std::int64_t parent = kNoParent;  ///< index into spans(), or kNoParent
    std::uint64_t cell = 0;           ///< cell the span belongs to
  };

  /// Closes its span when it goes out of scope.
  class Scope final {
   public:
    Scope(HostTrace& trace, std::string name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    HostTrace* trace_;
    std::size_t index_;
  };

  HostTrace();

  /// Spans opened from now on belong to `cell`.
  void set_cell(std::uint64_t cell) noexcept { cell_ = cell; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Summed duration of every span called `name`, in host seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Number of spans called `name`.
  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// Chrome trace: one complete ("X") event per span on the thread row of
  /// its cell, with the parent span index and cell id as args, then one
  /// counter ("C") event per entry of `counters` at the trace's end.
  void write_chrome_trace(std::ostream& out,
                          const std::vector<Metric>& counters) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
  std::uint64_t cell_ = 0;
};

}  // namespace dvcbench
