#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace dvc::telemetry {

/// Monotonically increasing event count (saves completed, retransmissions,
/// cache hits). Counters only ever go up.
class Counter final {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written level of some quantity (queue depth, active transfers).
/// Tracks the high-water mark alongside the current value.
class Gauge final {
 public:
  void set(double v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(double d) noexcept { set(value_ + d); }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
};

/// Distribution of observed values: fixed log-scale buckets (geometric
/// bucket bounds, so one layout covers microseconds through hours) plus a
/// Welford summary (sim::SummaryStats) for exact moments. Memory is O(1)
/// per instrument regardless of observation count.
class Histogram final {
 public:
  static constexpr double kFirstBound = 1e-6;  ///< bound of bucket 0
  static constexpr double kGrowth = 2.0;       ///< geometric bound ratio
  static constexpr std::size_t kBuckets = 64;  ///< finite; +1 overflow

  /// Counts `v` in the first bucket whose bound is at least `v`, give or
  /// take a relative 1e-9 ln(kGrowth) above each bound (see
  /// telemetry.cpp). Values past the last bound, and NaN, go to the
  /// overflow bucket.
  void observe(double v);

  [[nodiscard]] const sim::SummaryStats& summary() const noexcept {
    return summary_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return summary_.count();
  }
  /// Approximate quantile in [0, 100] reconstructed from the bucket counts
  /// (exact min/max from the summary clamp the tails).
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::array<std::uint64_t, kBuckets + 1>&
  bucket_counts() const noexcept {
    return counts_;
  }
  /// Upper bound of bucket `i`: kFirstBound * kGrowth^i, and infinity for
  /// the overflow bucket.
  [[nodiscard]] static double bucket_bound(std::size_t i) noexcept;

 private:
  std::array<std::uint64_t, kBuckets + 1> counts_{};  ///< last: overflow
  sim::SummaryStats summary_;
};

/// One completed (or still-open) span on a named track of the timeline.
struct Span {
  std::string track;  ///< e.g. "vm/node3", "lsc", "dvc"
  std::string name;   ///< e.g. "save", "round", "recover"
  sim::Time begin = 0;
  sim::Time end = 0;
  bool open = true;
};

/// A point event on a track (scheduler decision, timeout hit, retry).
struct Instant {
  std::string track;
  std::string name;
  sim::Time at = 0;
};

/// Owner of every named instrument plus the sim-time span timeline.
///
/// Instrument names follow `subsystem.object.metric`
/// (e.g. `vm.hypervisor.saves`, `net.endpoint.retransmissions`,
/// `storage.write_pool.wait_s`). Instruments are created on first use and
/// live for the registry's lifetime. counter()/gauge()/histogram() look an
/// instrument up by its full name in a name-ordered map; code that records
/// per event (per save, store write, LSC round or message) holds a Handle
/// instead, so the lookup runs once per registry and never per event.
///
/// Components hold a `MetricsRegistry*` that may be null — telemetry is
/// strictly optional, exactly like sim::TraceLog. The free helpers below
/// (count / observe / gauge_set / begin_span / ...) are null-safe so
/// instrumented code needs no branches.
///
/// Determinism: instruments are stored name-ordered and spans in creation
/// order, and every value derives from simulated time or simulated events,
/// so two same-seed runs export byte-identical JSON.
class MetricsRegistry final {
 public:
  using SpanId = std::uint64_t;
  static constexpr SpanId kInvalidSpan = 0;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique, never reused: lets a Handle tell this registry from
  /// a destroyed one that lived at the same address.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Read-only lookups: null if the instrument was never touched.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Convenience for tests/benches: counter value or 0 if absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  // ---- timeline ---------------------------------------------------------

  /// Whether begin_span and instant record anything (on by default). A
  /// registry whose timeline nobody reads turns it off: spans then cost a
  /// branch, begin_span returns kInvalidSpan and the export reads
  /// `"spans": 0, "instants": 0`. Instruments are unaffected.
  void record_timeline(bool on) noexcept { timeline_ = on; }

  /// Opens a span on `track` at sim-time `at`. Tracks are created on first
  /// use and become the rows of the exported Chrome trace.
  SpanId begin_span(sim::Time at, std::string_view track,
                    std::string_view name);
  /// Closes a span. Closing kInvalidSpan or an unknown id is a no-op.
  void end_span(SpanId id, sim::Time at);
  /// Records a zero-duration point event.
  void instant(sim::Time at, std::string_view track, std::string_view name);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<Instant>& instants() const noexcept {
    return instants_;
  }

  // ---- export -----------------------------------------------------------

  /// Deterministic JSON dump of every instrument (counters, gauges,
  /// histograms with summary + non-empty buckets), name-ordered.
  void write_metrics_json(std::ostream& out) const;

  /// Chrome trace_event JSON (the "JSON array format"): complete "X"
  /// events for spans, "i" instants, and "M" thread-name metadata mapping
  /// each track to a tid. Loadable in chrome://tracing and Perfetto.
  /// Timestamps are sim-time microseconds.
  void write_chrome_trace(std::ostream& out) const;

 private:
  static std::uint64_t next_id() noexcept;

  std::uint64_t id_ = next_id();
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  SpanId next_span_ = 1;
  bool timeline_ = true;
};

/// One named instrument, resolved on first use. Per-event code keeps a
/// Handle as a member and records through the count()/observe() overloads
/// below: the first use in a registry looks the name up (creating the
/// instrument, exactly as the name-keyed helpers do) and caches the
/// pointer, so later uses cost one compare. Resolution is lazy on purpose:
/// an instrument nothing records into is never created, so the exported
/// instrument set is the same as with name-keyed recording.
template <class Instrument>
class Handle final {
  static_assert(std::is_same_v<Instrument, Counter> ||
                std::is_same_v<Instrument, Histogram>);

 public:
  explicit Handle(std::string name) : name_(std::move(name)) {}

  /// The instrument in `m`, created there on first use; null if `m` is.
  [[nodiscard]] Instrument* in(MetricsRegistry* m) {
    if (m == nullptr) return nullptr;
    if (m->id() != registry_) {
      registry_ = m->id();
      if constexpr (std::is_same_v<Instrument, Counter>) {
        instrument_ = &m->counter(name_);
      } else {
        instrument_ = &m->histogram(name_);
      }
    }
    return instrument_;
  }

 private:
  std::string name_;
  std::uint64_t registry_ = 0;  ///< id() of the registry cached below
  Instrument* instrument_ = nullptr;
};

using CounterHandle = Handle<Counter>;
using HistogramHandle = Handle<Histogram>;

// ---- null-safe helpers (mirror sim::trace) --------------------------------

inline void count(MetricsRegistry* m, std::string_view name,
                  std::uint64_t n = 1) {
  if (m != nullptr) m->counter(name).add(n);
}

inline void count(MetricsRegistry* m, CounterHandle& h,
                  std::uint64_t n = 1) {
  if (Counter* c = h.in(m)) c->add(n);
}

inline void observe(MetricsRegistry* m, std::string_view name, double v) {
  if (m != nullptr) m->histogram(name).observe(v);
}

inline void observe(MetricsRegistry* m, HistogramHandle& h, double v) {
  if (Histogram* hist = h.in(m)) hist->observe(v);
}

inline void gauge_set(MetricsRegistry* m, std::string_view name, double v) {
  if (m != nullptr) m->gauge(name).set(v);
}

inline MetricsRegistry::SpanId begin_span(MetricsRegistry* m, sim::Time at,
                                          std::string_view track,
                                          std::string_view name) {
  return m == nullptr ? MetricsRegistry::kInvalidSpan
                      : m->begin_span(at, track, name);
}

inline void end_span(MetricsRegistry* m, MetricsRegistry::SpanId id,
                     sim::Time at) {
  if (m != nullptr) m->end_span(id, at);
}

inline void instant(MetricsRegistry* m, sim::Time at, std::string_view track,
                    std::string_view name) {
  if (m != nullptr) m->instant(at, track, name);
}

}  // namespace dvc::telemetry
