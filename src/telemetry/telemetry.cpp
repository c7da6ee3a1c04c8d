#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numbers>
#include <ostream>

namespace dvc::telemetry {

namespace {

/// Deterministic shortest-ish double rendering ("%.12g" is locale-free
/// for the C locale and stable for identical bit patterns).
std::string fmt_double(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e9999" : "-1e9999";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Sim-time nanoseconds to chrome-trace microseconds.
std::string fmt_us(sim::Time t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t) / 1000.0);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

namespace {

// Bucket placement. The rule every bucket count (and so every percentile
// and golden) rests on is `by_formula`: bucket ceil(steps - 1e-9), where
// steps = ln(v / kFirstBound) / ln(kGrowth). observe() reaches the same
// bucket without std::log for all but a sliver of values.
//
// The window. Write v = bound(k) * t with t near 1. Then steps = k +
// ln(t) / ln(g), so the 1e-9 slack moves the edge between buckets k and
// k + 1 from t = 1 up to t = g^1e-9 = 1 + 1e-9 ln(g) (to 1e-18). Rounding
// moves it further by the error of the computed steps: a few ulps of a
// value of at most kBuckets = 64, under 3e-14 in all, which is 3e-14 ln(g)
// in t. So outside t in (1, 1 + 2e-9 ln(g)], twice the slack, the formula
// places v in the first bucket whose bound is at least v, and that is
// found from the table alone. Inside it, observe() asks the formula.
constexpr double kNear = 1.0 + 2e-9 * std::numbers::ln2;

// The bucket guess reads v's binary exponent, which needs growth 2: then
// bound(k) = m0 * 2^(e0 + k) for the mantissa m0 and exponent e0 of
// kFirstBound.
static_assert(Histogram::kGrowth == 2.0);

/// Bucket bounds, kFirstBound * 2^i (each doubling is exact).
constexpr std::array<double, Histogram::kBuckets> kBounds = [] {
  std::array<double, Histogram::kBuckets> b{};
  double bound = Histogram::kFirstBound;
  for (double& x : b) {
    x = bound;
    bound *= Histogram::kGrowth;
  }
  return b;
}();
/// Past this, every value (and NaN) is the overflow bucket's.
constexpr double kTop = kBounds.back() * kNear;

/// Unbiased binary exponent of a positive normal double.
constexpr int exponent_of(double v) {
  return static_cast<int>(std::bit_cast<std::uint64_t>(v) >> 52) - 1023;
}

std::size_t by_formula(double v) {
  const double steps = std::log(v / Histogram::kFirstBound) /
                       std::log(Histogram::kGrowth);
  return std::min(static_cast<std::size_t>(std::ceil(steps - 1e-9)),
                  Histogram::kBuckets);
}

std::size_t bucket_of(double v) {
  if (v <= Histogram::kFirstBound) return 0;
  if (!(v <= kTop)) return Histogram::kBuckets;
  // v = m * 2^e with m in [1, 2) lies in (bound(k0 - 1), bound(k0 + 1)),
  // where k0 = e - e0; one compare picks the side of bound(k0).
  const auto k0 = static_cast<std::size_t>(
      exponent_of(v) - exponent_of(Histogram::kFirstBound));
  const std::size_t k = v > kBounds[k0] ? k0 + 1 : k0;
  return v > kBounds[k - 1] * kNear ? k : by_formula(v);
}

}  // namespace

double Histogram::bucket_bound(std::size_t i) noexcept {
  return i < kBuckets ? kBounds[i] : std::numeric_limits<double>::infinity();
}

void Histogram::observe(double v) {
  summary_.add(v);
  ++counts_[bucket_of(v)];
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = summary_.count();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank && counts_[i] > 0) {
      // Clamp the reconstructed bound by the exact extremes.
      const double hi = i + 1 == counts_.size()
                            ? summary_.max()
                            : std::min(bucket_bound(i), summary_.max());
      return std::max(summary_.min(), std::min(hi, summary_.max()));
    }
  }
  return summary_.max();
}

// ---------------------------------------------------------------------------
// MetricsRegistry — instruments

std::uint64_t MetricsRegistry::next_id() noexcept {
  // Registries are built on dvcsweep's worker threads; 0 is Handle's
  // "nothing cached" value.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

// ---------------------------------------------------------------------------
// MetricsRegistry — timeline

MetricsRegistry::SpanId MetricsRegistry::begin_span(sim::Time at,
                                                    std::string_view track,
                                                    std::string_view name) {
  if (!timeline_) return kInvalidSpan;
  Span s;
  s.track = std::string(track);
  s.name = std::string(name);
  s.begin = at;
  spans_.push_back(std::move(s));
  return next_span_++;  // ids are 1-based indices into spans_
}

void MetricsRegistry::end_span(SpanId id, sim::Time at) {
  if (id == kInvalidSpan || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (!s.open) return;
  s.open = false;
  s.end = at < s.begin ? s.begin : at;
}

void MetricsRegistry::instant(sim::Time at, std::string_view track,
                              std::string_view name) {
  if (!timeline_) return;
  instants_.push_back(Instant{std::string(track), std::string(name), at});
}

// ---------------------------------------------------------------------------
// Export

void MetricsRegistry::write_metrics_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << c.value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"value\": " << fmt_double(g.value())
        << ", \"max\": " << fmt_double(g.max()) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const sim::SummaryStats& s = h.summary();
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << s.count()
        << ", \"sum\": " << fmt_double(s.sum())
        << ", \"mean\": " << fmt_double(s.mean())
        << ", \"stddev\": " << fmt_double(s.stddev())
        << ", \"min\": " << fmt_double(s.min())
        << ", \"max\": " << fmt_double(s.max())
        << ", \"p50\": " << fmt_double(h.percentile(50))
        << ", \"p99\": " << fmt_double(h.percentile(99))
        << ", \"buckets\": [";
    bool bfirst = true;
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      out << (bfirst ? "" : ", ") << "{\"le\": "
          << (i + 1 == counts.size()
                  ? "\"inf\""
                  : fmt_double(Histogram::bucket_bound(i)))
          << ", \"count\": " << counts[i] << "}";
      bfirst = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"spans\": " << spans_.size()
      << ",\n  \"instants\": " << instants_.size() << "\n}\n";
}

void MetricsRegistry::write_chrome_trace(std::ostream& out) const {
  // Track name -> tid, in first-appearance order (deterministic).
  std::map<std::string, std::uint32_t> tids;
  std::vector<const std::string*> track_order;
  const auto tid_of = [&](const std::string& track) {
    const auto it = tids.find(track);
    if (it != tids.end()) return it->second;
    const auto tid = static_cast<std::uint32_t>(tids.size() + 1);
    const auto ins = tids.emplace(track, tid).first;
    track_order.push_back(&ins->first);
    return tid;
  };
  for (const Span& s : spans_) tid_of(s.track);
  for (const Instant& i : instants_) tid_of(i.track);

  out << "[\n";
  out << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"dvcsim\"}}";
  for (const std::string* track : track_order) {
    out << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tids.at(*track)
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << json_escape(*track) << "\"}}";
  }
  for (const Span& s : spans_) {
    out << ",\n{\"ph\": \"" << (s.open ? 'B' : 'X')
        << "\", \"pid\": 1, \"tid\": " << tids.at(s.track) << ", \"ts\": "
        << fmt_us(s.begin);
    if (!s.open) out << ", \"dur\": " << fmt_us(s.end - s.begin);
    out << ", \"name\": \"" << json_escape(s.name) << "\"";
    out << "}";
  }
  for (const Instant& i : instants_) {
    out << ",\n{\"ph\": \"i\", \"pid\": 1, \"tid\": " << tids.at(i.track)
        << ", \"ts\": " << fmt_us(i.at) << ", \"s\": \"t\", \"name\": \""
        << json_escape(i.name) << "\"}";
  }
  out << "\n]\n";
}

}  // namespace dvc::telemetry
