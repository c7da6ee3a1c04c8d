#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
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

Histogram::Histogram(Options opt)
    : opt_(opt),
      log_growth_(std::log(opt.growth)),
      counts_(static_cast<std::size_t>(opt.buckets) + 1, 0),
      summary_(/*keep_samples=*/false) {}

double Histogram::bucket_bound(std::size_t i) const {
  return opt_.first_bound *
         std::pow(opt_.growth, static_cast<double>(i));
}

void Histogram::observe(double v) {
  summary_.add(v);
  std::size_t idx;
  if (v <= opt_.first_bound) {
    idx = 0;
  } else {
    // Smallest i with first_bound * growth^i >= v.
    const double steps =
        std::log(v / opt_.first_bound) / log_growth_;
    idx = static_cast<std::size_t>(std::ceil(steps - 1e-9));
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // overflow bucket
  }
  ++counts_[idx];
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

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      Histogram::Options opt) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(opt))
      .first->second;
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
          << (i + 1 == counts.size() ? "\"inf\""
                                     : fmt_double(h.bucket_bound(i)))
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
