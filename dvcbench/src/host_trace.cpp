#include "host_trace.hpp"

#include <ostream>

namespace dvcbench {

HostTrace::HostTrace() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t HostTrace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

HostTrace::Scope::Scope(HostTrace& trace, std::string name)
    : trace_(&trace), index_(trace.spans_.size()) {
  Span s;
  s.name = std::move(name);
  s.parent = trace.open_.empty()
                 ? kNoParent
                 : static_cast<std::int64_t>(trace.open_.back());
  s.cell = trace.cell_;
  s.start_ns = trace.now_ns();
  trace.spans_.push_back(std::move(s));
  trace.open_.push_back(index_);
}

HostTrace::Scope::~Scope() {
  trace_->spans_[index_].end_ns = trace_->now_ns();
  trace_->open_.pop_back();
}

double HostTrace::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t HostTrace::count(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ++n;
  }
  return n;
}

void HostTrace::write_chrome_trace(std::ostream& out,
                                   const std::vector<Metric>& counters) const {
  // Timestamps are microseconds; three decimals keep the nanoseconds.
  const auto us = [](std::int64_t ns) {
    return format_number(static_cast<double>(ns) / 1000.0);
  };
  out << "[\n{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"dvcbench traced run (host time)\"}}";
  std::int64_t end = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.cell
        << ", \"ts\": " << us(s.start_ns)
        << ", \"dur\": " << us(s.end_ns - s.start_ns) << ", \"name\": \""
        << s.name << "\", \"args\": {\"span\": " << i
        << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell << "}}";
    if (s.end_ns > end) end = s.end_ns;
  }
  for (const Metric& m : counters) {
    out << ",\n{\"ph\": \"C\", \"pid\": 1, \"ts\": " << us(end)
        << ", \"name\": \"" << m.name << "\", \"args\": {\"" << m.unit
        << "\": " << format_number(m.value) << "}}";
  }
  out << "\n]\n";
}

}  // namespace dvcbench
