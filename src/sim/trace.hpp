#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace dvc::sim {

/// Severity of a trace event.
enum class TraceLevel : std::uint8_t {
  kDebug,
  kInfo,
  kWarn,
  kError,
};

[[nodiscard]] constexpr std::string_view to_string(TraceLevel l) noexcept {
  switch (l) {
    case TraceLevel::kDebug:
      return "DEBUG";
    case TraceLevel::kInfo:
      return "INFO";
    case TraceLevel::kWarn:
      return "WARN";
    case TraceLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// One structured trace event.
struct TraceEvent {
  Time at = 0;
  TraceLevel level = TraceLevel::kInfo;
  std::string component;  ///< e.g. "hypervisor/3", "dvc", "fabric"
  std::string message;
};

/// In-simulation structured event log: a bounded ring of events plus
/// optional live echo to stdout and subscriber callbacks. Components
/// receive a TraceLog pointer (possibly null — tracing is strictly
/// optional) and emit via `TRACE`-style helpers.
///
/// Intended uses: example narration, postmortem debugging of failed
/// trials, and assertions over operational sequences in tests.
class TraceLog final {
 public:
  explicit TraceLog(std::size_t capacity = 16384, bool echo = false)
      : capacity_(capacity), echo_(echo) {}
  TraceLog(const TraceLog&) = delete;  // subscribers hold `this`

  void set_echo(bool echo) noexcept { echo_ = echo; }
  void set_min_level(TraceLevel level) noexcept { min_level_ = level; }

  void emit(Time at, TraceLevel level, std::string component,
            std::string message) {
    if (level < min_level_) return;
    ++total_;
    TraceEvent e{at, level, std::move(component), std::move(message)};
    if (echo_) {
      std::printf("[%10.3fs] %-5s %-16s %s\n", to_seconds(e.at),
                  to_string(e.level).data(), e.component.c_str(),
                  e.message.c_str());
    }
    const TraceEvent* const outer = std::exchange(current_, &e);
    for (Callback& fn : subscribers_) fn();
    current_ = outer;
    ring_.push_back(std::move(e));
    if (ring_.size() > capacity_) ring_.pop_front();
  }

  /// Registers a live subscriber, called with each event (e.g. a test
  /// asserting on sequences).
  template <class F>
  void subscribe(F fn) {
    subscribers_.emplace_back(
        [this, fn = std::move(fn)]() mutable { fn(*current_); });
  }

  [[nodiscard]] const std::deque<TraceEvent>& events() const noexcept {
    return ring_;
  }
  [[nodiscard]] std::uint64_t total_emitted() const noexcept {
    return total_;
  }

  /// Events whose component starts with `prefix`, newest last.
  [[nodiscard]] std::vector<const TraceEvent*> with_component(
      std::string_view prefix) const {
    std::vector<const TraceEvent*> out;
    for (const TraceEvent& e : ring_) {
      if (e.component.starts_with(prefix)) out.push_back(&e);
    }
    return out;
  }

  /// True if any retained event's message contains `needle`.
  [[nodiscard]] bool contains(std::string_view needle) const {
    for (const TraceEvent& e : ring_) {
      if (e.message.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  /// Count of retained events at or above a level.
  [[nodiscard]] std::size_t count_at_least(TraceLevel level) const {
    std::size_t n = 0;
    for (const TraceEvent& e : ring_) {
      if (e.level >= level) ++n;
    }
    return n;
  }

 private:
  std::size_t capacity_;
  bool echo_;
  TraceLevel min_level_ = TraceLevel::kDebug;
  std::deque<TraceEvent> ring_;
  std::vector<Callback> subscribers_;
  const TraceEvent* current_ = nullptr;  ///< the event being emitted
  std::uint64_t total_ = 0;
};

/// Null-safe emit helper: components hold `TraceLog*` that may be null.
inline void trace(TraceLog* log, Time at, TraceLevel level,
                  std::string component, std::string message) {
  if (log != nullptr) {
    log->emit(at, level, std::move(component), std::move(message));
  }
}

}  // namespace dvc::sim
