#pragma once

#include <cstdint>

/// Simulated-time primitives.
///
/// All simulation time is kept in signed 64-bit nanosecond ticks. Signed
/// arithmetic lets clock-offset math (which can go negative) reuse the same
/// type, and 64-bit nanoseconds cover ~292 years of simulated time.
namespace dvc::sim {

/// A point in simulated time, in nanoseconds since simulation start.
using Time = std::int64_t;

/// A span of simulated time, in nanoseconds.
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;

/// Converts a duration in (possibly fractional) seconds to ticks.
[[nodiscard]] constexpr Duration from_seconds(double s) noexcept {
  return static_cast<Duration>(s * static_cast<double>(kSecond));
}

/// The least whole number of ticks that is at least `ns`, for
/// 0 <= ns < 2^63: the integer std::ceil gives, without a libm call.
/// Truncation drops only the fraction, and t converts back exactly (it is
/// below 2^52, or ns was an integer already), so the compare sees whether
/// there was one.
[[nodiscard]] constexpr Duration ceil_ticks(double ns) noexcept {
  auto t = static_cast<Duration>(ns);
  if (static_cast<double>(t) < ns) ++t;
  return t;
}

/// Converts ticks to fractional seconds (for reporting only; never use the
/// result for scheduling, to avoid accumulating rounding error).
[[nodiscard]] constexpr double to_seconds(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Converts ticks to fractional milliseconds (reporting only).
[[nodiscard]] constexpr double to_milliseconds(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

}  // namespace dvc::sim
