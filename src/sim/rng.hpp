#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>

#include "sim/time.hpp"

namespace dvc::sim {

/// Deterministic pseudo-random number generator (SplitMix64).
///
/// Every stochastic component owns its own `Rng`, seeded from the experiment
/// seed plus a component-specific salt, so adding or removing one component
/// never perturbs the random stream seen by another. The simulator never
/// touches global RNG state or the wall clock.
class Rng final {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed ^ kGolden) {}

  /// Derives an independent child generator; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) noexcept {
    return Rng(next_u64() ^ (salt * kGolden));
  }

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += kGolden);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    // Modulo bias is negligible for the ranges used here (n << 2^64).
    return next_u64() % n;
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed value with the given mean.
  [[nodiscard]] double exponential(double mean) noexcept {
    return -mean * std::log1p(-uniform());
  }

  /// Normally distributed value (Box-Muller).
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    const double u1 = 1.0 - uniform();  // avoid log(0)
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Exponentially distributed simulated duration with the given mean.
  [[nodiscard]] Duration exponential_duration(Duration mean) noexcept {
    return exponential_duration_at(uniform(), mean);
  }

  /// The duration exponential_duration draws from the uniform `u` in
  /// [0, 1): static_cast<Duration>(-mean * std::log1p(-u)), which is the
  /// draw's contract. It takes the cheaper log(1 - u) unless an integer
  /// lies within that value's slack (exponential_by_log).
  [[nodiscard]] static Duration exponential_duration_at(
      double u, Duration mean) noexcept {
    const double m = static_cast<double>(mean);
    if (const std::optional<Duration> d = exponential_by_log(u, m)) return *d;
    return static_cast<Duration>(-m * std::log1p(-u));
  }

  /// -m * log(1 - u), truncated, when that is the truncation of
  /// -m * log1p(-u) too; nothing when an integer lies within the slack.
  ///
  /// Why they agree. u is k * 2^-53 for an integer k < 2^53, so 1 - u is
  /// exactly representable and log(1 - u) and log1p(-u) are logarithms of
  /// the same number. glibc's manual ("Known Maximum Errors in Math
  /// Functions") bounds each to 1 or 2 ulps of the exact value on x86-64;
  /// allow 4 ulps, i.e. a relative 2^-50. The product with -m adds
  /// half an ulp, so each computed value lies within 2^-49 of the exact
  /// y = -m ln(1 - u), relative, and the two within 2^-48 of each other.
  /// The slack, fast * 2^-40, is 256 times that, and forming fast - slack
  /// and fast + slack rounds by 2^-53 at most, so the computed
  /// -m * log1p(-u) lies between them. Truncation is monotone: when both
  /// ends truncate to one integer, so does log1p's value. Elsewhere the
  /// caller falls back to log1p. The window is 2^-39 * fast wide: about
  /// one draw in 3 * 10^7 at a mean of 20 us, but nearly every value above
  /// 2^39 ns (9 minutes), such as a failure time drawn from an MTBF of
  /// hours. u = 0 gives -0.0 on both paths, which truncates to 0.
  [[nodiscard]] static std::optional<Duration> exponential_by_log(
      double u, double m) noexcept {
    const double fast = -m * std::log(1.0 - u);
    const double slack = fast * 0x1.0p-40;
    const auto lo = static_cast<Duration>(fast - slack);
    if (lo != static_cast<Duration>(fast + slack)) return std::nullopt;
    return lo;
  }

  /// Normally distributed simulated duration, clamped to be non-negative.
  [[nodiscard]] Duration normal_duration(Duration mean,
                                         Duration stddev) noexcept {
    const double v =
        normal(static_cast<double>(mean), static_cast<double>(stddev));
    return v <= 0.0 ? Duration{0} : static_cast<Duration>(v);
  }

 private:
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
};

}  // namespace dvc::sim
