#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clocksync/host_clock.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace dvc::clocksync {

/// Parameters of the simulated NTP exchange path between a client host and
/// the (stratum-0, true-time) reference server.
struct NtpPathModel {
  /// Mean one-way network delay to/from the server.
  sim::Duration one_way_mean = 200 * sim::kMicrosecond;
  /// Exponential jitter added independently to each direction. Asymmetry
  /// between the two directions is what limits achievable sync accuracy.
  sim::Duration one_way_jitter = 300 * sim::kMicrosecond;
};

/// One completed NTP sample (all values in true-time ticks for bookkeeping;
/// the protocol itself only ever saw local timestamps).
struct NtpSample {
  sim::Duration measured_offset = 0;  ///< Offset the algorithm computed.
  sim::Duration round_trip = 0;       ///< Observed RTT (delay filter key).
};

/// NTP-style synchroniser for one host clock (RFC 5905's on-wire protocol
/// and clock filter, reduced to the parts that matter for LSC):
///
///   * four-timestamp exchange  ->  offset = ((t1-t0) + (t2-t3)) / 2
///   * burst of 8 exchanges, keep the minimum-RTT sample
///     (Mills' clock filter: low RTT correlates with low asymmetry error)
///   * step the clock by the filtered offset
///
/// Because the server is the true-time reference, the residual error after a
/// sync is exactly the delay asymmetry of the chosen sample plus drift
/// accumulated until the next poll — a few hundred microseconds to a few
/// milliseconds for LAN paths, matching the paper's "within a few
/// milliseconds" premise (Mills 1995).
///
/// With `discipline_frequency` on (the default, as in real ntpd), each
/// poll also estimates the oscillator's frequency error from the drift
/// accumulated since the previous poll and corrects a fraction of it, so
/// the steady-state phase error shrinks well below the per-poll drift.
class NtpSynchronizer final {
 public:
  NtpSynchronizer(sim::Simulation& sim, HostClock& clock, NtpPathModel path,
                  sim::Rng rng, bool discipline_frequency = true)
      : sim_(&sim),
        clock_(&clock),
        path_(path),
        rng_(rng),
        discipline_frequency_(discipline_frequency) {}

  /// Performs one synchronous poll burst and applies the correction.
  /// Returns the sample that was applied.
  NtpSample sync_once();

  /// Number of corrections applied so far.
  [[nodiscard]] std::uint64_t polls() const noexcept { return polls_; }

  /// Magnitude of applied corrections, for diagnostics.
  [[nodiscard]] const sim::SummaryStats& correction_stats() const noexcept {
    return corrections_;
  }

 private:
  NtpSample measure_once();

  sim::Simulation* sim_;
  HostClock* clock_;
  NtpPathModel path_;
  sim::Rng rng_;
  bool discipline_frequency_;
  sim::Time last_poll_at_ = 0;
  bool have_prior_poll_ = false;
  std::uint64_t polls_ = 0;
  sim::SummaryStats corrections_{/*keep_samples=*/false};
};

/// Convenience bundle: one drifting clock plus its synchroniser per host,
/// all against a common true-time reference. This is the time service the
/// NTP-based LSC coordinator consumes.
///
/// Periodic polling is one daemon event per room, not one per host: each
/// poll interval the tick runs sync_once() on every host in host order and
/// re-arms itself. That fires exactly as N per-host chains armed one after
/// another at one instant would. Such chains fire at the same instants with
/// consecutive sequence numbers, and sync_once() schedules nothing (the
/// clock corrections are noexcept re-anchors), so no other event can fall
/// between two hosts' polls and each re-arm again takes consecutive
/// numbers. The tick fires where host 0's poll fired and makes the same
/// per-host RNG draws in the same order. Only the sequence numbers drawn
/// afterwards shift (N - 1 fewer re-arms per tick), and that shift is a
/// monotone relabelling: every (time, seq) order between other events holds.
class ClusterTimeService final {
 public:
  /// Distribution of initial clock states across hosts.
  struct Config {
    sim::Duration initial_offset_stddev = 50 * sim::kMillisecond;
    double drift_ppm_stddev = 30.0;  ///< typical undisciplined quartz
  };

  /// ntpd's minimum poll interval (2^4 s).
  static constexpr sim::Duration kPollInterval = 16 * sim::kSecond;

  ClusterTimeService(sim::Simulation& sim, std::size_t hosts, Config cfg,
                     sim::Rng rng);

  /// Runs one sync burst on every host (e.g. before an experiment).
  void sync_all();

  /// Polls every host now, then every kPollInterval for the
  /// lifetime of the simulation, from one daemon event.
  void start_periodic();

  [[nodiscard]] std::size_t size() const noexcept { return clocks_.size(); }
  [[nodiscard]] HostClock& clock(std::size_t host) { return *clocks_[host]; }
  [[nodiscard]] const HostClock& clock(std::size_t host) const {
    return *clocks_[host];
  }
  /// The synchroniser that polls `host`'s clock.
  [[nodiscard]] NtpSynchronizer& synchronizer(std::size_t host) {
    return *syncs_[host];
  }

  /// Largest pairwise clock disagreement right now (true measurement; used
  /// by tests and benches, not by protocol code).
  [[nodiscard]] sim::Duration max_pairwise_skew() const;

  /// Distribution of |offset error| across hosts right now.
  [[nodiscard]] sim::SummaryStats offset_error_stats() const;

 private:
  void poll_tick();

  sim::Simulation* sim_;
  std::vector<std::unique_ptr<HostClock>> clocks_;
  std::vector<std::unique_ptr<NtpSynchronizer>> syncs_;
};

}  // namespace dvc::clocksync
