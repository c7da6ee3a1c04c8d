#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/id_table.hpp"
#include "sim/simulation.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::storage {

/// Identifier of an in-flight transfer.
using TransferId = std::uint64_t;

inline constexpr TransferId kInvalidTransfer = 0;

/// A processor-sharing bandwidth resource: N concurrent transfers each
/// progress at capacity/N. This is the standard fluid model for an NFS
/// server (or any shared pipe) under concurrent streams and is what makes
/// "26 VMs saving at once" take ~26x longer per VM than a lone save —
/// the contention effect the paper's save-time measurements include.
///
/// The pool keeps one kernel entry while a transfer is in flight: a
/// sim::Timer for the next finisher, re-armed on every start, cancel,
/// capacity change and drain, and disarmed when the pool empties or is
/// destroyed. Its arms fire in the order a cancel plus schedule_after
/// would, and usually skip the event heap (a pool deadline tends to be
/// the latest timer armed).
class BandwidthPool final {
 public:
  BandwidthPool(sim::Simulation& sim, double bytes_per_second)
      : sim_(&sim),
        bps_(bytes_per_second),
        timer_(sim, [this] { drain(); }) {}

  BandwidthPool(const BandwidthPool&) = delete;
  BandwidthPool& operator=(const BandwidthPool&) = delete;

  /// Starts a transfer of `bytes`; `on_complete` fires when it finishes.
  TransferId start(std::uint64_t bytes, sim::Callback on_complete);

  /// Cancels an in-flight transfer (no callback). Returns true if found.
  bool cancel(TransferId id);

  /// Changes the pool's aggregate capacity mid-run (disk-slowdown fault
  /// injection / recovery). In-flight transfers keep the progress already
  /// made and continue at the new rate.
  void set_capacity(double bytes_per_second);

  [[nodiscard]] std::size_t active() const noexcept {
    return transfers_.size();
  }
  [[nodiscard]] double capacity_bps() const noexcept { return bps_; }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_;
  }

  /// Time a transfer of `bytes` would take if it ran alone, for reporting.
  [[nodiscard]] sim::Duration uncontended_time(
      std::uint64_t bytes) const noexcept {
    return static_cast<sim::Duration>(static_cast<double>(bytes) / bps_ *
                                      sim::kSecond);
  }

  /// Attaches an optional metrics registry. `prefix` names this pool
  /// (e.g. "storage.write_pool"); the pool then records `<prefix>.bytes`,
  /// `<prefix>.transfers`, `<prefix>.transfer_s`,
  /// `<prefix>.contention_wait_s` (actual minus uncontended time — the
  /// cost of sharing the pipe) and the `<prefix>.active` gauge.
  void set_metrics(telemetry::MetricsRegistry* m, std::string_view prefix);

 private:
  struct Transfer {
    TransferId id = kInvalidTransfer;
    double remaining_bytes = 0.0;
    sim::Callback on_complete;
    std::uint64_t bytes = 0;     ///< original size, for metrics
    sim::Time started = 0;
  };

  /// Advances every transfer by the elapsed fluid progress.
  void settle();
  /// Arms the timer for the next finisher (disarms it when idle).
  void reschedule();
  /// The timer's callback: completes every drained transfer.
  void drain();

  sim::Simulation* sim_;
  double bps_;
  sim::Time last_settle_ = 0;
  /// In-flight transfers. Contiguous: every settle and reschedule walks
  /// them all, and there are rarely more than a few dozen.
  sim::IdTable<Transfer> transfers_;
  /// Fires at the next finisher's completion; armed while transfers_ is
  /// non-empty.
  sim::Timer timer_;
  std::uint64_t completed_ = 0;
  /// Completion callbacks of one drain, kept for their capacity.
  std::vector<sim::Callback> done_;

  telemetry::Counter* bytes_c_ = nullptr;
  telemetry::Counter* transfers_c_ = nullptr;
  telemetry::Histogram* transfer_h_ = nullptr;
  telemetry::Histogram* wait_h_ = nullptr;
  telemetry::Gauge* active_g_ = nullptr;
};

}  // namespace dvc::storage
