#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "clocksync/ntp.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "storage/shared_store.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::fault {

/// Executes a FaultPlan against a live machine room: schedules every event
/// on the simulation's queue (as daemons, so an armed plan never keeps an
/// otherwise-finished run alive), applies it to the targeted subsystem,
/// and lifts temporary faults when their duration elapses.
///
/// Overlapping faults nest: a link pair stays cut while any kLinkDown is
/// active on it; the store runs at the *worst* active slowdown; a repaired
/// node can be re-crashed. Every injection lands in `fault.*` counters and
/// on the "fault" timeline track.
class FaultInjector final {
 public:
  /// Targets; any pointer may be null, in which case events needing it
  /// are counted as skipped instead of applied.
  struct Hooks {
    hw::Fabric* fabric = nullptr;
    storage::SharedStore* store = nullptr;
    clocksync::ClusterTimeService* time = nullptr;
    /// Replica stores, in ImageManager registration order. Store faults
    /// address store 0 = primary, store i = replicas[i-1]. Disk slowdowns
    /// keep hitting only the primary (the contended staging path).
    std::vector<storage::SharedStore*> replicas;
    /// Kills the DVC control plane; the argument is the time until the
    /// coordinator reboots (0 = stays dead). The coordinator owns its own
    /// reboot, so kCoordinatorCrash events have no lift here.
    std::function<void(sim::Duration)> coordinator_crash;
  };

  /// `metrics` holds the injector's counts; null throws invalid_argument.
  FaultInjector(sim::Simulation& sim, Hooks hooks,
                telemetry::MetricsRegistry* metrics);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of `plan`. May be called more than once; plans
  /// accumulate.
  void arm(const FaultPlan& plan);

  [[nodiscard]] std::uint64_t injected_total() const {
    return metrics_->counter_value("fault.injected");
  }
  [[nodiscard]] std::uint64_t injected(FaultKind k) const {
    return metrics_->counter_value("fault.injected." +
                                   std::string(to_string(k)));
  }
  [[nodiscard]] std::uint64_t lifted_total() const {
    return metrics_->counter_value("fault.lifted");
  }
  /// Events that could not be applied (missing hook, bad target id,
  /// crash of an already-dead node).
  [[nodiscard]] std::uint64_t skipped_total() const {
    return metrics_->counter_value("fault.skipped");
  }

 private:
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(FaultKind::kCoordinatorCrash) + 1;

  /// One `<stem>.<kind>` counter per FaultKind.
  struct PerKind {
    explicit PerKind(std::string_view stem);
    telemetry::CounterHandle& operator[](FaultKind k);
    std::vector<telemetry::CounterHandle> counters;
  };

  /// Fault state of one *directed* cluster edge. A symmetric fault bumps
  /// both directions; a one-way fault bumps only its own.
  struct PairState {
    int down_depth = 0;
    /// Active degrade parameters, newest last (newest wins while no cut
    /// is active).
    std::vector<std::pair<double, double>> degrades;  ///< (loss, lat_factor)
  };

  /// Applies events_[i] and, for a temporary fault, schedules its lift
  /// (lift_after). Both events carry only `(this, i)`.
  void apply(std::size_t i);
  void lift_after(std::size_t i);
  void lift(const FaultEvent& e);
  void skip(const FaultEvent& e);
  void refresh_pair(std::uint64_t key);
  void refresh_disk();
  /// Invokes fn(directed_key) for the event's A->B edge and, unless the
  /// event is one-way, for B->A as well.
  template <typename Fn>
  void for_each_direction(const FaultEvent& e, Fn&& fn) {
    fn(directed_key(e.cluster_a, e.cluster_b));
    if (!e.one_way) fn(directed_key(e.cluster_b, e.cluster_a));
  }
  /// Resolves a store-fault target index to a store (null = bad index).
  [[nodiscard]] storage::SharedStore* target_store(std::uint32_t i) const;
  [[nodiscard]] static std::uint64_t directed_key(std::uint32_t from,
                                                  std::uint32_t to) noexcept;

  sim::Simulation* sim_;
  Hooks hooks_;
  telemetry::MetricsRegistry* metrics_;
  /// Every armed event, in arm order; a deque, so a reference to one
  /// survives a later arm().
  std::deque<FaultEvent> events_;
  std::map<std::uint64_t, PairState> pairs_;
  std::map<double, int> disk_factors_;  ///< active slowdown factor -> depth
  double disk_write_base_ = 0.0;
  double disk_read_base_ = 0.0;
  PerKind injected_c_{"fault.injected"};
  PerKind skipped_c_{"fault.skipped"};
  PerKind lifted_c_{"fault.lifted"};
};

}  // namespace dvc::fault
