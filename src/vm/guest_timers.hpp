#pragma once

#include "sim/id_table.hpp"
#include "sim/simulation.hpp"
#include "vm/execution_context.hpp"

namespace dvc::vm {

/// The pending guest timers of one execution context, in one
/// sim::IdTable: every walk (freeze/thaw/drop) visits timers in id order,
/// so thawed timers re-enter the kernel in the order they were first
/// scheduled, which fixes their same-tick tie-breaks. The kernel closure
/// of an armed timer holds only `(this, id)`, so a context that schedules
/// and fires timers in steady state never touches the heap.
class GuestTimerTable final {
 public:
  explicit GuestTimerTable(sim::Simulation& sim) : sim_(&sim) {}
  ~GuestTimerTable() { drop(); }

  GuestTimerTable(const GuestTimerTable&) = delete;
  GuestTimerTable& operator=(const GuestTimerTable&) = delete;

  /// Adds a timer `delay` of guest progress from now (negative delays
  /// clamp to zero). An armed timer runs in the kernel at once; an unarmed
  /// one stays frozen until thaw().
  GuestTimerId add(sim::Duration delay, sim::Callback fn, bool armed);

  /// Removes a pending timer; returns true if it had not fired.
  bool cancel(GuestTimerId id);

  /// Guest progress left until a pending timer fires (0 once it has
  /// fired or been cancelled).
  [[nodiscard]] sim::Duration remaining(GuestTimerId id) const;

  /// Stops every armed timer, keeping its remaining guest progress.
  void freeze();

  /// Re-arms every frozen timer, in id order.
  void thaw();

  /// Discards every timer, armed or frozen.
  void drop();

 private:
  struct Entry {
    GuestTimerId id = kInvalidGuestTimer;
    sim::Duration remaining = 0;  ///< valid while frozen
    sim::Time due_at = 0;         ///< valid while armed
    sim::EventId event = sim::kInvalidEvent;  ///< kInvalidEvent while frozen
    sim::Callback fn;
  };

  /// Hands `e` to the kernel to fire after its remaining progress.
  void arm(Entry& e);
  /// Kernel callback: removes the timer, then runs its closure.
  void fire(GuestTimerId id);

  sim::Simulation* sim_;
  sim::IdTable<Entry> entries_;
};

}  // namespace dvc::vm
