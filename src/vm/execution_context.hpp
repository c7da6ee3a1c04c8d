#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace dvc::vm {

/// Identifier of a guest-progress timer (see ExecutionContext::schedule).
using GuestTimerId = std::uint64_t;

inline constexpr GuestTimerId kInvalidGuestTimer = 0;

/// Where application code runs: either directly on a physical node (native
/// baseline) or inside a virtual machine. The two differ in effective
/// compute rate (para-virt tax), in whether timers can be frozen by a
/// hypervisor pause, and in what the wall clock reports across a
/// save/restore gap.
class ExecutionContext {
 public:
  virtual ~ExecutionContext() = default;

  /// Network attachment point of this context (virtual or physical NIC).
  [[nodiscard]] virtual net::HostId host() const = 0;

  /// Effective sustained compute rate available to the application.
  [[nodiscard]] virtual double flops() const = 0;

  /// Schedules `fn` after `delay` of *guest progress* — time only advances
  /// while the context is actually running; a hypervisor pause freezes it.
  virtual GuestTimerId schedule(sim::Duration delay, sim::Callback fn) = 0;

  /// Cancels a pending guest timer; returns true if it had not fired.
  virtual bool cancel(GuestTimerId id) = 0;

  /// Remaining guest progress until a pending timer fires (0 if unknown).
  [[nodiscard]] virtual sim::Duration remaining(GuestTimerId id) const = 0;

  /// What the application's gettimeofday() reports. For a native context
  /// or a non-time-virtualised guest this is true time — so it jumps
  /// across a save/restore gap, inflating the app's self-reported runtime
  /// (the paper's HPL observation). A time-virtualised guest hides pauses.
  [[nodiscard]] virtual sim::Time wall_now() const = 0;

  /// True while the context can execute (not paused/saved/failed).
  [[nodiscard]] virtual bool running() const = 0;
};

}  // namespace dvc::vm
