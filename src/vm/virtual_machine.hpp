#pragma once

#include <any>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/cluster.hpp"
#include "net/network.hpp"
#include "vm/guest_os.hpp"
#include "sim/simulation.hpp"
#include "vm/execution_context.hpp"
#include "vm/guest_timers.hpp"

namespace dvc::vm {

/// Identifier of a virtual machine (stable across migrations/restores).
using VmId = std::uint64_t;

/// Configuration of a guest environment.
struct GuestConfig {
  std::uint64_t ram_bytes = 1ull << 30;  ///< 1 GiB guest memory
  /// Software watchdog inside the guest kernel: a save/restore gap longer
  /// than this period is reported as a watchdog timeout in the kernel log
  /// (paper §3.2: one report per save/restore, execution unaffected).
  bool watchdog_enabled = true;
  sim::Duration watchdog_period = 10 * sim::kSecond;
  /// Future-work feature: virtualise guest time so pauses are invisible to
  /// the application clock. Off by default to match the paper's testbed.
  bool virtualize_time = false;
  /// Rate at which the running guest dirties its memory — the quantity
  /// iterative pre-copy migration races against.
  double dirty_rate_bps = 10e6;
};

/// Lifecycle of a guest domain.
enum class DomainState : std::uint8_t {
  kRunning,
  kPaused,     ///< frozen by the hypervisor (checkpoint in progress)
  kSaved,      ///< image durable in the store; not executing
  kDead,       ///< lost (host node failed before/without a save)
};

/// Software running inside a guest (an application rank, typically). A
/// whole-guest checkpoint captures its state via snapshot(); a restore from
/// an older checkpoint rolls it back via restore().
class GuestSoftware {
 public:
  virtual ~GuestSoftware() = default;

  /// Captures application state. Called while the VM is paused — exactly
  /// when the hypervisor images guest memory.
  [[nodiscard]] virtual std::any snapshot_state() const = 0;

  /// Rolls application state back to a snapshot and re-schedules pending
  /// work from it. Called after the VM has been restored and resumed.
  virtual void restore_state(const std::any& state) = 0;

  /// The host node died; the in-memory guest (and this software) is gone
  /// until a checkpoint restore resurrects it.
  virtual void on_killed() {}
};

/// A Xen-style para-virtualised guest. The VM owns a virtual NIC whose
/// fabric identity persists across migrations (DVC's virtual network), a
/// set of freezable guest timers, a guest wall clock, and a kernel log.
class VirtualMachine final : public ExecutionContext {
 public:
  VirtualMachine(sim::Simulation& sim, net::Network& net, VmId id,
                 GuestConfig cfg);

  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  [[nodiscard]] VmId id() const noexcept { return id_; }
  [[nodiscard]] const GuestConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] DomainState state() const noexcept { return state_; }
  [[nodiscard]] hw::NodeId placed_on() const noexcept { return node_; }

  // --- ExecutionContext ----------------------------------------------
  [[nodiscard]] net::HostId host() const noexcept override { return vnic_; }
  [[nodiscard]] double flops() const noexcept override { return flops_; }
  GuestTimerId schedule(sim::Duration delay, sim::Callback fn) override;
  bool cancel(GuestTimerId id) override;
  [[nodiscard]] sim::Duration remaining(GuestTimerId id) const override;
  [[nodiscard]] sim::Time wall_now() const override;
  [[nodiscard]] bool running() const noexcept override {
    return state_ == DomainState::kRunning;
  }

  // --- guest software -------------------------------------------------
  void set_guest_software(GuestSoftware* sw) noexcept { software_ = sw; }

  /// The in-guest operating system model: process table, memory segments,
  /// file descriptors, sockets (the §2 checkpoint-content accounting).
  [[nodiscard]] GuestOs& os() noexcept { return os_; }
  [[nodiscard]] const GuestOs& os() const noexcept { return os_; }
  [[nodiscard]] GuestSoftware* guest_software() const noexcept {
    return software_;
  }

  // --- hypervisor-facing lifecycle (called via Hypervisor) -------------
  /// Binds the VM to a node (boot or post-migration placement).
  void place_on(const hw::PhysicalNode& node);

  /// Freezes the guest: timers stop, the vNIC goes dark.
  void pause();

  /// Thaws the guest: timers resume; a long gap trips the watchdog and the
  /// (non-virtualised) guest clock jumps forward.
  void resume();

  /// Marks the domain image durable (still frozen).
  void mark_saved();

  /// Destroys the in-memory guest (host node failure).
  void kill();

  /// Rolls the guest back to a checkpoint: application state is restored
  /// via GuestSoftware::restore_state and the domain runs again. Guest
  /// timers from the dead incarnation are discarded; the restored software
  /// re-creates its own.
  void rollback_and_resume(const std::any& app_state);

  // --- guest kernel telemetry -----------------------------------------
  [[nodiscard]] std::uint64_t watchdog_timeouts() const noexcept {
    return watchdog_timeouts_;
  }
  /// Watchdog lines the guest kernel has logged: two per resume after a
  /// freeze longer than the watchdog period (the soft lockup and the lost
  /// tick), one per restore (the lost tick).
  [[nodiscard]] std::uint64_t kernel_messages_total() const noexcept {
    return kernel_messages_total_;
  }
  /// Cumulative time spent frozen (pause + saved), i.e. the wall-clock jump
  /// a non-virtualised guest has experienced so far.
  [[nodiscard]] sim::Duration total_frozen() const noexcept;

  [[nodiscard]] std::uint64_t pauses() const noexcept { return pauses_; }

  /// Instant the current/most recent freeze began (LSC skew measurement).
  [[nodiscard]] sim::Time last_pause_started() const noexcept {
    return pause_started_;
  }

  /// Guest memory dirtied since the last image was taken (bounded by the
  /// guest's RAM): what an incremental checkpoint has to write.
  [[nodiscard]] std::uint64_t dirty_bytes_since_last_image() const;

  /// True once at least one full image of this guest exists (incremental
  /// saves are only meaningful on top of one).
  [[nodiscard]] bool has_image_baseline() const noexcept {
    return imaged_once_;
  }

  /// Records that the guest was just imaged (dirty tracking resets).
  void mark_imaged();

 private:
  sim::Simulation* sim_;
  net::Network* net_;
  VmId id_;
  GuestConfig cfg_;
  net::HostId vnic_;
  hw::NodeId node_ = hw::kInvalidNode;
  double flops_ = 0.0;
  DomainState state_ = DomainState::kPaused;  ///< created frozen; boot resumes

  GuestSoftware* software_ = nullptr;
  GuestOs os_;

  GuestTimerTable timers_;  ///< armed while running, frozen otherwise

  sim::Time pause_started_ = 0;
  sim::Duration frozen_accum_ = 0;
  bool has_run_ = false;
  bool imaged_once_ = false;
  sim::Time imaged_at_ = 0;
  sim::Duration frozen_at_image_ = 0;
  std::uint64_t pauses_ = 0;
  std::uint64_t watchdog_timeouts_ = 0;
  std::uint64_t kernel_messages_total_ = 0;
};

}  // namespace dvc::vm
