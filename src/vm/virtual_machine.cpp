#include "vm/virtual_machine.hpp"

#include <utility>

namespace dvc::vm {

VirtualMachine::VirtualMachine(sim::Simulation& sim, net::Network& net,
                               VmId id, GuestConfig cfg)
    : sim_(&sim),
      net_(&net),
      id_(id),
      cfg_(std::move(cfg)),
      vnic_(net.new_host()),
      timers_(sim),
      pause_started_(sim.now()) {
  // Domains are created frozen; boot (Hypervisor::boot_domain) resumes
  // them, so the vNIC starts dark.
  net_->set_host_up(vnic_, false);
}

GuestTimerId VirtualMachine::schedule(sim::Duration delay,
                                      sim::Callback fn) {
  if (state_ == DomainState::kDead) return kInvalidGuestTimer;
  // A timer scheduled while frozen waits for resume() to arm it.
  return timers_.add(delay, std::move(fn),
                     state_ == DomainState::kRunning);
}

bool VirtualMachine::cancel(GuestTimerId id) { return timers_.cancel(id); }

sim::Duration VirtualMachine::remaining(GuestTimerId id) const {
  return timers_.remaining(id);
}

sim::Time VirtualMachine::wall_now() const {
  // Non-virtualised guests track host time, so a save/restore gap appears
  // as a forward jump in the application's clock (the paper's inflated-HPL
  // effect). Time-virtualised guests subtract all frozen intervals.
  if (!cfg_.virtualize_time) return sim_->now();
  return sim_->now() - total_frozen();
}

sim::Duration VirtualMachine::total_frozen() const noexcept {
  sim::Duration f = frozen_accum_;
  if (state_ != DomainState::kRunning && state_ != DomainState::kDead) {
    f += sim_->now() - pause_started_;
  }
  return f;
}

void VirtualMachine::place_on(const hw::PhysicalNode& node) {
  node_ = node.id();
  // Para-virtualised CPU tax of a Xen guest.
  constexpr double kVirtOverhead = 0.03;
  flops_ = node.spec().flops * (1.0 - kVirtOverhead);
  // The vNIC rides along: guest traffic must see the tier (and any active
  // link faults) of the cluster the VM currently runs in, not a default.
  net_->link_model().set_cluster(vnic_, node.cluster());
}

void VirtualMachine::pause() {
  if (state_ != DomainState::kRunning) return;
  state_ = DomainState::kPaused;
  pause_started_ = sim_->now();
  ++pauses_;
  net_->set_host_up(vnic_, false);
  timers_.freeze();
}

void VirtualMachine::resume() {
  if (state_ != DomainState::kPaused && state_ != DomainState::kSaved) {
    return;
  }
  const sim::Duration gap = sim_->now() - pause_started_;
  frozen_accum_ += gap;
  const bool was_booted = has_run_;
  has_run_ = true;
  state_ = DomainState::kRunning;
  net_->set_host_up(vnic_, true);
  timers_.thaw();
  // The watchdog only exists once the guest kernel has run; the initial
  // boot freeze is not a lost timer tick.
  if (was_booted && cfg_.watchdog_enabled && gap > cfg_.watchdog_period) {
    ++watchdog_timeouts_;
    kernel_messages_total_ += 2;
  }
}

void VirtualMachine::mark_saved() {
  if (state_ == DomainState::kPaused) state_ = DomainState::kSaved;
}

void VirtualMachine::kill() {
  if (state_ == DomainState::kDead) return;
  if (state_ == DomainState::kRunning) pause_started_ = sim_->now();
  state_ = DomainState::kDead;
  net_->set_host_up(vnic_, false);
  timers_.drop();
  if (software_ != nullptr) software_->on_killed();
}

void VirtualMachine::rollback_and_resume(const std::any& app_state) {
  timers_.drop();
  has_run_ = true;  // a checkpoint only exists for a guest that has run
  state_ = DomainState::kRunning;
  net_->set_host_up(vnic_, true);
  // The restored incarnation's frozen interval spans from the pause that
  // produced the checkpoint to now; we fold it in so wall_now() semantics
  // stay correct for time-virtualised guests.
  frozen_accum_ += sim_->now() - pause_started_;
  if (cfg_.watchdog_enabled) {
    ++watchdog_timeouts_;
    ++kernel_messages_total_;
  }
  if (software_ != nullptr) software_->restore_state(app_state);
}

std::uint64_t VirtualMachine::dirty_bytes_since_last_image() const {
  if (!imaged_once_) return cfg_.ram_bytes;
  // Dirtying only happens while the guest actually runs.
  const sim::Duration elapsed = sim_->now() - imaged_at_;
  const sim::Duration frozen = total_frozen() - frozen_at_image_;
  const sim::Duration running = elapsed > frozen ? elapsed - frozen : 0;
  const double dirty = cfg_.dirty_rate_bps * sim::to_seconds(running);
  return std::min(cfg_.ram_bytes,
                  static_cast<std::uint64_t>(dirty));
}

void VirtualMachine::mark_imaged() {
  imaged_once_ = true;
  imaged_at_ = sim_->now();
  frozen_at_image_ = total_frozen();
}

}  // namespace dvc::vm
