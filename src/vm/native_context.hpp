#pragma once

#include <utility>

#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "vm/execution_context.hpp"
#include "vm/guest_timers.hpp"

namespace dvc::vm {

/// Application execution directly on a physical node — the unvirtualised
/// baseline for the overhead experiments (T3). No para-virt tax, no freeze
/// capability: a node failure simply destroys the work.
class NativeContext final : public ExecutionContext {
 public:
  NativeContext(sim::Simulation& sim, hw::Fabric& fabric, hw::NodeId node)
      : sim_(&sim), fabric_(&fabric), node_(node), timers_(sim) {}

  [[nodiscard]] net::HostId host() const override {
    return fabric_->node(node_).host();
  }
  [[nodiscard]] double flops() const override {
    return fabric_->node(node_).spec().flops;
  }

  GuestTimerId schedule(sim::Duration delay, sim::Callback fn) override {
    return timers_.add(delay, std::move(fn), /*armed=*/true);
  }

  bool cancel(GuestTimerId id) override { return timers_.cancel(id); }

  [[nodiscard]] sim::Duration remaining(GuestTimerId id) const override {
    return timers_.remaining(id);
  }

  [[nodiscard]] sim::Time wall_now() const override { return sim_->now(); }

  [[nodiscard]] bool running() const override {
    return !fabric_->node(node_).failed();
  }

 private:
  sim::Simulation* sim_;
  hw::Fabric* fabric_;
  hw::NodeId node_;
  GuestTimerTable timers_;  ///< never frozen: a native node cannot pause
};

}  // namespace dvc::vm
