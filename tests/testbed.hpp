#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "check/hooks.hpp"
#include "core/machine_room.hpp"

namespace dvc::test {

/// Tests use the library's own MachineRoom facility under its older
/// test-local name.
using TestBed = core::MachineRoom;
using TestBedOptions = core::MachineRoomOptions;

/// Every node the Fabric's ledger gives to some VC, in id order.
inline std::vector<hw::NodeId> vc_held_nodes(const hw::Fabric& fabric) {
  std::vector<hw::NodeId> out;
  for (hw::NodeId n = 0; n < fabric.node_count(); ++n) {
    if (fabric.node(n).vc() != 0) out.push_back(n);
  }
  return out;
}

/// Records every lifecycle edge and boundary a DvcManager publishes, and
/// hands each on to `next` (say, a check::Invariants) when one is given.
class RecordingChecker final : public check::Checker {
 public:
  using Edge = std::pair<core::VcState, core::VcState>;

  explicit RecordingChecker(const sim::Simulation& sim,
                            check::Checker* next = nullptr)
      : sim_(&sim), next_(next) {}

  void on_vc_transition(std::uint64_t vc, std::uint8_t from,
                        std::uint8_t to) override {
    edges.emplace_back(static_cast<core::VcState>(from),
                       static_cast<core::VcState>(to));
    edge_times.push_back(sim_->now());
    if (next_ != nullptr) next_->on_vc_transition(vc, from, to);
  }

  void on_vc_boundary(check::Boundary b, std::uint64_t vc) override {
    boundaries.push_back(b);
    if (next_ != nullptr) next_->on_vc_boundary(b, vc);
  }

  std::vector<Edge> edges;
  std::vector<sim::Time> edge_times;  ///< when each of `edges` was taken
  std::vector<check::Boundary> boundaries;

 private:
  const sim::Simulation* sim_;
  check::Checker* next_;
};

}  // namespace dvc::test
