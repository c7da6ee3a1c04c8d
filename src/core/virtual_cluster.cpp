#include "core/virtual_cluster.hpp"

#include <algorithm>

namespace dvc::core {

VirtualCluster::VirtualCluster(sim::Simulation& sim, net::Network& net,
                               VcId id, VcSpec spec)
    : id_(id), spec_(std::move(spec)) {
  vms_.reserve(spec_.size);
  for (std::uint32_t i = 0; i < spec_.size; ++i) {
    const vm::VmId vmid = (id_ << 16) | i;
    vms_.push_back(
        std::make_unique<vm::VirtualMachine>(sim, net, vmid, spec_.guest));
  }
  placement_.assign(spec_.size, hw::kInvalidNode);
}

std::vector<vm::ExecutionContext*> VirtualCluster::contexts() {
  std::vector<vm::ExecutionContext*> out;
  out.reserve(vms_.size());
  for (auto& v : vms_) out.push_back(v.get());
  return out;
}

bool VirtualCluster::retains(storage::CheckpointSetId s) const {
  return std::ranges::any_of(generations_, [s](const VcGeneration& g) {
    return std::ranges::find(g.chain, s) != g.chain.end();
  });
}

}  // namespace dvc::core
