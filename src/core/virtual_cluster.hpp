#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "storage/image_manager.hpp"
#include "vm/execution_context.hpp"
#include "vm/virtual_machine.hpp"

namespace dvc::core {

/// Identifier of a virtual cluster.
using VcId = std::uint64_t;

/// What a virtual cluster should look like, independent of where it runs.
struct VcSpec {
  std::string name = "vc";
  std::uint32_t size = 1;
  vm::GuestConfig guest;
};

/// A VC's lifecycle state. Only DvcManager::transition changes it; the
/// legal edges are the table in docs/ARCHITECTURE.md ("VC lifecycle"),
/// which check::Invariants enforces as `vc-state-legal`.
enum class VcState : std::uint8_t {
  kProvisioning,
  kRunning,
  kCheckpointing,
  kRecovering,
  kMigrating,
  /// Recovery exhausted every checkpoint generation and retry budget.
  /// Terminal: the job is lost, but *diagnosed* — never a silent wedge.
  kFailed,
};

/// One recovery point of a virtual cluster: the chain of sealed image sets
/// a restore stages (the last full image set, then every incremental set
/// since; length 1 for a full checkpoint) and the guest-software snapshots
/// captured with its newest set. The snapshots (one per member, in member
/// order) are immutable once sealed, so a restore in flight shares the
/// vector instead of copying it.
struct VcGeneration {
  std::vector<storage::CheckpointSetId> chain;
  std::shared_ptr<const std::vector<std::any>> app_snapshots;
  sim::Time taken_at = 0;

  /// The set this recovery point restores: the chain's newest.
  [[nodiscard]] storage::CheckpointSetId set() const noexcept {
    return chain.empty() ? storage::kInvalidCheckpointSet : chain.back();
  }
};

/// A virtual cluster: a set of virtual machines with stable fabric
/// identities, mapped onto physical nodes — possibly across physical
/// clusters, and onto a *different* node set at each instantiation
/// (paper §1, figure 1). The VMs are owned here; hypervisors only host
/// them.
class VirtualCluster final {
 public:
  VirtualCluster(sim::Simulation& sim, net::Network& net, VcId id,
                 VcSpec spec);

  VirtualCluster(const VirtualCluster&) = delete;
  VirtualCluster& operator=(const VirtualCluster&) = delete;

  [[nodiscard]] VcId id() const noexcept { return id_; }
  [[nodiscard]] const VcSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] VcState state() const noexcept { return state_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return spec_.size; }

  [[nodiscard]] vm::VirtualMachine& machine(std::uint32_t i) {
    return *vms_.at(i);
  }
  [[nodiscard]] const vm::VirtualMachine& machine(std::uint32_t i) const {
    return *vms_.at(i);
  }

  /// The VMs as execution contexts, in member order — what a ParallelApp
  /// is constructed over.
  [[nodiscard]] std::vector<vm::ExecutionContext*> contexts();

  /// Physical node currently hosting member i.
  [[nodiscard]] hw::NodeId placement(std::uint32_t i) const {
    return placement_.at(i);
  }
  [[nodiscard]] const std::vector<hw::NodeId>& placements() const noexcept {
    return placement_;
  }

  /// True if the mapping uses nodes from more than one physical cluster.
  [[nodiscard]] bool spans_clusters(const hw::Fabric& fabric) const {
    return fabric.spans_clusters(placement_);
  }

  /// Label under which this VC's checkpoint sets are filed.
  [[nodiscard]] std::string checkpoint_label() const {
    return spec_.name + "#" + std::to_string(id_);
  }

  /// A VC has a recovery point until recovery is abandoned (kFailed) or
  /// no generation is left.
  [[nodiscard]] bool has_checkpoint() const noexcept {
    return state_ != VcState::kFailed && !generations_.empty();
  }

  /// Retained recovery points, oldest first; the back entry is the current
  /// one. DvcManager trims this to the policy's keep window and discards a
  /// set once no retained generation lists it (chains may share their base
  /// full image).
  [[nodiscard]] const std::vector<VcGeneration>& generations()
      const noexcept {
    return generations_;
  }

  /// Whether a retained generation lists set `s`.
  [[nodiscard]] bool retains(storage::CheckpointSetId s) const;

  [[nodiscard]] std::uint32_t recoveries() const noexcept {
    return recoveries_;
  }
  [[nodiscard]] std::uint32_t instantiations() const noexcept {
    return instantiations_;
  }

 private:
  friend class DvcManager;

  VcId id_;
  VcSpec spec_;
  VcState state_ = VcState::kProvisioning;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  std::vector<hw::NodeId> placement_;
  std::vector<VcGeneration> generations_;
  std::uint32_t recoveries_ = 0;
  std::uint32_t instantiations_ = 0;
};

}  // namespace dvc::core
