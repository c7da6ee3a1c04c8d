#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hw/cluster.hpp"
#include "sim/id_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "storage/image_manager.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/virtual_machine.hpp"

namespace dvc::vm {

/// The per-node virtual machine monitor (Xen dom0 stand-in). It hosts
/// domains, executes save/restore against the shared store, and kills its
/// residents when the underlying node dies.
class Hypervisor final {
 public:
  struct Config {
    /// Fail in-flight save operations the instant this node dies, instead
    /// of letting each discover the failure at its next stage boundary
    /// (or, worst case, hang inside a store transfer that no longer has a
    /// client). Off by default: the happy-path benches never notice, and
    /// coordinators relying on prompt failure reports opt in.
    bool abort_saves_on_failure = false;
  };

  /// Domain creation to a running guest.
  static constexpr sim::Duration kBootTime = 15 * sim::kSecond;
  /// Fixed cost between a staged image and the resumed guest; a live
  /// move's final stop-and-copy pays it too.
  static constexpr sim::Duration kRestoreOverhead = 200 * sim::kMillisecond;

  Hypervisor(sim::Simulation& sim, hw::Fabric& fabric, hw::NodeId node,
             Config cfg, sim::Rng rng);

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  [[nodiscard]] hw::NodeId node() const noexcept { return node_; }
  [[nodiscard]] bool node_failed() const;
  [[nodiscard]] std::size_t resident_count() const noexcept {
    return residents_.size();
  }

  /// Places and boots a domain on this node. `on_booted` fires when the
  /// guest is running (or never, if the node dies or the domain is
  /// destroyed first).
  void boot_domain(VirtualMachine& vm, std::function<void()> on_booted);

  /// Pauses, images, and seals one domain into a checkpoint set. The guest
  /// freezes after the local command latency; its software state is
  /// captured at that instant (that is what imaging guest memory means).
  /// `on_durable(ok, app_state)` fires when the image is in the store (the
  /// domain is then in state kSaved). The caller decides when to resume.
  ///
  /// With `incremental` set (and a prior full image), only the memory the
  /// guest dirtied since its last image is written — much cheaper, but a
  /// restore must stage the whole chain back to the last full image.
  ///
  /// `epoch` is the issuing coordinator's fencing token: a save stamped
  /// with a stale epoch is rejected before the guest is paused (counted in
  /// `vm.hypervisor.fenced_commands`) and reports failure.
  void save_domain(VirtualMachine& vm, storage::ImageManager& images,
                   storage::CheckpointSetId set, std::uint64_t member,
                   std::function<void(bool, std::any)> on_durable,
                   bool incremental = false,
                   std::uint64_t epoch = storage::kUnfencedEpoch);

  /// Thaws a paused or saved domain.
  void resume_domain(VirtualMachine& vm);

  /// Adopts a domain previously checkpointed elsewhere: stages its image
  /// from the store, rolls the guest back to `app_state`, and resumes it on
  /// this node. `on_done(ok)` reports staging integrity. The snapshot is
  /// read in place, never copied: `app_state` must stay alive until
  /// `on_done` has run (core::DvcManager's restore record holds it).
  void restore_domain(VirtualMachine& vm, storage::ImageManager& images,
                      storage::CheckpointSetId set, std::uint64_t member,
                      const std::any& app_state,
                      std::function<void(bool)> on_done,
                      std::uint64_t epoch = storage::kUnfencedEpoch);

  /// Removes a domain from this node without destroying it (migration
  /// hand-off); the domain must be paused, saved, or dead.
  void evict(VirtualMachine& vm);

  /// Adopts a frozen in-memory domain from another hypervisor (the
  /// receiving end of a live migration — no image staging involved).
  void adopt(VirtualMachine& vm);

  /// Destroys a domain (graceful teardown at job end), ending its
  /// operations on this node (end_ops).
  void destroy_domain(VirtualMachine& vm);

  /// Ends every boot, save or restore still in flight on this node for a
  /// domain in `vms` (sorted by address, std::less), unreported: their
  /// pending events find nothing, so once no node holds one the domain
  /// may be freed. O(1) on a node with no operation in flight.
  void end_ops(std::span<const VirtualMachine* const> vms);

  /// Kills every resident domain; wired to the fabric's failure feed.
  void on_node_failure();

  /// Attaches an optional metrics registry. Save/restore/boot durations
  /// land in `vm.hypervisor.*` histograms and each operation appears as a
  /// span on the `vm/node<N>` timeline track.
  void set_metrics(telemetry::MetricsRegistry* m) noexcept { metrics_ = m; }

  /// Attaches the coordinator-epoch fence (null = unfenced).
  void set_fence(const storage::EpochFence* fence) noexcept {
    fence_ = fence;
  }

 private:
  /// True (and counted) when a command stamped with `epoch` comes from a
  /// deposed coordinator and must be rejected.
  [[nodiscard]] bool fenced(std::uint64_t epoch) {
    if (fence_ == nullptr || fence_->admits(epoch)) return false;
    telemetry::count(metrics_, fenced_commands_c_);
    return true;
  }

  /// One in-flight boot, save or restore. Its events capture only
  /// `(this, id)` and look the operation up in its table; one that has
  /// finished or been ended (destroy_domain, or node death for a save
  /// under abort_saves_on_failure) is gone, so a late event finds nothing.
  struct BootOp {
    std::uint64_t id = 0;
    VirtualMachine* vm = nullptr;
    sim::Time begin = 0;
    std::function<void()> cb;
    telemetry::MetricsRegistry::SpanId span =
        telemetry::MetricsRegistry::kInvalidSpan;
  };
  struct SaveOp {
    std::uint64_t id = 0;
    VirtualMachine* vm = nullptr;
    storage::ImageManager* images = nullptr;
    storage::CheckpointSetId set = storage::kInvalidCheckpointSet;
    std::uint64_t member = 0;
    std::uint64_t epoch = storage::kUnfencedEpoch;
    std::uint64_t image_bytes = 0;
    sim::Time begin = 0;
    bool incremental = false;
    std::function<void(bool, std::any)> cb;
    std::any state{};  ///< guest snapshot, taken when the guest froze
    telemetry::MetricsRegistry::SpanId span =
        telemetry::MetricsRegistry::kInvalidSpan;
  };
  struct RestoreOp {
    std::uint64_t id = 0;
    VirtualMachine* vm = nullptr;
    sim::Time begin = 0;
    std::uint64_t image_bytes = 0;
    const std::any* state = nullptr;  ///< owned by whoever holds `cb`
    std::function<void(bool)> cb;
    telemetry::MetricsRegistry::SpanId span =
        telemetry::MetricsRegistry::kInvalidSpan;
  };

  [[nodiscard]] sim::Duration cmd_latency();
  /// Ends every operation of `ops` on a domain in `vms` (sorted) without
  /// reporting it.
  template <class Op>
  void drop_ops(sim::IdTable<Op>& ops,
                std::span<const VirtualMachine* const> vms);
  /// Runs stage `Stage` of operation `id` after `delay`. The event
  /// captures `(this, id)` and is pinned to the kernel's inline store.
  template <void (Hypervisor::*Stage)(std::uint64_t)>
  void after(sim::Duration delay, std::uint64_t id) {
    const auto stage = [this, id] { (this->*Stage)(id); };
    static_assert(sim::Simulation::stores_inline<decltype(stage)>);
    sim_->schedule_after(delay, stage);
  }
  void boot_done(std::uint64_t id);
  /// Save stages, in order: the guest freezes after the command latency,
  /// its image starts streaming after the device quiesce, and the save
  /// ends when the image is durable.
  void save_freeze(std::uint64_t id);
  void save_stream(std::uint64_t id);
  void save_durable(std::uint64_t id);
  /// Removes the save from the table and reports it (with its snapshot
  /// only on success).
  void finish_save(std::uint64_t id, bool ok);
  /// Restore stages: the image is read (with replica failover), then the
  /// guest rolls back after the restore overhead.
  void restore_read(std::uint64_t id, bool ok);
  void restore_done(std::uint64_t id);
  void finish_restore(std::uint64_t id, bool ok);

  sim::Simulation* sim_;
  hw::Fabric* fabric_;
  hw::NodeId node_;
  Config cfg_;
  sim::Rng rng_;
  std::unordered_set<VirtualMachine*> residents_;
  sim::IdTable<BootOp> boots_;
  sim::IdTable<SaveOp> saves_;
  sim::IdTable<RestoreOp> restores_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::CounterHandle boots_c_{"vm.hypervisor.boots"};
  telemetry::HistogramHandle boot_s_h_{"vm.hypervisor.boot_s"};
  telemetry::CounterHandle saves_c_{"vm.hypervisor.saves"};
  telemetry::CounterHandle bytes_saved_c_{"vm.hypervisor.bytes_saved"};
  telemetry::HistogramHandle save_s_h_{"vm.hypervisor.save_s"};
  telemetry::CounterHandle save_failures_c_{"vm.hypervisor.save_failures"};
  telemetry::CounterHandle saves_aborted_c_{"vm.hypervisor.saves_aborted"};
  telemetry::CounterHandle restores_c_{"vm.hypervisor.restores"};
  telemetry::CounterHandle bytes_restored_c_{"vm.hypervisor.bytes_restored"};
  telemetry::HistogramHandle restore_s_h_{"vm.hypervisor.restore_s"};
  telemetry::CounterHandle restore_failures_c_{
      "vm.hypervisor.restore_failures"};
  telemetry::CounterHandle domains_killed_c_{"vm.hypervisor.domains_killed"};
  telemetry::CounterHandle fenced_commands_c_{
      "vm.hypervisor.fenced_commands"};
  const storage::EpochFence* fence_ = nullptr;
  std::string track_;  ///< timeline track name ("vm/node<N>")
};

/// One hypervisor per node of a fabric, with failure wiring installed.
class HypervisorFleet final {
 public:
  HypervisorFleet(sim::Simulation& sim, hw::Fabric& fabric,
                  Hypervisor::Config cfg, sim::Rng rng);

  [[nodiscard]] Hypervisor& on_node(hw::NodeId node) {
    return *fleet_.at(node);
  }
  [[nodiscard]] std::size_t size() const noexcept { return fleet_.size(); }

  /// Forwards the registry to every node's hypervisor.
  void set_metrics(telemetry::MetricsRegistry* m) noexcept {
    for (auto& h : fleet_) h->set_metrics(m);
  }

  /// Destroys the domains `vms` (a VC's guests) where each was last
  /// placed, in order, and first ends their operations on every node: a
  /// save or restore issued before a guest last moved may still be in
  /// flight on another. One pass over the fleet for all of them.
  void destroy_domains(std::span<VirtualMachine* const> vms);

  /// Forwards the coordinator-epoch fence to every node's hypervisor.
  void set_fence(const storage::EpochFence* fence) noexcept {
    for (auto& h : fleet_) h->set_fence(fence);
  }

 private:
  std::vector<std::unique_ptr<Hypervisor>> fleet_;
};

}  // namespace dvc::vm
