#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clocksync/ntp.hpp"
#include "core/dvc_manager.hpp"
#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "storage/image_manager.hpp"
#include "storage/shared_store.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_bridge.hpp"
#include "vm/hypervisor.hpp"

namespace dvc::core {

/// Configuration of a MachineRoom (kept outside the class so it can be
/// used as a defaulted constructor argument).
struct MachineRoomOptions {
  std::uint32_t clusters = 1;
  std::uint32_t nodes_per_cluster = 4;
  net::ClusterLinkModel::Config links{};
  vm::Hypervisor::Config hv{};
  storage::SharedStore::Config store{};
  clocksync::ClusterTimeService::Config time{};
  std::uint64_t seed = 42;
  bool presync_clocks = true;
  /// Checkpoint durability factor k-1: number of additional SharedStore
  /// replicas (same config as the primary) that asynchronously receive a
  /// copy of every checkpoint image. 0 = primary only (historical
  /// behaviour, and byte-identical to it).
  std::uint32_t store_replicas = 0;
};

/// A complete miniature machine room: simulation kernel, physical fabric,
/// per-node hypervisors, shared image store, NTP time service and the DVC
/// control plane — everything a DVC deployment needs, deterministic under
/// one seed. This is the top-level entry point of the library: examples,
/// benches and tests all start here.
struct MachineRoom {
  using Options = MachineRoomOptions;

  explicit MachineRoom(Options opt = Options())
      : fabric(sim, hw::Fabric::Config{opt.links, opt.seed}),
        store(sim, opt.store),
        images(store) {
    for (std::uint32_t c = 0; c < opt.clusters; ++c) {
      fabric.add_cluster("cluster" + std::to_string(c),
                         opt.nodes_per_cluster);
    }
    fleet = std::make_unique<vm::HypervisorFleet>(
        sim, fabric, opt.hv, sim::Rng(opt.seed ^ 0xF1EE7));
    time = std::make_unique<clocksync::ClusterTimeService>(
        sim, fabric.node_count(), opt.time, sim::Rng(opt.seed ^ kTimeSalt));
    if (opt.presync_clocks) {
      // One immediate burst so experiments can start synchronised, then
      // ntpd-style periodic polling so long runs stay synchronised.
      time->sync_all();
      time->start_periodic();
    }
    for (std::uint32_t r = 0; r < opt.store_replicas; ++r) {
      replica_stores.push_back(
          std::make_unique<storage::SharedStore>(sim, opt.store));
      images.add_replica(*replica_stores.back());
    }
    dvc = std::make_unique<DvcManager>(sim, fabric, *fleet, images, *time,
                                       metrics);
    // One cluster-wide coordinator-epoch fence, checked at every storage
    // and hypervisor mutation point. It bites only after a head node is
    // designated (DvcManager::designate_head_node) and a coordinator
    // reboot advances the epoch; until then every command is admitted.
    images.set_fence(&fence);
    fleet->set_fence(&fence);
    dvc->set_fence(&fence);
    fabric.set_trace(&trace);
    dvc->set_trace(&trace);
    // Wire every other subsystem into the room-wide metrics registry (each
    // holds a nullable pointer, so standalone construction stays
    // metrics-free; the DVC manager took it at construction).
    fabric.network().set_metrics(&metrics);
    store.set_metrics(&metrics);
    for (std::size_t r = 0; r < replica_stores.size(); ++r) {
      replica_stores[r]->set_metrics(&metrics,
                                     "storage.replica" + std::to_string(r));
    }
    images.set_metrics(&metrics);
    fleet->set_metrics(&metrics);
    telemetry::bridge_trace_errors(trace, metrics);
  }

  /// All stores a fault plan can target, primary first — hand this to
  /// fault::FaultInjector::Hooks::replicas (minus the leading primary).
  [[nodiscard]] std::vector<storage::SharedStore*> replica_ptrs() {
    std::vector<storage::SharedStore*> out;
    out.reserve(replica_stores.size());
    for (const auto& r : replica_stores) out.push_back(r.get());
    return out;
  }

  sim::Simulation sim;
  /// Structured operational log (off-echo by default; see sim::TraceLog).
  sim::TraceLog trace;
  /// Room-wide metrics registry and sim-time span timeline; every
  /// subsystem above reports into it (see docs/ARCHITECTURE.md,
  /// "Telemetry & profiling").
  telemetry::MetricsRegistry metrics;
  hw::Fabric fabric;
  storage::SharedStore store;
  storage::ImageManager images;
  /// Coordinator-epoch fence shared by images, fleet, and the manager.
  storage::EpochFence fence;
  /// Replica stores (see MachineRoomOptions::store_replicas); owned here,
  /// registered with `images`.
  std::vector<std::unique_ptr<storage::SharedStore>> replica_stores;
  std::unique_ptr<vm::HypervisorFleet> fleet;
  std::unique_ptr<clocksync::ClusterTimeService> time;
  std::unique_ptr<DvcManager> dvc;

 private:
  static constexpr std::uint64_t kTimeSalt = 0x71AE5;
};

}  // namespace dvc::core
