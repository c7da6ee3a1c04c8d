#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/workload.hpp"
#include "bench/scenario.hpp"
#include "check/hooks.hpp"
#include "core/machine_room.hpp"
#include "tools/sweep.hpp"

namespace dvc::test {

/// Tests use the library's own MachineRoom facility under its older
/// test-local name.
using TestBed = core::MachineRoom;
using TestBedOptions = core::MachineRoomOptions;

/// The all-to-all job the end-to-end tests run: ~0.1 s of compute per
/// iteration, then one `bytes_per_msg` message to every peer.
inline app::WorkloadSpec alltoall_job(app::RankId ranks, std::uint32_t iters,
                                      std::uint32_t bytes_per_msg = 4096) {
  app::WorkloadSpec s;
  s.name = "alltoall-test";
  s.ranks = ranks;
  s.iterations = iters;
  s.flops_per_rank_iter = 1e9;  // vs 10 GFLOP/s nodes
  s.pattern = app::Pattern::kAllToAll;
  s.bytes_per_msg = bytes_per_msg;
  return s;
}

/// The room the failure-path suites share: a 200 MB/s store (reads twice
/// as fast) and in-flight saves that abort on node death, the realistic
/// hypervisor behaviour those tests need.
inline TestBedOptions failure_room(std::uint32_t clusters,
                                   std::uint32_t nodes_per_cluster,
                                   std::uint64_t seed = 26) {
  TestBedOptions o;
  o.clusters = clusters;
  o.nodes_per_cluster = nodes_per_cluster;
  o.seed = seed;
  o.store.write_bps = 200e6;
  o.store.read_bps = 400e6;
  o.hv.abort_saves_on_failure = true;
  return o;
}

/// The tools::CellRig spec of an end-to-end test: a VC named `vc_name` of
/// `workload.ranks` guests with `guest_ram` bytes each, running `workload`
/// over `transport` on a room built from `room`, its LSC coordinator
/// seeded `room.seed ^ 0x15C`. Head node, recovery and retry policies,
/// faults and the timeline stay the caller's.
inline tools::CellSpec test_cell(const TestBedOptions& room,
                                 std::string vc_name, std::uint64_t guest_ram,
                                 app::WorkloadSpec workload,
                                 net::ReliableConfig transport = {}) {
  tools::CellSpec spec =
      bench::vc_cell(room, guest_ram, std::move(workload), transport);
  spec.vc.name = std::move(vc_name);
  spec.lsc_seed = room.seed ^ 0x15C;
  return spec;
}

/// A test's last word on its rig: the checker's final sweep
/// (`end_of_run(false)`: a test stops its room mid-job, so pending events
/// are no leak) finds no violation.
inline ::testing::AssertionResult clean_end_of_run(tools::CellRig& rig) {
  rig.inv->end_of_run(/*expect_quiesced=*/false);
  if (rig.inv->ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << rig.inv->report();
}

/// Every node the Fabric's ledger gives to some VC, in id order.
inline std::vector<hw::NodeId> vc_held_nodes(const hw::Fabric& fabric) {
  std::vector<hw::NodeId> out;
  for (hw::NodeId n = 0; n < fabric.node_count(); ++n) {
    if (fabric.node(n).vc() != 0) out.push_back(n);
  }
  return out;
}

/// Sealed sets the store still files under `label`. A VC's label names
/// only its own sets, so none is left once the VC is destroyed.
inline std::size_t sealed_sets(const storage::ImageManager& images,
                               const std::string& label) {
  std::size_t n = 0;
  for (const storage::CheckpointSet* s : images.sets_with_label(label)) {
    n += s->sealed ? 1 : 0;
  }
  return n;
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
