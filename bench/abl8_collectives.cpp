// A8 — ablation (substrate): how the HPL panel broadcast is implemented
// changes what the virtualisation and checkpoint overheads are measured
// against. A flat broadcast serialises P-1 panel copies on the root's
// egress link; a binomial tree finishes in ~log2(P) serialisations. The
// fabric model (per-host egress serialisation) makes the textbook curve
// measurable — and shows the paper-era MPI implementations' tree
// broadcasts were not an optional nicety at 26+ nodes.

#include <cstdio>
#include <memory>
#include <vector>

#include "app/workload.hpp"
#include "bench_util.hpp"
#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "vm/virtual_machine.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

double one_broadcast_seconds(app::Pattern pattern, std::uint32_t ranks,
                             std::uint32_t bytes) {
  sim::Simulation sim;
  hw::Fabric fabric(sim, {});
  fabric.add_cluster("a", ranks);
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms;
  std::vector<vm::ExecutionContext*> contexts;
  vm::GuestConfig cfg;
  cfg.ram_bytes = 1 << 20;
  for (std::uint32_t i = 0; i < ranks; ++i) {
    vms.push_back(std::make_unique<vm::VirtualMachine>(
        sim, fabric.network(), i + 1, cfg));
    vms.back()->place_on(fabric.node(i));
    vms.back()->resume();
    contexts.push_back(vms.back().get());
  }
  app::WorkloadSpec s;
  s.ranks = ranks;
  s.iterations = 1;
  s.flops_per_rank_iter = 1.0;  // the broadcast is the whole job
  s.pattern = pattern;
  s.bytes_per_msg = bytes;
  app::ParallelApp app(sim, fabric.network(), contexts, s);
  app.start();
  sim.run();
  return app.stats().makespan_s;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A8: flat vs. binomial-tree broadcast (the HPL panel move)\n");
  std::printf("    (1 Gbit/s per-host egress links, one panel broadcast)\n");

  TextTable table({"ranks", "panel", "flat (s)", "tree (s)", "speedup"});
  const std::uint32_t rank_counts[] = {4, 8, 16, 26, 32, 64};
  const std::uint32_t panels[] = {1u << 20, 16u << 20};
  for (const std::uint32_t bytes : panels) {
    for (const std::uint32_t p : rank_counts) {
      const double flat =
          one_broadcast_seconds(app::Pattern::kBroadcast, p, bytes);
      const double tree =
          one_broadcast_seconds(app::Pattern::kTreeBroadcast, p, bytes);
      table.add_row({std::to_string(p), fmt_bytes(bytes), fmt(flat, 3),
                     fmt(tree, 3), fmt(flat / tree, 2) + "x"});
    }
  }
  table.print("A8  broadcast algorithm vs. scale");
  std::printf("flat grows linearly in P; the tree's critical path grows\n"
              "logarithmically — already >2x faster at the paper's 26\n"
              "ranks and widening (P / log2 P) from there.\n");

  return 0;
}
