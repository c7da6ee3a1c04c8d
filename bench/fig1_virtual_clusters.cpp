// F1 — the paper's figure 1: virtual clusters map onto physical clusters
// flexibly — the whole cluster, a subset, or a span across clusters — and
// the mapping may change completely between instantiations ("a 32 node
// virtual cluster may run on a particular 32 physical nodes in one
// instance, and on a completely separate set at the next").
//
// This bench provisions each mapping on a 2 x 32-node machine room and
// reports where the members landed and what provisioning cost.

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Mapping {
  std::uint32_t size = 0;
  std::set<hw::NodeId> nodes;
  std::uint32_t in_cluster0 = 0;
  std::uint32_t in_cluster1 = 0;
  bool spans = false;
  double provision_s = 0.0;
};

Mapping provision(core::MachineRoom& room, std::uint32_t size) {
  core::VcSpec spec;
  spec.name = "fig1";
  spec.size = size;
  spec.guest.ram_bytes = 256ull << 20;
  const auto placement = room.dvc->pick_nodes(size);
  Mapping m;
  m.size = size;
  if (!placement) return m;
  const sim::Time t0 = room.sim.now();
  bool ready = false;
  core::VirtualCluster& vc =
      room.dvc->create_vc(spec, *placement, [&] { ready = true; });
  while (!ready) room.sim.run_until(room.sim.now() + sim::kSecond);
  m.provision_s = sim::to_seconds(room.sim.now() - t0);
  for (const hw::NodeId n : vc.placements()) {
    m.nodes.insert(n);
    if (room.fabric.node(n).cluster() == 0) {
      ++m.in_cluster0;
    } else {
      ++m.in_cluster1;
    }
  }
  m.spans = vc.spans_clusters(room.fabric);
  room.dvc->destroy_vc(vc);
  return m;
}

std::size_t overlap(const Mapping& a, const Mapping& b) {
  std::size_t n = 0;
  for (const auto node : a.nodes) n += b.nodes.count(node);
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  core::MachineRoomOptions opt;
  opt.clusters = 2;
  opt.nodes_per_cluster = 32;
  opt.seed = 11;
  core::MachineRoom room(opt);
  const tools::CheckerPtr inv = tools::attach_checker(room);

  std::printf("F1: dynamic virtual cluster mappings on 2 physical clusters"
              " of 32 nodes\n");

  TextTable table({"mapping", "vc size", "cluster0", "cluster1", "spans",
                   "provision (s)"});

  const auto add = [&](const char* name, const Mapping& m) {
    table.add_row({name, std::to_string(m.size),
                   std::to_string(m.in_cluster0),
                   std::to_string(m.in_cluster1), m.spans ? "yes" : "no",
                   fmt(m.provision_s, 1)});
  };

  // (a) VC the size of a whole physical cluster.
  add("whole-cluster", provision(room, 32));
  // (b) VC on a subset of one cluster.
  add("subset", provision(room, 8));
  // (c) VC bigger than any one cluster: spans both.
  add("spanning", provision(room, 48));

  // (d) Remapping across instantiations: the same 16-node VC lands on a
  // completely different physical set once another tenant holds its old
  // nodes.
  const Mapping first = provision(room, 16);
  // A tenant VC claims (at least) the nodes the first instantiation used.
  core::VcSpec tenant_spec;
  tenant_spec.name = "tenant";
  tenant_spec.size = 16;
  tenant_spec.guest.ram_bytes = 256ull << 20;
  std::vector<hw::NodeId> tenant_nodes(first.nodes.begin(),
                                       first.nodes.end());
  core::VirtualCluster& tenant =
      room.dvc->create_vc(tenant_spec, tenant_nodes, {});
  room.sim.run_until(room.sim.now() + 20 * sim::kSecond);
  const Mapping second = provision(room, 16);
  room.dvc->destroy_vc(tenant);

  add("remap/first", first);
  add("remap/second", second);
  const std::size_t shared = overlap(first, second);
  std::printf("\nremapped 16-node VC: %zu/%u physical nodes shared between"
              " instantiations (paper: may be completely separate)\n",
              shared, 16u);
  tools::check_trial(*inv, "fig1_virtual_clusters", "all mappings");

  table.print("F1  virtual-to-physical mappings");

  return 0;
}
