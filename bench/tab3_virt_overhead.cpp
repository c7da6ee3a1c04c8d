// T3 — "measurements of the overhead required for virtual clusters running
// both sequential and parallel jobs" (abstract). The same workloads run
// natively on the physical nodes and inside a DVC virtual cluster; the
// para-virtualised guests pay the Xen CPU tax (§1: next-gen hardware
// support was expected to push this toward zero) plus a one-time
// provisioning cost.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario.hpp"
#include "vm/native_context.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

double run_native(const app::WorkloadSpec& workload, std::uint64_t seed) {
  core::MachineRoomOptions opt;
  opt.nodes_per_cluster = workload.ranks;
  opt.seed = seed;
  core::MachineRoom room(opt);
  std::vector<std::unique_ptr<vm::NativeContext>> owners;
  std::vector<vm::ExecutionContext*> contexts;
  for (std::uint32_t i = 0; i < workload.ranks; ++i) {
    owners.push_back(
        std::make_unique<vm::NativeContext>(room.sim, room.fabric, i));
    contexts.push_back(owners.back().get());
  }
  app::ParallelApp application(room.sim, room.fabric.network(), contexts,
                               workload);
  application.start();
  room.sim.run();
  return application.stats().makespan_s;
}

struct VirtualRun {
  double makespan_s = 0.0;
  double provision_s = 0.0;
};

VirtualRun run_virtual(const app::WorkloadSpec& workload,
                       std::uint64_t seed) {
  core::MachineRoomOptions opt;
  opt.nodes_per_cluster = workload.ranks;
  opt.seed = seed;
  core::MachineRoom room(opt);
  core::VcSpec spec;
  spec.size = workload.ranks;
  spec.guest.ram_bytes = 512ull << 20;
  bool ready = false;
  core::VirtualCluster& vc =
      room.dvc->create_vc(spec, *room.dvc->pick_nodes(workload.ranks),
                          [&] { ready = true; });
  const sim::Time t0 = room.sim.now();
  while (!ready) room.sim.run_until(room.sim.now() + sim::kSecond);
  VirtualRun out;
  out.provision_s = sim::to_seconds(room.sim.now() - t0);
  app::ParallelApp application(room.sim, room.fabric.network(),
                               vc.contexts(), workload);
  room.dvc->attach_app(vc, application);
  application.start();
  room.sim.run();
  out.makespan_s = application.stats().makespan_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T3: native vs. virtual-cluster execution\n");

  struct Case {
    std::string name;
    app::WorkloadSpec workload;
  };
  std::vector<Case> cases;
  cases.push_back({"sequential 1 TFLOP", app::make_sequential(1e12)});
  cases.push_back({"hpl n=8192 p=8", app::make_hpl(8192, 8)});
  cases.push_back({"hpl n=16384 p=8", app::make_hpl(16384, 8)});
  cases.push_back({"ptrans n=8192 p=8", app::make_ptrans(8192, 8)});
  cases.push_back({"ptrans n=16384 p=8", app::make_ptrans(16384, 8)});

  TextTable table({"workload", "native (s)", "virtual (s)", "overhead",
                   "provision (s)"});
  for (const Case& c : cases) {
    const double native_s = run_native(c.workload, 21);
    const VirtualRun virt = run_virtual(c.workload, 21);
    const double overhead = virt.makespan_s / native_s - 1.0;
    table.add_row({c.name, fmt(native_s), fmt(virt.makespan_s),
                   fmt_pct(overhead), fmt(virt.provision_s, 1)});
  }
  table.print("T3  virtualisation overhead (runtime, excl. provisioning)");
  std::printf("paper context: para-virt CPU tax ~3%%; provisioning is a\n"
              "one-time per-job cost of booting the virtual cluster.\n");

  return 0;
}
