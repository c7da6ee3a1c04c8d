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

constexpr const char* kProgram = "tab3_virt_overhead";

double run_native(const app::WorkloadSpec& workload, std::uint64_t seed) {
  core::MachineRoomOptions opt;
  opt.nodes_per_cluster = workload.ranks;
  opt.seed = seed;
  core::MachineRoom room(opt);
  const tools::CheckerPtr inv = tools::attach_checker(room);
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
  tools::check_trial(*inv, kProgram, "native " + workload.name);
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
  tools::CellRig rig(vc_cell(opt, /*guest_ram=*/512ull << 20, workload));
  rig.room.sim.run();
  tools::check_trial(*rig.inv, kProgram, "virtual " + workload.name);
  VirtualRun out;
  // The cluster is provisioned once its slowest guest has booted.
  out.provision_s = rig.room.metrics.find_histogram("vm.hypervisor.boot_s")
                        ->summary()
                        .max();
  out.makespan_s = rig.application->stats().makespan_s;
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
