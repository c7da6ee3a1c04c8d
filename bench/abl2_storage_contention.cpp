// A2 — ablation: the shared store bounds checkpoint cost. N guests saving
// simultaneously share the store's write bandwidth, so the whole-cluster
// save takes ~N x the single-guest time — the §1 requirement of "a
// reliable storage system" is also the scalability bottleneck of LSC.

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

double run(std::uint32_t vms, double write_bps, std::uint64_t guest_ram) {
  const core::MachineRoomOptions opt =
      paper_substrate(vms, 5150 + vms, write_bps);
  core::MachineRoom room(opt);
  const tools::CheckerPtr inv = tools::attach_checker(room);
  core::VcSpec spec;
  spec.size = vms;
  spec.guest.ram_bytes = guest_ram;
  core::VirtualCluster& vc =
      room.dvc->create_vc(spec, *room.dvc->pick_nodes(vms), {});
  room.sim.run_until(20 * sim::kSecond);

  ckpt::NtpLscCoordinator lsc(room.sim, {}, sim::Rng(opt.seed));
  lsc.set_check(inv.get());
  std::optional<ckpt::LscResult> result;
  room.dvc->checkpoint_vc(vc, lsc, [&](ckpt::LscResult r) { result = r; });
  while (!result) room.sim.run_until(room.sim.now() + sim::kSecond);
  tools::check_trial(*inv, "abl2_storage_contention",
                     std::to_string(vms) + " VMs, " + fmt(write_bps / 1e6, 0) +
                         " MB/s");
  return sim::to_seconds(result->total_time);
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A2: whole-cluster save time vs. shared store bandwidth\n");
  std::printf("    (1 GiB guests, idle cluster)\n");

  constexpr std::uint64_t kRam = 1ull << 30;
  const std::uint32_t vm_counts[] = {4, 8, 16, 26};
  const double bandwidths[] = {50e6, 100e6, 200e6, 400e6};

  TextTable table({"store MB/s", "VMs", "ckpt time (s)",
                   "single-guest time (s)", "contention factor"});
  for (const double bw : bandwidths) {
    for (const std::uint32_t vms : vm_counts) {
      const double total_s = run(vms, bw, kRam);
      const double single_s = static_cast<double>(kRam) / bw;
      table.add_row({fmt(bw / 1e6, 0), std::to_string(vms),
                     fmt(total_s, 1), fmt(single_s, 1),
                     fmt(total_s / single_s, 2)});
    }
  }
  table.print("A2  save time scales with guests / bandwidth");
  std::printf("the contention factor tracks the VM count: the store, not\n"
              "the coordination, is LSC's scaling cost.\n");

  return 0;
}
