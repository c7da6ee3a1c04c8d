// T6 — the paper's wall-clock observation (§3.2): "Since time was not
// virtualized in any virtual machine, the jump in wall time due to the
// checkpoint caused HPL to report a greatly increased execution time."
// We run HPL with one mid-run checkpoint, with and without guest time
// virtualisation (the implied fix, implemented as a GuestConfig option),
// and compare what the application's own clock reports against the truth.

#include <cstdio>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Outcome {
  double true_makespan_s = 0.0;
  double reported_s = 0.0;
  double reported_gflops = 0.0;
  double frozen_s = 0.0;
};

Outcome run(bool virtualize_time) {
  const std::uint32_t ranks = 8;
  // HPL sized for ~90 s of real compute.
  tools::CellSpec spec = vc_cell(paper_substrate(ranks, 55),
                                 /*guest_ram=*/1ull << 30,
                                 app::make_hpl(32768, ranks));
  spec.vc.guest.virtualize_time = virtualize_time;
  spec.lsc_seed = 55;
  tools::CellRig rig(spec);
  core::MachineRoom& room = rig.room;
  core::VirtualCluster& vc = *rig.vc;
  room.sim.schedule_after(30 * sim::kSecond, [&] {
    room.dvc->checkpoint_vc(vc, *rig.lsc, {});
  });
  room.sim.run();
  tools::check_trial(*rig.inv, "tab6_walltime_jump",
                     virtualize_time ? "virtualised time" : "host time");

  Outcome out;
  const app::JobStats st = rig.application->stats();
  out.true_makespan_s = st.makespan_s;
  out.reported_s = st.reported_elapsed_s;
  out.reported_gflops = st.reported_gflops;
  out.frozen_s = sim::to_seconds(vc.machine(0).total_frozen());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T6: guest wall-clock jump across a checkpoint (HPL's own"
              " timing)\n");

  TextTable table({"guest time", "true runtime (s)", "HPL-reported (s)",
                   "HPL-reported GFLOP/s", "frozen (s)"});
  for (const bool virt : {false, true}) {
    const Outcome o = run(virt);
    table.add_row({virt ? "virtualised (extension)" : "host time (paper)",
                   fmt(o.true_makespan_s, 1), fmt(o.reported_s, 1),
                   fmt(o.reported_gflops, 1), fmt(o.frozen_s, 1)});
  }
  table.print("T6  reported vs. true execution time");
  std::printf("paper: the non-virtualised guest clock jumps forward by the\n"
              "freeze, so HPL reports a greatly increased execution time\n"
              "(and correspondingly deflated GFLOP/s).\n");

  return 0;
}
