// T7 — the paper's watchdog observation (§3.2): "a software watchdog timer
// was enabled in all virtual machines. Each save and restoration of a
// virtual machine caused a watchdog timeout to be reported. Although this
// did not affect the execution of the environment, it did cause a large
// number of kernel messages to accumulate."
//
// We run repeated checkpoint cycles and count watchdog reports and kernel
// messages per guest, sweeping the watchdog period against the freeze
// duration to show the threshold.

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Outcome {
  int cycles = 0;
  double timeouts_per_vm = 0.0;
  double kernel_msgs_per_vm = 0.0;
  double freeze_s = 0.0;
  bool app_alive = false;
};

Outcome run(sim::Duration watchdog_period, int cycles,
            double disk_slow_factor = 0.0) {
  const std::uint32_t ranks = 4;
  tools::CellSpec spec = vc_cell(paper_substrate(ranks, 66),
                                 /*guest_ram=*/1ull << 30,
                                 steady_ptrans(ranks, 100000));
  spec.vc.guest.watchdog_period = watchdog_period;
  spec.lsc_seed = 66;
  // Optional injected disk slowdown from the job's start: a degraded store
  // stretches each save, so freezes — and watchdog reports — grow.
  if (disk_slow_factor > 1.0) {
    fault::FaultEvent slow;
    slow.kind = fault::FaultKind::kDiskSlow;
    slow.factor = disk_slow_factor;
    slow.down_for = 100000 * sim::kSecond;  // outlasts every cycle
    spec.faults.emplace().add(slow);
  }
  tools::CellRig rig(spec);
  core::MachineRoom& room = rig.room;
  core::VirtualCluster& vc = *rig.vc;

  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::optional<ckpt::LscResult> result;
    room.dvc->checkpoint_vc(vc, *rig.lsc,
                            [&](ckpt::LscResult r) { result = r; });
    while (!result) room.sim.run_until(room.sim.now() + sim::kSecond);
    room.sim.run_until(room.sim.now() + 10 * sim::kSecond);
  }

  Outcome out;
  out.cycles = cycles;
  double timeouts = 0.0;
  double msgs = 0.0;
  for (std::uint32_t i = 0; i < ranks; ++i) {
    timeouts += static_cast<double>(vc.machine(i).watchdog_timeouts());
    msgs += static_cast<double>(vc.machine(i).kernel_messages_total());
  }
  out.timeouts_per_vm = timeouts / ranks;
  out.kernel_msgs_per_vm = msgs / ranks;
  out.freeze_s = sim::to_seconds(vc.machine(0).total_frozen()) / cycles;
  out.app_alive = !rig.application->failed();
  tools::check_trial(*rig.inv, "tab7_watchdog",
                     std::to_string(watchdog_period / sim::kSecond) +
                         " s watchdog, disk slowdown " +
                         fmt(disk_slow_factor, 0) + "x");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T7: guest watchdog reports across save/restore cycles\n");
  std::printf("    (4 x 1 GiB guests, 100 MB/s store: ~43 s freeze/cycle)\n");

  TextTable table({"watchdog period", "ckpt cycles", "timeouts/vm",
                   "kernel msgs/vm", "freeze s/cycle", "app unaffected"});
  const sim::Duration periods[] = {10 * sim::kSecond, 60 * sim::kSecond,
                                   600 * sim::kSecond};
  const auto add = [&](const std::string& label, const Outcome& o) {
    table.add_row({label, std::to_string(o.cycles), fmt(o.timeouts_per_vm, 1),
                   fmt(o.kernel_msgs_per_vm, 1), fmt(o.freeze_s, 1),
                   o.app_alive ? "yes" : "NO"});
  };
  for (const sim::Duration p : periods) {
    add(std::to_string(p / sim::kSecond) + " s", run(p, /*cycles=*/5));
  }
  // Fault-injection row: an 8x disk slowdown stretches the ~46 s freeze to
  // ~347 s, so the 60 s watchdog — quiet in the clean sweep — now trips on
  // every cycle.
  add("60 s + 8x disk slowdown",
      run(60 * sim::kSecond, /*cycles=*/5, /*disk_slow_factor=*/8.0));

  table.print("T7  watchdog timeouts vs. watchdog period");
  std::printf("paper: one report per save/restore when the freeze exceeds\n"
              "the watchdog period; execution is unaffected either way.\n");

  return 0;
}
