// A7 — ablation (extension): incremental whole-guest checkpoints. A full
// VM-level image always writes the entire guest RAM (the cost T4/T5
// charge DVC for); tracking dirty pages lets intermediate checkpoints
// write only what changed since the last image, at the price of staging a
// longer chain on restore. This is the classic answer to "VM-level
// checkpoints are too big" — and it shrinks with the checkpoint interval,
// while full checkpoints do not.

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr std::uint32_t kRanks = 8;
constexpr std::uint64_t kRam = 1ull << 30;

struct Outcome {
  double runtime_s = 0.0;
  int checkpoints = 0;
  double gib_written = 0.0;
  double restore_s = 0.0;
  bool completed = false;
};

Outcome run(bool incremental, sim::Duration interval, double dirty_bps,
            std::uint64_t seed) {
  tools::CellSpec spec =
      vc_cell(paper_substrate(kRanks + 4, seed), kRam,
              steady_ptrans(kRanks, 3000, 0.5));  // ~1550 s useful compute
  spec.vc.guest.dirty_rate_bps = dirty_bps;
  spec.lsc_seed = seed ^ 0xF0;
  spec.recovery.interval = interval;
  spec.recovery.incremental = incremental;
  spec.recovery.full_every = 6;
  spec.recovery.keep_checkpoints = 1;
  tools::CellRig rig(spec);
  rig.start_recovery();
  core::MachineRoom& room = rig.room;
  core::VirtualCluster& vc = *rig.vc;

  const std::uint64_t written_before = room.store.bytes_written_total();
  const sim::Duration ran = run_job(rig, 3 * sim::kHour);
  const double written = static_cast<double>(
      room.store.bytes_written_total() - written_before);

  Outcome out;
  out.completed = rig.application->completed();
  out.runtime_s = sim::to_seconds(ran);
  out.checkpoints = static_cast<int>(room.dvc->checkpoints_taken());

  // Time one restore from the newest chain.
  if (vc.has_checkpoint()) {
    const sim::Time t0 = room.sim.now();
    std::optional<bool> ok;
    room.dvc->restore_vc(vc, vc.placements(),
                         [&](bool r) { ok = r; });
    while (!ok) room.sim.run_until(room.sim.now() + sim::kSecond);
    out.restore_s = sim::to_seconds(room.sim.now() - t0);
  }
  out.gib_written = written / static_cast<double>(1ull << 30);
  tools::check_trial(*rig.inv, "abl7_incremental",
                     (incremental ? "incremental, " : "full, ") +
                         std::to_string(interval / sim::kSecond) + " s");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A7: full vs. incremental VM-level checkpoints\n");
  std::printf("    (8 x 1 GiB guests, 10 MB/s dirty rate, full image every"
              " 6th round)\n");

  TextTable table({"mode", "interval", "runtime (s)", "ckpts",
                   "ckpt data (GiB)", "restore (s)", "completed"});
  const sim::Duration intervals[] = {300 * sim::kSecond,
                                     150 * sim::kSecond};
  for (const sim::Duration interval : intervals) {
    for (const bool inc : {false, true}) {
      const Outcome o = run(inc, interval, 10e6, 777);
      table.add_row({inc ? "incremental" : "full",
                     std::to_string(interval / sim::kSecond) + " s",
                     fmt(o.runtime_s, 0), std::to_string(o.checkpoints),
                     fmt(o.gib_written, 1), fmt(o.restore_s, 1),
                     o.completed ? "yes" : "NO"});
    }
  }
  table.print("A7  incremental checkpoints cut the dilation");
  std::printf("full images freeze guests for RAM/bandwidth every round;\n"
              "incrementals freeze only for the dirtied fraction, so the\n"
              "job finishes sooner at the same protection level. Restores\n"
              "pay the chain back.\n");

  return 0;
}
