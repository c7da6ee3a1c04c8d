// T4 — "measurements ... of the time required by a parallel save and
// restore" (§3.2): HPL runs on a 26-VM virtual cluster with periodic
// NTP-LSC checkpoints at several problem sizes and checkpoint intervals;
// we report the runtime dilation versus the checkpoint-free baseline and
// the cost of one coordinated save and one whole-cluster restore.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr std::uint32_t kRanks = 26;

struct RunResult {
  double makespan_s = 0.0;
  int checkpoints = 0;
  double mean_save_s = 0.0;
  double restore_s = 0.0;
};

RunResult run(std::uint64_t n, sim::Duration interval, std::uint64_t seed) {
  tools::CellSpec spec =
      vc_cell(paper_substrate(32, seed), /*guest_ram=*/512ull << 20,
              app::make_hpl(n, kRanks, /*iterations=*/64));
  spec.lsc_seed = seed ^ 0xC4;
  spec.recovery.interval = interval;
  tools::CellRig rig(spec);
  core::MachineRoom& room = rig.room;

  RunResult out;
  if (interval > 0) rig.start_recovery();
  run_job(rig, 4 * sim::kHour);
  // Headline numbers come from the room-wide metrics registry: the control
  // plane counts every coordinated checkpoint into `core.dvc.checkpoints`,
  // and the store observes each image write into `storage.store.write_s`
  // (the per-checkpoint cost is dominated by streaming kRanks guests
  // through the contended shared store).
  const telemetry::MetricsRegistry& m = room.metrics;
  out.makespan_s = rig.application->stats().makespan_s;
  out.checkpoints = static_cast<int>(m.counter_value("core.dvc.checkpoints"));
  if (out.checkpoints > 0) {
    if (const auto* w = m.find_histogram("storage.store.write_s")) {
      out.mean_save_s = w->summary().mean();
    }
  }

  // One whole-cluster restore from the last checkpoint; the manager times
  // it into the `core.dvc.restore_s` histogram.
  if (interval > 0 && rig.vc->has_checkpoint()) {
    std::optional<bool> restored;
    room.dvc->restore_vc(*rig.vc, rig.vc->placements(),
                         [&](bool ok) { restored = ok; });
    while (!restored) room.sim.run_until(room.sim.now() + sim::kSecond);
    if (const auto* r = m.find_histogram("core.dvc.restore_s")) {
      out.restore_s = r->summary().mean();
    }
  }
  tools::check_trial(*rig.inv, "tab4_ckpt_overhead",
                     "hpl n=" + std::to_string(n) + ", interval " +
                         std::to_string(interval / sim::kSecond) + " s");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T4: checkpoint overhead — HPL on 26 VMs, 512 MiB guests,\n");
  std::printf("    NTP-LSC every T seconds against a 100 MB/s store\n");

  const std::uint64_t sizes[] = {65536, 98304};
  const sim::Duration intervals[] = {0, 1200 * sim::kSecond,
                                     600 * sim::kSecond,
                                     300 * sim::kSecond};

  TextTable table({"hpl n", "ckpt interval", "runtime (s)", "ckpts",
                   "slowdown", "save (s, mean img)", "restore (s)"});
  for (const std::uint64_t n : sizes) {
    double baseline = 0.0;
    for (const sim::Duration interval : intervals) {
      const RunResult r = run(n, interval, 31 + n);
      if (interval == 0) baseline = r.makespan_s;
      const double slowdown =
          baseline > 0 ? r.makespan_s / baseline - 1.0 : 0.0;
      table.add_row({std::to_string(n),
                     interval == 0
                         ? "none"
                         : std::to_string(interval / sim::kSecond) + " s",
                     fmt(r.makespan_s, 1), std::to_string(r.checkpoints),
                     interval == 0 ? "--" : fmt_pct(slowdown),
                     interval == 0 ? "--" : fmt(r.mean_save_s, 1),
                     interval == 0 ? "--" : fmt(r.restore_s, 1)});
    }
  }
  table.print("T4  runtime dilation vs. checkpoint interval");
  std::printf("paper context: 'Both PTRANS and HPL reported a decreased\n"
              "speed in execution time due to the checkpoint.'\n");

  return 0;
}
