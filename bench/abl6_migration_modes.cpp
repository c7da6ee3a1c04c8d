// A6 — ablation: how should a virtual cluster move? The paper's §4 names
// parallel migration as the next step; this bench compares the two
// implemented mechanisms:
//   * checkpoint migration (LSC save-and-hold + restore): guests frozen
//     for the whole save+stage+restore;
//   * pre-copy live migration (extension): guests run while memory
//     streams; each pauses only for its final residual.
// Pre-copy trades extra bytes on the wire for orders of magnitude less
// downtime — until the dirtying rate approaches the per-guest bandwidth
// share, where it degenerates toward stop-and-copy.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr std::uint32_t kRanks = 6;
constexpr std::uint64_t kRam = 512ull << 20;

struct Outcome {
  double downtime_s = 0.0;      ///< worst per-guest freeze
  double total_s = 0.0;         ///< migration wall time
  double data_gib = 0.0;        ///< bytes moved
  std::uint32_t iters_during = 0;  ///< app progress while migrating
  bool app_failed = false;
};

Outcome run(bool live, double dirty_rate_bps, std::uint64_t seed) {
  tools::CellSpec spec = vc_cell(paper_substrate(kRanks, seed), kRam,
                                 steady_ptrans(kRanks, 100000, 0.1));
  spec.room.clusters = 2;
  spec.vc.guest.dirty_rate_bps = dirty_rate_bps;
  spec.lsc_seed = seed ^ 0x9C;
  tools::CellRig rig(spec);
  core::MachineRoom& room = rig.room;
  core::VirtualCluster& vc = *rig.vc;
  app::ParallelApp& application = *rig.application;
  room.sim.run_until(room.sim.now() + 5 * sim::kSecond);

  const std::uint32_t iter_before = application.rank(0).state().iter;
  const sim::Duration frozen_before = vc.machine(0).total_frozen();
  const sim::Time t0 = room.sim.now();
  std::vector<hw::NodeId> targets;
  for (std::uint32_t i = 0; i < kRanks; ++i) {
    targets.push_back(kRanks + i);  // the second cluster
  }

  Outcome out;
  bool finished = false;
  if (live) {
    core::DvcManager::LiveMigrationConfig cfg;
    cfg.bandwidth_bps = 250e6;
    room.dvc->live_migrate_vc(
        vc, targets, cfg, [&](core::DvcManager::LiveMigrationStats s) {
          finished = true;
          out.downtime_s = sim::to_seconds(s.max_downtime);
          out.total_s = sim::to_seconds(s.total_time);
          out.data_gib = s.bytes_moved / (1ull << 30);
        });
  } else {
    room.dvc->migrate_vc(vc, *rig.lsc, targets,
                         [&](bool) { finished = true; });
  }
  while (!finished && room.sim.now() - t0 < sim::kHour) {
    room.sim.run_until(room.sim.now() + sim::kSecond);
  }
  if (!live) {
    out.total_s = sim::to_seconds(room.sim.now() - t0);
    out.downtime_s =
        sim::to_seconds(vc.machine(0).total_frozen() - frozen_before);
    out.data_gib = static_cast<double>(kRam) * kRanks * 2 / (1ull << 30);
  }
  // Progress made by the app from migration start until 30 s after.
  room.sim.run_until(room.sim.now() + 30 * sim::kSecond);
  out.iters_during = application.rank(0).state().iter - iter_before;
  out.app_failed = application.failed();
  tools::check_trial(*rig.inv, "abl6_migration_modes",
                     std::string(live ? "live" : "checkpoint") + ", " +
                         fmt(dirty_rate_bps / 1e6, 0) + " MB/s dirty");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A6: checkpoint migration vs. pre-copy live migration\n");
  std::printf("    (6 x 512 MiB guests moving across clusters)\n");

  TextTable table({"mechanism", "guest dirty rate", "downtime (s)",
                   "total (s)", "data moved (GiB)", "app iters during+30s",
                   "app ok"});

  struct Case {
    const char* name;
    bool live;
    double dirty;
  };
  const Case cases[] = {
      {"checkpoint (LSC)", false, 10e6},
      {"pre-copy live", true, 5e6},
      {"pre-copy live", true, 10e6},
      {"pre-copy live", true, 25e6},
      {"pre-copy live", true, 40e6},  // ~ per-guest bandwidth share
  };
  for (const Case& c : cases) {
    const Outcome o = run(c.live, c.dirty, 808);
    table.add_row({c.name, fmt(c.dirty / 1e6, 0) + " MB/s",
                   fmt(o.downtime_s), fmt(o.total_s, 1), fmt(o.data_gib),
                   std::to_string(o.iters_during),
                   o.app_failed ? "FAILED" : "yes"});
  }
  table.print("A6  migration mechanism trade-off");
  std::printf("checkpoint migration freezes guests for the whole move;\n"
              "pre-copy keeps them computing and pauses each for its\n"
              "residual only — until dirtying outruns the bandwidth share.\n");

  return 0;
}
