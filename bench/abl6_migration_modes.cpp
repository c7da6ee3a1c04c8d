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
#include <optional>

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

core::MachineRoomOptions make_opts(std::uint64_t seed) {
  core::MachineRoomOptions o;
  o.clusters = 2;
  o.nodes_per_cluster = kRanks;
  o.seed = seed;
  o.store.write_bps = 100e6;
  o.store.read_bps = 200e6;
  return o;
}

Outcome run(bool live, double dirty_rate_bps, std::uint64_t seed) {
  core::MachineRoom room(make_opts(seed));
  core::VcSpec spec;
  spec.size = kRanks;
  spec.guest.ram_bytes = kRam;
  spec.guest.dirty_rate_bps = dirty_rate_bps;
  core::VirtualCluster& vc =
      room.dvc->create_vc(spec, *room.dvc->pick_nodes(kRanks), {});
  room.sim.run_until(20 * sim::kSecond);
  app::ParallelApp application(room.sim, room.fabric.network(),
                               vc.contexts(),
                               steady_ptrans(kRanks, 100000, 0.1));
  room.dvc->attach_app(vc, application);
  application.start();
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
  // Outlives the run loop: the migration's save round calls back into the
  // coordinator long after migrate_vc returns.
  std::optional<ckpt::NtpLscCoordinator> lsc;
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
    lsc.emplace(room.sim, ckpt::NtpLscCoordinator::Config{},
                sim::Rng(seed ^ 0x9C));
    room.dvc->migrate_vc(vc, *lsc, targets, [&](bool) { finished = true; });
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
