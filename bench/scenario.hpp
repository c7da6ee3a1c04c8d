#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "app/workload.hpp"
#include "core/machine_room.hpp"
#include "tools/sweep.hpp"

namespace dvc::bench {

/// A virtual cluster of `workload.ranks` guests running `workload` on a
/// fresh machine room, the invariant checker attached: the standard
/// starting state of the paper's checkpoint experiments, built by
/// `tools::CellRig`.
[[nodiscard]] inline tools::CellSpec vc_cell(core::MachineRoomOptions room,
                                             std::uint64_t guest_ram,
                                             app::WorkloadSpec workload,
                                             net::ReliableConfig transport =
                                                 {}) {
  tools::CellSpec spec;
  spec.room = room;
  spec.vc.size = workload.ranks;
  spec.vc.guest.ram_bytes = guest_ram;
  spec.workload = std::move(workload);
  spec.transport = transport;
  return spec;
}

/// Checkpoints the rig's VC with `lsc` 2 s from now, then runs one second
/// at a time until the round has reported and either the application has
/// died or `grace` (longer than the transport's retry budget) has passed
/// without an abort, or until `horizon`. Returns the round's result.
inline std::optional<ckpt::LscResult> checkpoint_and_settle(
    tools::CellRig& rig, ckpt::LscCoordinator& lsc, sim::Duration grace,
    sim::Time horizon = 1500 * sim::kSecond) {
  sim::Simulation& sim = rig.room.sim;
  std::optional<ckpt::LscResult> result;
  sim.schedule_after(2 * sim::kSecond, [&] {
    rig.room.dvc->checkpoint_vc(*rig.vc, lsc,
                                [&](ckpt::LscResult r) { result = r; });
  });
  sim::Time decided = 0;
  while (sim.now() < horizon) {
    sim.run_until(sim.now() + sim::kSecond);
    if (!result.has_value()) continue;
    if (decided == 0) decided = sim.now();
    if (rig.application->failed() || sim.now() - decided > grace) break;
  }
  return result;
}

/// Drives the rig in 5 s slices until its job completes, its recovery is
/// abandoned or `limit` has passed; returns how long it ran.
inline sim::Duration run_job(tools::CellRig& rig, sim::Duration limit) {
  const sim::Time started = rig.room.sim.now();
  rig.drive(started + limit, 5 * sim::kSecond, 0);
  return rig.room.sim.now() - started;
}

/// Communication-steady PTRANS-like load (one all-to-all round every
/// ~`iter_seconds`), sized so a frozen peer is noticed within one round.
[[nodiscard]] inline app::WorkloadSpec steady_ptrans(app::RankId ranks,
                                                     std::uint32_t iters,
                                                     double iter_seconds =
                                                         0.1) {
  app::WorkloadSpec s;
  s.name = "steady-ptrans";
  s.ranks = ranks;
  s.iterations = iters;
  s.flops_per_rank_iter = iter_seconds * 1e10;  // vs 10 GFLOP/s nodes
  s.pattern = app::Pattern::kAllToAll;
  s.bytes_per_msg = 4096;
  s.working_set_bytes_per_rank = 64ull << 20;
  return s;
}

/// HPL-like load with the same steady pacing but broadcast traffic.
[[nodiscard]] inline app::WorkloadSpec steady_hpl(app::RankId ranks,
                                                  std::uint32_t iters,
                                                  double iter_seconds =
                                                      0.1) {
  app::WorkloadSpec s = app::make_hpl(8192, ranks, iters);
  s.name = "steady-hpl";
  s.flops_per_rank_iter = iter_seconds * 1e10;
  s.bytes_per_msg = 65536;
  return s;
}

/// The 2007-era substrate of the paper's testbed: 1 GiB guests imaged to
/// a ~100 MB/s NFS store (reads twice as fast), so whole-cluster saves
/// freeze guests for far longer than any transport retry budget.
[[nodiscard]] inline core::MachineRoomOptions paper_substrate(
    std::uint32_t nodes, std::uint64_t seed, double write_bps = 100e6) {
  core::MachineRoomOptions o;
  o.nodes_per_cluster = nodes;
  o.seed = seed;
  o.store.write_bps = write_bps;
  o.store.read_bps = 2 * write_bps;
  return o;
}

/// MPI-over-TCP retry budget calibrated to the paper's observed naive-LSC
/// knee (~12.6 s: fails at 10 nodes half the time, at 12 nearly always).
[[nodiscard]] inline net::ReliableConfig calibrated_transport() {
  net::ReliableConfig t;
  t.initial_rto = 200 * sim::kMillisecond;
  t.backoff = 2.0;
  t.max_retries = 5;
  return t;
}

}  // namespace dvc::bench
