// Batch scheduling with DVC underneath (paper §4: "integration with
// resource managers and schedulers like Torque and Moab").
//
// Users submit MPI workloads to an ordinary batch scheduler. For every
// job the VirtualJobRunner provisions a virtual cluster on the allocated
// nodes, runs the workload inside, and protects it with periodic LSC
// checkpoints. When a node dies mid-job, DVC recovers the virtual cluster
// onto spare nodes — the scheduler never even marks the job failed
// (paper §1: the RM keeps scheduling "by using virtualized remote nodes").
// The invariant checker watches the whole run; on any violation the
// example prints the checker's report and exits non-zero.
//
//   ./examples/batch_scheduler

#include <cstdio>
#include <string>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/lsc.hpp"
#include "core/job_runner.hpp"
#include "core/machine_room.hpp"
#include "rm/scheduler.hpp"

using namespace dvc;  // NOLINT — example brevity

int main() {
  core::MachineRoomOptions opt;
  opt.clusters = 2;
  opt.nodes_per_cluster = 10;
  opt.seed = 77;
  opt.store.write_bps = 400e6;
  opt.store.read_bps = 800e6;
  core::MachineRoom room(opt);
  room.trace.set_echo(true);  // narrate the machine room's own log
  room.trace.set_min_level(sim::TraceLevel::kInfo);

  rm::Scheduler::Config cfg;
  cfg.auto_run = false;                   // the runner drives completion
  cfg.allow_spanning = true;              // VCs may cross clusters
  cfg.mold_oversized = false;             // MPI jobs are rigid
  cfg.fail_jobs_on_node_failure = false;  // DVC recovers beneath the RM
  cfg.easy_backfill = true;
  rm::Scheduler scheduler(room.sim, room.fabric, cfg);
  core::VirtualJobRunner runner(room.sim, scheduler, *room.dvc);

  ckpt::NtpLscCoordinator lsc(room.sim, {}, sim::Rng(77));
  check::Invariants inv(check::Invariants::Wiring{
      &room.sim, room.dvc.get(), &room.images, &room.fence, &room.metrics});
  inv.attach();
  lsc.set_check(&inv);
  core::VirtualJobRunner::Reliability rel;
  rel.coordinator = &lsc;
  rel.interval = 60 * sim::kSecond;
  runner.set_reliability(rel);

  vm::GuestConfig guest;
  guest.ram_bytes = 128ull << 20;

  // A small queue: two wide jobs and two narrow ones (backfill fodder).
  struct Submission {
    app::RankId ranks;
    std::uint32_t iters;
  };
  const Submission queue[] = {{8, 1200}, {12, 1800}, {4, 450}, {6, 750}};
  int finished = 0;
  for (const Submission& s : queue) {
    app::WorkloadSpec w;
    w.name = "job-" + std::to_string(s.ranks) + "x" +
             std::to_string(s.iters);
    w.ranks = s.ranks;
    w.iterations = s.iters;
    w.flops_per_rank_iter = 1e9;  // ~0.1 s per iteration
    w.pattern = app::Pattern::kTreeBroadcast;
    w.bytes_per_msg = 1 << 20;
    runner.submit(w, guest, 0, [&finished, name = w.name](bool ok) {
      std::printf(">>> %s %s\n", name.c_str(),
                  ok ? "completed" : "abandoned");
      ++finished;
    });
  }

  // Mid-run, a node hosting one of the wide jobs dies.
  room.sim.schedule_after(80 * sim::kSecond, [&] {
    room.fabric.fail_node(3);
  });
  room.sim.schedule_after(30 * sim::kMinute, [&] {
    room.fabric.repair_node(3);
  });

  while (finished < 4 && room.sim.now() < 4 * sim::kHour) {
    room.sim.run_until(room.sim.now() + 10 * sim::kSecond);
  }

  std::printf("\n==== scheduler summary ====\n");
  std::printf("completed: %llu   failed: %llu   backfilled: %llu\n",
              static_cast<unsigned long long>(scheduler.completed()),
              static_cast<unsigned long long>(scheduler.failed()),
              static_cast<unsigned long long>(scheduler.backfilled()));
  std::printf("mean wait: %.0f s   busy node-hours: %.1f\n",
              scheduler.wait_stats().mean(),
              scheduler.busy_node_seconds() / 3600.0);
  std::printf("DVC: %llu checkpoints, %llu recoveries\n",
              static_cast<unsigned long long>(room.dvc->checkpoints_taken()),
              static_cast<unsigned long long>(
                  room.dvc->recoveries_performed()));
  inv.end_of_run(/*expect_quiesced=*/false);
  inv.detach();
  if (!inv.ok()) {
    std::printf("\n==== invariant violations ====\n%s", inv.report().c_str());
    return 1;
  }
  return scheduler.completed() == 4 ? 0 : 1;
}
