// T8 — the paper's §1 claim: "previous work has demonstrated that a system
// that can transparently span parallel jobs between multiple clusters will
// outperform those same clusters acting independently."
//
// MPI jobs are rigid: they run on exactly the node count they were built
// for. Independent clusters must reject jobs larger than themselves and
// strand free nodes behind fragmentation; DVC virtual clusters span the
// physical boundary, so the same batch completes fully and the machine
// room stays busier.

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hw/cluster.hpp"
#include "rm/scheduler.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Outcome {
  double makespan_h = 0.0;
  double mean_wait_min = 0.0;
  double utilisation = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double useful_node_hours = 0.0;
};

struct JobShape {
  std::uint32_t nodes;
  int count;
};

Outcome run(bool spanning, sim::Duration per_job_overhead,
            std::span<const JobShape> shapes, std::uint64_t seed) {
  sim::Simulation sim;
  hw::Fabric fabric(sim, {});
  fabric.add_cluster("east", 32);
  fabric.add_cluster("west", 32);
  rm::Scheduler::Config cfg;
  cfg.allow_spanning = spanning;
  cfg.mold_oversized = false;  // MPI jobs are rigid
  rm::Scheduler sched(sim, fabric, cfg);

  double useful = 0.0;
  sched.set_on_finish([&](const rm::JobRecord& j) {
    if (j.state == rm::JobState::kCompleted) {
      useful += j.request.node_seconds_work;
    }
  });

  sim::Rng rng(seed);
  int submitted = 0;
  for (const JobShape& s : shapes) {
    for (int i = 0; i < s.count; ++i) {
      rm::JobRequest req;
      req.name = "job" + std::to_string(submitted++);
      req.nodes_requested = s.nodes;
      // 10-30 minutes of runtime at the requested width.
      req.node_seconds_work = s.nodes * rng.uniform(600.0, 1800.0);
      req.home_cluster = submitted % 2;
      req.startup_overhead = per_job_overhead;
      sched.submit(req);
    }
  }
  sim.run();

  Outcome out;
  out.makespan_h = sim::to_seconds(sched.last_finish()) / 3600.0;
  out.mean_wait_min = sched.wait_stats().mean() / 60.0;
  out.completed = sched.completed();
  out.rejected = sched.failed();
  out.useful_node_hours = useful / 3600.0;
  const double capacity = 64.0 * sim::to_seconds(sched.last_finish());
  out.utilisation = capacity > 0 ? sched.busy_node_seconds() / capacity : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T8: independent clusters vs. DVC spanning — 44 rigid jobs on"
              " 2 x 32 nodes\n");

  TextTable table({"scheduler", "completed", "rejected", "makespan (h)",
                   "useful node-h", "mean wait (min)", "utilisation"});

  struct Mode {
    const char* name;
    bool spanning;
    sim::Duration overhead;
  };
  const Mode modes[] = {
      {"independent clusters", false, 0},
      {"DVC spanning", true, 0},
      {"DVC spanning + 30 s VC boot", true, 30 * sim::kSecond},
  };

  // (a) A heavy-tailed batch: 24-node jobs fragment a 32-node cluster and
  // 48-node jobs cannot fit in either cluster alone.
  const JobShape heavy[] = {{8, 16}, {16, 12}, {24, 10}, {48, 6}};
  // (b) A batch every mode can finish, where the win is pure packing:
  // 20-node jobs leave 12-node strays that only spanning can combine.
  const JobShape feasible[] = {{20, 14}, {12, 10}, {8, 8}};

  struct Scenario {
    const char* label;
    std::span<const JobShape> shapes;
  };
  const Scenario scenarios[] = {
      {"oversized-in-mix", heavy},
      {"all-feasible", feasible},
  };
  for (const Scenario& sc : scenarios) {
    for (const Mode& m : modes) {
      const Outcome o = run(m.spanning, m.overhead, sc.shapes, 1234);
      table.add_row({std::string(sc.label) + " / " + m.name,
                     std::to_string(o.completed),
                     std::to_string(o.rejected), fmt(o.makespan_h),
                     fmt(o.useful_node_hours, 0), fmt(o.mean_wait_min, 1),
                     fmt_pct(o.utilisation)});
    }
  }
  table.print("T8  spanning vs. independent clusters (rigid jobs)");
  std::printf("paper: the spanning system runs the whole batch — including\n"
              "jobs no single cluster could hold — and packs fragments that\n"
              "independent clusters strand.\n");

  return 0;
}
