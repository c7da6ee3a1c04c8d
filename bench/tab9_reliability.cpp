// T9 — the paper's headline claim (§1): DVC increases reliability because
// "if a single physical node dies, we can restart a checkpoint of the
// entire virtual cluster on a different set of physical nodes."
//
// A 26-rank job needing ~1000 s of useful compute runs on a 32-node
// cluster whose nodes fail randomly (and are repaired). We compare:
//   * restart-from-scratch (no checkpointing — the app dies with the node
//     and starts over), and
//   * DVC auto-recovery at several checkpoint intervals.
// Reported: completion time, failures survived, and redone (wasted) work.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr const char* kProgram = "tab9_reliability";
constexpr std::uint32_t kRanks = 26;
constexpr std::uint32_t kIterations = 2000;   // x 0.5 s = 1000 s useful
constexpr double kIterSeconds = 0.5;
constexpr sim::Duration kMtbfPerNode = 20000 * sim::kSecond;
constexpr sim::Duration kRepairTime = 1800 * sim::kSecond;
constexpr sim::Duration kHorizon = 40000 * sim::kSecond;
constexpr double kStoreBps = 200e6;

struct Outcome {
  bool completed = false;
  double completion_s = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;   // restarts or rollbacks
  double wasted_compute_s = 0.0;  // redone work, per rank (max)
  double ckpt_overhead = 0.0;     // checkpoints taken
  std::uint64_t verify_failures = 0;  // damaged images caught at restore
  std::uint64_t failovers = 0;        // reads served by a replica
  std::uint64_t fallbacks = 0;        // restores from an older generation
  std::uint64_t coordinator_crashes = 0;
  std::uint64_t coordinator_reboots = 0;
  std::uint64_t fenced_writes = 0;    // deposed-epoch mutations rejected
  std::uint64_t partitions = 0;       // network partitions injected
};

/// Baseline: no checkpointing. When the application dies, everything is
/// torn down and the job restarts from iteration zero on healthy nodes.
Outcome run_restart_from_scratch(std::uint64_t seed) {
  core::MachineRoom room(paper_substrate(32, seed, kStoreBps));
  const tools::CheckerPtr inv = tools::attach_checker(room);
  room.fabric.subscribe_failures([&room](hw::NodeId n) {
    room.sim.schedule_after(kRepairTime,
                            [&room, n] { room.fabric.repair_node(n); });
  });
  room.fabric.arm_random_failures(kMtbfPerNode);

  Outcome out;
  double compute_done_total = 0.0;
  const sim::Time started = room.sim.now();

  while (room.sim.now() - started < kHorizon) {
    const auto placement = room.dvc->pick_nodes(kRanks);
    if (!placement) {  // not enough healthy nodes right now; wait
      room.sim.run_until(room.sim.now() + 30 * sim::kSecond);
      continue;
    }
    core::VcSpec spec;
    spec.size = kRanks;
    spec.guest.ram_bytes = 128ull << 20;
    bool ready = false;
    core::VirtualCluster& vc =
        room.dvc->create_vc(spec, *placement, [&] { ready = true; });
    const sim::Time boot_deadline = room.sim.now() + 60 * sim::kSecond;
    while (!ready && room.sim.now() < boot_deadline) {
      room.sim.run_until(room.sim.now() + sim::kSecond);
    }
    if (!ready) {  // a boot node died; tear down and try again
      room.dvc->destroy_vc(vc);
      continue;
    }
    auto application = std::make_unique<app::ParallelApp>(
        room.sim, room.fabric.network(), vc.contexts(),
        steady_ptrans(kRanks, kIterations, kIterSeconds));
    room.dvc->attach_app(vc, *application);
    application->start();
    while (!application->completed() && !application->failed() &&
           room.sim.now() - started < kHorizon) {
      room.sim.run_until(room.sim.now() + 5 * sim::kSecond);
    }
    compute_done_total += application->stats().compute_done_s;
    if (application->completed()) {
      out.completed = true;
      out.completion_s = sim::to_seconds(room.sim.now() - started);
      room.dvc->destroy_vc(vc);
      break;
    }
    ++out.recoveries;  // a from-scratch restart
    room.dvc->destroy_vc(vc);
    application.reset();
  }
  tools::check_trial(*inv, kProgram, "restart from scratch");
  out.failures = room.fabric.failures_injected();
  // Useful compute per rank at guest speed (the para-virt tax stretches
  // each nominal iteration second by ~3%).
  const double useful_s = kIterations * kIterSeconds * 1e10 / (10e9 * 0.97);
  out.wasted_compute_s = std::max(0.0, compute_done_total - useful_s);
  return out;
}

/// One row of the table: a recovery policy and the faults it runs under.
struct Row {
  std::string policy;
  /// Checkpoint interval; 0 runs the restart-from-scratch baseline.
  sim::Duration interval = 0;
  /// Layers a seeded fault schedule on the baseline failure process: disk
  /// slowdowns, clock steps and extra reboot-style crashes.
  bool inject_faults = false;
  /// Swaps in the durability gauntlet (silent corruption + torn writes
  /// against the checkpoint store).
  bool storage_faults = false;
  std::uint32_t replicas = 0;  ///< k-1 asynchronous store replicas
  /// Adds inter-cluster partitions and coordinator outages.
  bool control_faults = false;
};

/// DVC: periodic NTP-LSC checkpoints + automatic whole-VC recovery.
Outcome run_dvc(const Row& row, std::uint64_t seed) {
  core::MachineRoomOptions opt = paper_substrate(32, seed, kStoreBps);
  opt.store_replicas = row.replicas;
  if (row.control_faults) {
    // Same 32 nodes, split across two clusters so a partition has a seam
    // to cut; the VC spans the seam.
    opt.clusters = 2;
    opt.nodes_per_cluster = 16;
  }
  tools::CellSpec spec =
      vc_cell(opt, /*guest_ram=*/128ull << 20,
              steady_ptrans(kRanks, kIterations, kIterSeconds));
  spec.lsc_seed = seed ^ 0xD5;
  spec.recovery.interval = row.interval;
  if (row.control_faults) {
    // Partitions outlasting the transport retry budget kill the app
    // without killing hardware; only the watchdog notices that.
    spec.recovery.watchdog_interval = 60 * sim::kSecond;
    // Node 31 is a spare (the 26 ranks occupy nodes 0..25), so the
    // coordinator's own host survives the job-facing failure process.
    spec.head_node = 31;
  }
  // Failures start once the policy is armed (same failure process as the
  // baseline; the baseline just cannot do anything about them).
  spec.failures = {.mtbf = kMtbfPerNode, .repair = kRepairTime};

  if (row.inject_faults) {
    fault::StochasticFaults st;
    st.horizon = 20000 * sim::kSecond;
    st.node_crash_mtbf = 10000 * sim::kSecond;
    st.node_down_for = 600 * sim::kSecond;
    if (row.storage_faults) {
      // Durability gauntlet: the checkpoint store rots and tears while
      // the node-failure process keeps forcing restores that read it.
      st.store_corrupt_mtbf = 1500 * sim::kSecond;
      st.store_tear_mtbf = 2500 * sim::kSecond;
    } else {
      st.disk_slow_mtbf = 4000 * sim::kSecond;
      st.disk_slow_for = 120 * sim::kSecond;
      st.disk_slow_factor = 8.0;
      st.clock_step_mtbf = 3000 * sim::kSecond;
      st.clock_step_max = 400 * sim::kMillisecond;
    }
    if (row.control_faults) {
      // Control-plane gauntlet: inter-cluster partitions long enough to
      // exhaust the transport retry budget, plus coordinator outages.
      // Rates are against the ~1500-3000 s completion time, not the
      // 40000 s horizon, so several of each land while the job runs.
      st.partition_mtbf = 700 * sim::kSecond;
      st.partition_for = 45 * sim::kSecond;
      st.coordinator_crash_mtbf = 500 * sim::kSecond;
      st.coordinator_down_for = 60 * sim::kSecond;
    }
    spec.faults.emplace().sample(st, opt.clusters * opt.nodes_per_cluster,
                                 opt.clusters, sim::Rng(seed ^ 0xFA17),
                                 1 + opt.store_replicas);
  }
  tools::CellRig rig(spec);
  rig.start_recovery();
  core::MachineRoom& room = rig.room;
  const app::ParallelApp& application = *rig.application;

  const sim::Duration ran = run_job(rig, kHorizon);
  tools::check_trial(*rig.inv, kProgram, row.policy);

  Outcome out;
  out.completed = application.completed();
  out.completion_s = sim::to_seconds(ran);
  out.failures = room.fabric.failures_injected();
  out.recoveries = room.dvc->recoveries_performed();
  out.ckpt_overhead = static_cast<double>(room.dvc->checkpoints_taken());
  const double useful_s = kIterations * kIterSeconds * 1e10 / (10e9 * 0.97);
  out.wasted_compute_s =
      std::max(0.0, application.stats().compute_done_s - useful_s);
  out.verify_failures =
      room.metrics.counter_value("storage.store.verify_failures");
  out.failovers = room.metrics.counter_value("storage.replica.failovers");
  out.fallbacks = room.dvc->restore_fallbacks();
  out.coordinator_crashes = room.dvc->coordinator_crashes();
  out.coordinator_reboots = room.dvc->coordinator_reboots();
  out.fenced_writes =
      room.metrics.counter_value("storage.images.fenced_writes") +
      room.metrics.counter_value("vm.hypervisor.fenced_commands");
  out.partitions = room.metrics.counter_value("fault.injected.partition");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("T9: reliability — 26-rank job (~1000 s useful compute) on a\n"
              "    32-node cluster with random node failures + repairs\n");

  TextTable table({"policy", "completed", "completion (s)", "node failures",
                   "restarts/recoveries", "ckpts", "wasted compute (s)"});

  const std::uint64_t kSeed = 4242;
  const Row rows[] = {
      {"restart from scratch"},
      {"DVC ckpt every 600 s", 600 * sim::kSecond},
      {"DVC ckpt every 300 s", 300 * sim::kSecond},
      {"DVC ckpt every 120 s", 120 * sim::kSecond},
      {"DVC ckpt every 120 s + injected faults", 120 * sim::kSecond,
       /*inject_faults=*/true},
      // Durability row: storage faults (silent corruption + torn writes)
      // against a k=2 replicated checkpoint store. Replica failover masks
      // most damage; generation fallback catches what slips through.
      {"DVC ckpt 120 s + storage faults (k=2)", 120 * sim::kSecond, true,
       /*storage_faults=*/true, /*replicas=*/1},
      // Control-plane row: the coordinator itself crashes and the fabric
      // partitions across the inter-cluster seam while the node-failure
      // process keeps running. Epoch fencing keeps deposed writes out of
      // the store and the recovery pass completes or aborts half-open
      // rounds, so the job still finishes.
      {"DVC ckpt 120 s + coordinator/partition faults", 120 * sim::kSecond,
       true, /*storage_faults=*/false, /*replicas=*/0,
       /*control_faults=*/true},
  };
  std::vector<Outcome> outcomes(std::size(rows));
  tools::run_indexed(outcomes.size(), /*jobs=*/0, [&](std::size_t i) {
    outcomes[i] = rows[i].interval > 0 ? run_dvc(rows[i], kSeed)
                                       : run_restart_from_scratch(kSeed);
  });
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    table.add_row({rows[i].policy, o.completed ? "yes" : "NO",
                   fmt(o.completion_s, 0), std::to_string(o.failures),
                   std::to_string(o.recoveries), fmt(o.ckpt_overhead, 0),
                   fmt(o.wasted_compute_s, 0)});
  }
  const Outcome& d = outcomes[5];
  const Outcome& c = outcomes[6];

  table.print("T9  job completion under node failures");
  std::printf("    storage-fault run: %llu verify failures, %llu replica"
              " failovers, %llu generation fallbacks\n",
              static_cast<unsigned long long>(d.verify_failures),
              static_cast<unsigned long long>(d.failovers),
              static_cast<unsigned long long>(d.fallbacks));
  std::printf("    control-fault run: %llu coordinator crashes, %llu"
              " reboots, %llu partitions, %llu fenced writes\n",
              static_cast<unsigned long long>(c.coordinator_crashes),
              static_cast<unsigned long long>(c.coordinator_reboots),
              static_cast<unsigned long long>(c.partitions),
              static_cast<unsigned long long>(c.fenced_writes));
  std::printf("paper: DVC bounds lost work to one checkpoint interval and\n"
              "restarts the whole virtual cluster on different nodes,\n"
              "instead of losing the entire run.\n");

  return 0;
}
