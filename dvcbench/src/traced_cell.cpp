// The traced twin of tools::run_cell: the same public calls in the same
// order, each wrapped in a host span named after the layer it enters.
// Keep it in step with tools/sweep.cpp; the traced run checks that both
// reach the same modelled outcome.

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/lsc.hpp"
#include "core/machine_room.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "grid_workload.hpp"

namespace dvcbench {

namespace {

constexpr std::uint64_t kDrainLimit = 2'000'000;

using dvc::sim::from_seconds;
using dvc::tools::CellStatus;

/// Runs `fn`, one Simulation::run or run_until call, inside a span named
/// `span`; adds its host time to the tally and samples pending().
template <typename Fn>
void drive(HostTrace& trace, LayerTally& tally, dvc::sim::Simulation& sim,
           const char* span, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    const HostTrace::Scope s(trace, span);
    fn();
  }
  tally.run_host_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  tally.peak_pending =
      std::max<std::uint64_t>(tally.peak_pending, sim.pending());
}

dvc::fault::StochasticFaults stochastic_faults(
    const dvc::tools::ScenarioConfig& cfg) {
  dvc::fault::StochasticFaults fs;
  fs.horizon = from_seconds(cfg.get_double("fault.horizon_s", 0.0));
  fs.node_crash_mtbf =
      from_seconds(cfg.get_double("fault.node_crash_mtbf_s", 0.0));
  fs.node_down_for = from_seconds(cfg.get_double("fault.node_down_s", 0.0));
  fs.link_down_mtbf =
      from_seconds(cfg.get_double("fault.link_down_mtbf_s", 0.0));
  fs.link_down_for = from_seconds(cfg.get_double("fault.link_down_s", 30.0));
  fs.disk_slow_mtbf =
      from_seconds(cfg.get_double("fault.disk_slow_mtbf_s", 0.0));
  fs.disk_slow_for = from_seconds(cfg.get_double("fault.disk_slow_s", 60.0));
  fs.disk_slow_factor = cfg.get_double("fault.disk_slow_factor", 10.0);
  fs.clock_step_mtbf =
      from_seconds(cfg.get_double("fault.clock_step_mtbf_s", 0.0));
  fs.clock_step_max = static_cast<dvc::sim::Duration>(
      cfg.get_double("fault.clock_step_ms", 500.0) * dvc::sim::kMillisecond);
  fs.store_corrupt_mtbf =
      from_seconds(cfg.get_double("fault.store_corrupt_mtbf_s", 0.0));
  fs.store_tear_mtbf =
      from_seconds(cfg.get_double("fault.store_tear_mtbf_s", 0.0));
  fs.partition_mtbf =
      from_seconds(cfg.get_double("fault.partition_mtbf_s", 0.0));
  fs.partition_for = from_seconds(cfg.get_double("fault.partition_s", 30.0));
  fs.coordinator_crash_mtbf =
      from_seconds(cfg.get_double("fault.coordinator_crash_mtbf_s", 0.0));
  fs.coordinator_down_for =
      from_seconds(cfg.get_double("fault.coordinator_down_s", 20.0));
  return fs;
}

dvc::app::Pattern parse_pattern(const std::string& p) {
  using dvc::app::Pattern;
  if (p == "none") return Pattern::kNone;
  if (p == "ring") return Pattern::kRing;
  if (p == "broadcast") return Pattern::kBroadcast;
  if (p == "treebroadcast") return Pattern::kTreeBroadcast;
  if (p == "alltoall") return Pattern::kAllToAll;
  throw std::invalid_argument("unknown pattern: " + p);
}

}  // namespace

void traced_run_cell(const dvc::tools::SweepCell& cell, HostTrace& trace,
                     LayerTally& tally, dvc::tools::CellOutcome& out) {
  using namespace dvc;  // NOLINT — mirrors tools/sweep.cpp's spelling
  const tools::ScenarioConfig& cfg = cell.cfg;
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const HostTrace::Scope whole(trace, "tools.cell");

  core::MachineRoomOptions o;
  o.clusters = static_cast<std::uint32_t>(cfg.get_int("clusters", 1));
  o.nodes_per_cluster =
      static_cast<std::uint32_t>(cfg.get_int("nodes_per_cluster", 32));
  o.seed = seed;
  const double write_mbps = cfg.get_double("store_write_mbps", 100.0);
  o.store.write_bps = write_mbps * 1e6;
  o.store.read_bps = 2 * write_mbps * 1e6;
  o.hv.abort_saves_on_failure = cfg.get_bool("abort_saves_on_failure", false);
  o.store_replicas =
      static_cast<std::uint32_t>(cfg.get_int("store_replicas", 0));
  std::unique_ptr<core::MachineRoom> room_ptr;
  {
    const HostTrace::Scope s(trace, "core.machine_room");
    room_ptr = std::make_unique<core::MachineRoom>(o);
  }
  core::MachineRoom& room = *room_ptr;

  const auto vc_size = static_cast<std::uint32_t>(cfg.get_int("vc_size", 16));
  core::VcSpec spec;
  spec.name = "sweep";
  spec.size = vc_size;
  spec.guest.ram_bytes =
      static_cast<std::uint64_t>(cfg.get_int("guest_ram_mib", 256)) << 20;
  core::VirtualCluster* vc = nullptr;
  {
    const HostTrace::Scope s(trace, "core.create_vc");
    const auto placement = room.dvc->pick_nodes(vc_size);
    if (!placement) {
      throw std::runtime_error("not enough nodes for vc_size=" +
                               std::to_string(vc_size));
    }
    vc = &room.dvc->create_vc(spec, *placement, {});
    const std::int64_t head = cfg.get_int("coordinator.head_node", -1);
    if (head >= 0) {
      room.dvc->designate_head_node(
          static_cast<hw::NodeId>(head),
          from_seconds(cfg.get_double("coordinator.lease_s", 10.0)));
    }
  }
  drive(trace, tally, room.sim, "sim.run_until",
        [&] { room.sim.run_until(20 * sim::kSecond); });

  const std::string kind = cfg.get_string("workload", "ptrans");
  const auto iterations =
      static_cast<std::uint32_t>(cfg.get_int("iterations", 1000));
  const double iter_s = cfg.get_double("iter_seconds", 0.5);
  app::WorkloadSpec workload =
      kind == "hpl" ? app::make_hpl(16384, vc_size, iterations)
                    : app::make_ptrans(4096, vc_size, iterations);
  workload.flops_per_rank_iter = iter_s * 1e10;
  workload.bytes_per_msg = 64 << 10;
  const std::string pattern = cfg.get_string("pattern", "");
  if (!pattern.empty()) workload.pattern = parse_pattern(pattern);
  const std::int64_t msg_bytes = cfg.get_int("msg_bytes", 0);
  if (msg_bytes > 0) {
    workload.bytes_per_msg = static_cast<std::uint32_t>(msg_bytes);
  }
  std::unique_ptr<app::ParallelApp> application;
  {
    const HostTrace::Scope s(trace, "app.start");
    application = std::make_unique<app::ParallelApp>(
        room.sim, room.fabric.network(), vc->contexts(), workload);
    room.dvc->attach_app(*vc, *application);
    application->start();
  }

  ckpt::NtpLscCoordinator lsc(room.sim, {}, sim::Rng(seed ^ 0xD5C));
  lsc.set_metrics(&room.metrics);
  ckpt::LscCoordinator::RetryPolicy retry;
  retry.round_timeout = from_seconds(cfg.get_double("lsc.round_timeout_s", 0.0));
  retry.max_round_retries =
      static_cast<int>(cfg.get_int("lsc.max_round_retries", 0));
  retry.backoff = from_seconds(cfg.get_double("lsc.retry_backoff_s", 2.0));
  lsc.set_retry_policy(retry);

  std::unique_ptr<check::Invariants> inv;
  if (cfg.get_bool("check.invariants", true)) {
    const HostTrace::Scope s(trace, "check.attach");
    inv = std::make_unique<check::Invariants>(check::Invariants::Wiring{
        &room.sim, room.dvc.get(), &room.images, &room.fence,
        &room.metrics});
    inv->attach();
    lsc.set_check(inv.get());
  }

  std::unique_ptr<fault::FaultInjector> injector;
  if (cfg.get_bool("fault.enabled", false)) {
    fault::FaultPlan plan;
    {
      const HostTrace::Scope s(trace, "fault.sample");
      const std::string script = cfg.get_string("fault.script", "");
      if (!script.empty()) plan = fault::FaultPlan::parse_script(script);
      const fault::StochasticFaults fs = stochastic_faults(cfg);
      if (fs.horizon > 0) {
        const auto fault_seed = static_cast<std::uint64_t>(
            cfg.get_int("fault.seed", static_cast<std::int64_t>(seed)));
        plan.sample(fs, static_cast<std::uint32_t>(room.fabric.node_count()),
                    static_cast<std::uint32_t>(room.fabric.cluster_count()),
                    sim::Rng(fault_seed),
                    static_cast<std::uint32_t>(1 + room.replica_stores.size()));
      }
      const sim::Duration start =
          from_seconds(cfg.get_double("fault.start_s", 0.0));
      if (start > 0) {
        fault::FaultPlan shifted;
        for (fault::FaultEvent e : plan.schedule()) {
          e.at += start;
          shifted.add(e);
        }
        plan = std::move(shifted);
      }
    }
    const HostTrace::Scope s(trace, "fault.arm");
    injector = std::make_unique<fault::FaultInjector>(
        room.sim,
        fault::FaultInjector::Hooks{
            &room.fabric, &room.store, room.time.get(), room.replica_ptrs(),
            [&room](sim::Duration down_for) {
              room.dvc->crash_coordinator(down_for);
            }},
        &room.metrics);
    injector->arm(plan);
  }
  const double mtbf_s = cfg.get_double("mtbf_per_node_s", 0.0);
  if (mtbf_s > 0.0) {
    const double repair_s = cfg.get_double("repair_s", 1800.0);
    room.fabric.subscribe_failures([&room, repair_s](hw::NodeId n) {
      room.sim.schedule_after(from_seconds(repair_s),
                              [&room, n] { room.fabric.repair_node(n); });
    });
    room.fabric.arm_random_failures(
        from_seconds(mtbf_s), cfg.get_double("predicted_fraction", 0.0),
        from_seconds(cfg.get_double("prediction_lead_s", 120.0)));
  }

  core::DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval =
      from_seconds(cfg.get_double("checkpoint_interval_s", 300.0));
  policy.incremental = cfg.get_bool("incremental", false);
  policy.proactive_migration = cfg.get_bool("proactive", false);
  policy.watchdog_interval =
      from_seconds(cfg.get_double("watchdog_interval_s", 0.0));
  policy.keep_checkpoints =
      static_cast<std::size_t>(cfg.get_int("keep_checkpoints", 2));
  policy.max_restore_retries =
      static_cast<int>(cfg.get_int("max_restore_retries", 4));
  {
    const HostTrace::Scope s(trace, "core.enable_auto_recovery");
    room.dvc->enable_auto_recovery(*vc, policy);
  }

  const sim::Time horizon = from_seconds(cfg.get_double("horizon_s", 3600.0));
  const sim::Duration slice = from_seconds(cfg.get_double("slice_s", 10.0));
  while (!application->completed() && room.sim.now() < horizon) {
    if (vc->state() == core::VcState::kFailed) break;
    drive(trace, tally, room.sim, "sim.run_until",
          [&] { room.sim.run_until(room.sim.now() + slice); });
  }
  drive(trace, tally, room.sim, "sim.run_until", [&] {
    room.sim.run_until(room.sim.now() +
                       from_seconds(cfg.get_double("settle_s", 30.0)));
  });
  const bool completed = application->completed();
  if (completed) {
    room.dvc->disable_auto_recovery(*vc);
    drive(trace, tally, room.sim, "sim.run",
          [&] { room.sim.run(kDrainLimit); });
  }
  if (inv != nullptr) {
    const HostTrace::Scope s(trace, "check.end_of_run");
    inv->end_of_run(/*expect_quiesced=*/completed);
  }

  {
    const HostTrace::Scope s(trace, "telemetry.export");
    out.iterations = application->rank(0).state().iter;
    out.sim_time_s = sim::to_seconds(room.sim.now());
    out.checkpoints = room.metrics.counter_value("core.dvc.checkpoints");
    out.recoveries = room.dvc->recoveries_performed();
    out.watchdog = room.dvc->watchdog_detections();
    out.lsc_retries = room.metrics.counter_value("ckpt.lsc.round_retries");
    out.faults_injected = room.metrics.counter_value("fault.injected");
    out.faults_lifted = room.metrics.counter_value("fault.lifted");
    out.fallbacks = room.dvc->restore_fallbacks();
    out.abandoned = room.dvc->recoveries_abandoned();
    if (inv != nullptr) out.violations = inv->violations();
    tally.add_registry(room.metrics);
  }
  tally.events += room.sim.executed();

  tally.add_app(*application, *vc);

  if (!out.violations.empty()) {
    out.status = CellStatus::kInvariantViolation;
  } else if (completed) {
    out.status = CellStatus::kCompleted;
  } else if (application->failed() || vc->state() == core::VcState::kFailed) {
    out.status = CellStatus::kDiagnosed;
  } else {
    out.status = CellStatus::kWedged;
  }
  if (inv != nullptr) inv->detach();
}

}  // namespace dvcbench
