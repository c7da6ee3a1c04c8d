// dvcsim — scenario-driven Dynamic Virtual Clustering simulator.
//
//   dvcsim <scenario-file> [--metrics-json=PATH] [--chrome-trace=PATH]
//
// --metrics-json writes every counter/gauge/histogram of the run as
// deterministic JSON; --chrome-trace writes the sim-time span timeline in
// Chrome trace_event format (open in chrome://tracing or Perfetto). Both
// are also settable as scenario keys (metrics_json / chrome_trace); the
// command line wins.
//
// A scenario file is `key = value` lines (# comments). Common keys:
//
//   experiment            reliability | checkpoint | migrate
//   seed                  RNG seed (default 42)
//   clusters              physical clusters (default 1)
//   nodes_per_cluster     nodes per cluster (default 32)
//   store_write_mbps      shared store write bandwidth (default 100)
//   vc_size               guests in the virtual cluster (default 16)
//   guest_ram_mib         guest memory (default 256)
//   workload              ptrans | hpl (default ptrans)
//   iterations            bulk-synchronous iterations (default 1000)
//   iter_seconds          compute seconds per iteration (default 0.5)
//   checkpoint_interval_s periodic LSC interval (default 300)
//   incremental           dirty-only checkpoints (default false)
//   store_replicas        extra checkpoint-store replicas, k-1 (default 0)
//   keep_checkpoints      retained recovery generations (default 2)
//   max_restore_retries   restore failures tolerated per point (default 4)
//   mtbf_per_node_s       0 disables failures (default 0)
//   repair_s              node repair time (default 1800)
//   predicted_fraction    share of faults announced early (default 0)
//   prediction_lead_s     warning lead time (default 120)
//   proactive             evacuate on predictions (default false)
//   migrate_at_s          [migrate] when to move the VC (default 60)
//   live                  [migrate] pre-copy instead of LSC (default true)
//   pattern               communication pattern override: none | ring |
//                         broadcast | treebroadcast | alltoall
//   msg_bytes             per-message payload override (0 = workload's)
//   horizon_s             [reliability] simulation horizon (default 100 h)
//   slice_s               [reliability] drive-loop granularity (default 10)
//   settle_s              [reliability] extra settle after the loop (0)
//   check.invariants      attach the invariant checker (default true);
//                         violations are printed and force exit 1
//   trace                 echo the machine room's event log (default true)
//   metrics_json          metrics dump path ("" disables, default "")
//   chrome_trace          Chrome trace path ("" disables, default "")
//
// Fault-injection keys (all off by default; see src/fault/):
//
//   fault.enabled           master switch for the injector (default false)
//   fault.start_s           shift the whole fault schedule this much later
//   fault.seed              RNG seed for stochastic faults (default: seed)
//   fault.script            scripted events, FaultPlan::parse_script grammar
//   fault.horizon_s         stochastic sampling window (0 disables)
//   fault.node_crash_mtbf_s mean gap between injected node crashes
//   fault.node_down_s       reboot time after a crash (0 = stays dead)
//   fault.link_down_mtbf_s  mean gap between inter-cluster link cuts
//   fault.link_down_s       duration of each link cut (default 30)
//   fault.disk_slow_mtbf_s  mean gap between store slowdowns
//   fault.disk_slow_s       duration of each slowdown (default 60)
//   fault.disk_slow_factor  bandwidth divisor while slowed (default 10)
//   fault.clock_step_mtbf_s mean gap between host clock steps
//   fault.clock_step_ms     max |step| in milliseconds (default 500)
//   fault.store_corrupt_mtbf_s mean gap between silent image corruptions
//   fault.store_tear_mtbf_s    mean gap between torn-write store deaths
//   fault.partition_mtbf_s  mean gap between network partitions (needs >= 2
//                           clusters; one cluster is cut off from the rest)
//   fault.partition_s       duration of each partition (default 30)
//   fault.coordinator_crash_mtbf_s mean gap between control-plane crashes
//   fault.coordinator_down_s       coordinator reboot time (default 20)
//
// Coordinator fault-domain keys (see docs/ARCHITECTURE.md):
//
//   coordinator.head_node   node hosting the DVC control plane (-1 = the
//                           control plane is not a fault domain, default)
//   coordinator.lease_s     epoch lease on the head node's clock (default 10)
//
// Recovery-tuning keys:
//
//   lsc.round_timeout_s     abort an LSC round after this long (0 = never)
//   lsc.max_round_retries   re-attempt failed/timed-out rounds (default 0)
//   lsc.retry_backoff_s     first retry delay, doubles per retry (default 2)
//   watchdog_interval_s     [reliability] member liveness sweep (0 = off)
//   abort_saves_on_failure  fail in-flight saves on node death (default false)
//
// Sample scenarios live in scenarios/.

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/interval.hpp"
#include "ckpt/lsc.hpp"
#include "core/machine_room.hpp"
#include "fault/fault_injector.hpp"
#include "tools/scenario_config.hpp"
#include "tools/scenario_keys.hpp"

using namespace dvc;  // NOLINT — CLI brevity

namespace {

struct Scenario {
  tools::ScenarioConfig cfg;
  core::MachineRoom room;
  core::VirtualCluster* vc = nullptr;
  std::unique_ptr<app::ParallelApp> application;
  std::unique_ptr<ckpt::NtpLscCoordinator> lsc;
  std::unique_ptr<fault::FaultInjector> injector;
  std::uint64_t seed = 42;
  std::unique_ptr<check::Invariants> inv;
};

core::MachineRoomOptions room_options(const tools::ScenarioConfig& cfg) {
  core::MachineRoomOptions o;
  o.clusters = static_cast<std::uint32_t>(cfg.get_int("clusters", 1));
  o.nodes_per_cluster =
      static_cast<std::uint32_t>(cfg.get_int("nodes_per_cluster", 32));
  o.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const double write_mbps = cfg.get_double("store_write_mbps", 100.0);
  o.store.write_bps = write_mbps * 1e6;
  o.store.read_bps = 2 * write_mbps * 1e6;
  o.hv.abort_saves_on_failure =
      cfg.get_bool("abort_saves_on_failure", false);
  o.store_replicas =
      static_cast<std::uint32_t>(cfg.get_int("store_replicas", 0));
  return o;
}

std::unique_ptr<Scenario> build(const tools::ScenarioConfig& cfg) {
  auto sc = std::unique_ptr<Scenario>(new Scenario{
      cfg, core::MachineRoom(room_options(cfg)), nullptr, nullptr, nullptr,
      nullptr, static_cast<std::uint64_t>(cfg.get_int("seed", 42)),
      nullptr});
  if (cfg.get_bool("trace", true)) {
    sc->room.trace.set_echo(true);
    sc->room.trace.set_min_level(sim::TraceLevel::kInfo);
  }

  const auto vc_size =
      static_cast<std::uint32_t>(cfg.get_int("vc_size", 16));
  core::VcSpec spec;
  spec.name = "dvcsim";
  spec.size = vc_size;
  spec.guest.ram_bytes =
      static_cast<std::uint64_t>(cfg.get_int("guest_ram_mib", 256)) << 20;
  const auto placement = sc->room.dvc->pick_nodes(vc_size);
  if (!placement) {
    throw std::runtime_error("not enough nodes for vc_size=" +
                             std::to_string(vc_size));
  }
  sc->vc = &sc->room.dvc->create_vc(spec, *placement, {});
  // Opt-in coordinator fault domain: the control plane runs on a head
  // node, journals intents, and fences its commands with an epoch.
  const std::int64_t head = cfg.get_int("coordinator.head_node", -1);
  if (head >= 0) {
    sc->room.dvc->designate_head_node(
        static_cast<hw::NodeId>(head),
        sim::from_seconds(cfg.get_double("coordinator.lease_s", 10.0)));
  }
  sc->room.sim.run_until(20 * sim::kSecond);

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
  if (!pattern.empty()) {
    if (pattern == "none") {
      workload.pattern = app::Pattern::kNone;
    } else if (pattern == "ring") {
      workload.pattern = app::Pattern::kRing;
    } else if (pattern == "broadcast") {
      workload.pattern = app::Pattern::kBroadcast;
    } else if (pattern == "treebroadcast") {
      workload.pattern = app::Pattern::kTreeBroadcast;
    } else if (pattern == "alltoall") {
      workload.pattern = app::Pattern::kAllToAll;
    } else {
      throw std::invalid_argument("unknown pattern: " + pattern);
    }
  }
  const std::uint32_t msg_bytes = cfg.get_u32("msg_bytes", 0);
  if (msg_bytes > 0) workload.bytes_per_msg = msg_bytes;
  sc->application = std::make_unique<app::ParallelApp>(
      sc->room.sim, sc->room.fabric.network(), sc->vc->contexts(),
      workload);
  sc->room.dvc->attach_app(*sc->vc, *sc->application);
  sc->application->start();

  sc->lsc = std::make_unique<ckpt::NtpLscCoordinator>(
      sc->room.sim, ckpt::NtpLscCoordinator::Config{},
      sim::Rng(sc->seed ^ 0xD5C));
  sc->lsc->set_metrics(&sc->room.metrics);
  ckpt::LscCoordinator::RetryPolicy retry;
  retry.round_timeout =
      sim::from_seconds(cfg.get_double("lsc.round_timeout_s", 0.0));
  retry.max_round_retries =
      static_cast<int>(cfg.get_int("lsc.max_round_retries", 0));
  retry.backoff =
      sim::from_seconds(cfg.get_double("lsc.retry_backoff_s", 2.0));
  sc->lsc->set_retry_policy(retry);

  // Invariant checker: always compiled, on by default, opt out with
  // `check.invariants = off`. Violations turn the run's exit nonzero.
  if (cfg.get_bool("check.invariants", true)) {
    sc->inv = std::make_unique<check::Invariants>(check::Invariants::Wiring{
        &sc->room.sim, sc->room.dvc.get(), &sc->room.images,
        &sc->room.fence, &sc->room.metrics});
    sc->inv->attach();
    sc->lsc->set_check(sc->inv.get());
  }
  return sc;
}

/// The injector's control-plane kill switch: a `coordcrash` event takes
/// the DVC coordinator down for its payload duration.
std::function<void(sim::Duration)> coordinator_crash_hook(Scenario& sc) {
  return [&sc](sim::Duration down_for) {
    sc.room.dvc->crash_coordinator(down_for);
  };
}

/// Builds the fault plan out of `fault.*` keys and arms it (no-op unless
/// fault.enabled). Scripted events and stochastic processes accumulate in
/// one plan; sampling is pinned to fault.seed, so the schedule is the same
/// for every run of a scenario file regardless of what the room does.
void arm_faults(Scenario& sc) {
  if (!sc.cfg.get_bool("fault.enabled", false)) return;
  fault::FaultPlan plan;
  const std::string script = sc.cfg.get_string("fault.script", "");
  if (!script.empty()) plan = fault::FaultPlan::parse_script(script);
  fault::StochasticFaults spec;
  spec.horizon =
      sim::from_seconds(sc.cfg.get_double("fault.horizon_s", 0.0));
  spec.node_crash_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.node_crash_mtbf_s", 0.0));
  spec.node_down_for =
      sim::from_seconds(sc.cfg.get_double("fault.node_down_s", 0.0));
  spec.link_down_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.link_down_mtbf_s", 0.0));
  spec.link_down_for =
      sim::from_seconds(sc.cfg.get_double("fault.link_down_s", 30.0));
  spec.disk_slow_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.disk_slow_mtbf_s", 0.0));
  spec.disk_slow_for =
      sim::from_seconds(sc.cfg.get_double("fault.disk_slow_s", 60.0));
  spec.disk_slow_factor = sc.cfg.get_double("fault.disk_slow_factor", 10.0);
  spec.clock_step_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.clock_step_mtbf_s", 0.0));
  spec.clock_step_max = static_cast<sim::Duration>(
      sc.cfg.get_double("fault.clock_step_ms", 500.0) * sim::kMillisecond);
  spec.store_corrupt_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.store_corrupt_mtbf_s", 0.0));
  spec.store_tear_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.store_tear_mtbf_s", 0.0));
  spec.partition_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.partition_mtbf_s", 0.0));
  spec.partition_for =
      sim::from_seconds(sc.cfg.get_double("fault.partition_s", 30.0));
  spec.coordinator_crash_mtbf = sim::from_seconds(
      sc.cfg.get_double("fault.coordinator_crash_mtbf_s", 0.0));
  spec.coordinator_down_for = sim::from_seconds(
      sc.cfg.get_double("fault.coordinator_down_s", 20.0));
  if (spec.horizon > 0) {
    const auto fault_seed = static_cast<std::uint64_t>(sc.cfg.get_int(
        "fault.seed", static_cast<std::int64_t>(sc.seed)));
    plan.sample(spec,
                static_cast<std::uint32_t>(sc.room.fabric.node_count()),
                static_cast<std::uint32_t>(sc.room.fabric.cluster_count()),
                sim::Rng(fault_seed),
                static_cast<std::uint32_t>(
                    1 + sc.room.replica_stores.size()));
  }
  // `fault.start_s` shifts the whole sampled schedule, so a grid can open
  // the fault window after the first full checkpoint instead of at boot.
  const sim::Duration start =
      sim::from_seconds(sc.cfg.get_double("fault.start_s", 0.0));
  if (start > 0) {
    fault::FaultPlan shifted;
    for (fault::FaultEvent e : plan.schedule()) {
      e.at += start;
      shifted.add(e);
    }
    plan = std::move(shifted);
  }
  sc.injector = std::make_unique<fault::FaultInjector>(
      sc.room.sim,
      fault::FaultInjector::Hooks{&sc.room.fabric, &sc.room.store,
                                  sc.room.time.get(),
                                  sc.room.replica_ptrs(),
                                  coordinator_crash_hook(sc)},
      &sc.room.metrics);
  sc.injector->arm(plan);
  std::printf("fault injector:  %zu events armed\n", plan.size());
}

void arm_failures(Scenario& sc) {
  const double mtbf_s = sc.cfg.get_double("mtbf_per_node_s", 0.0);
  if (mtbf_s <= 0.0) return;
  const double repair_s = sc.cfg.get_double("repair_s", 1800.0);
  sc.room.fabric.subscribe_failures([&sc, repair_s](hw::NodeId n) {
    sc.room.sim.schedule_after(sim::from_seconds(repair_s), [&sc, n] {
      sc.room.fabric.repair_node(n);
    });
  });
  sc.room.fabric.arm_random_failures(
      sim::from_seconds(mtbf_s),
      sc.cfg.get_double("predicted_fraction", 0.0),
      sim::from_seconds(sc.cfg.get_double("prediction_lead_s", 120.0)));
}

void print_summary(Scenario& sc) {
  const app::JobStats st = sc.application->stats();
  std::printf("\n==== dvcsim summary ====\n");
  std::printf("completed:       %s\n",
              sc.application->completed()
                  ? "yes"
                  : (sc.application->failed() ? "no (job FAILED)"
                                              : "no (open-ended run)"));
  if (sc.application->completed()) {
    std::printf("wall time:       %.0f s\n", st.makespan_s);
  } else {
    std::printf("simulated time:  %.0f s\n",
                sim::to_seconds(sc.room.sim.now()));
  }
  std::printf("compute done:    %.0f s/rank (incl. redone)\n",
              st.compute_done_s);
  std::printf("messages:        %llu (%llu retransmitted, %llu dups)\n",
              static_cast<unsigned long long>(st.messages),
              static_cast<unsigned long long>(st.retransmissions),
              static_cast<unsigned long long>(st.duplicates));
  std::printf("node failures:   %llu (%llu predicted)\n",
              static_cast<unsigned long long>(
                  sc.room.fabric.failures_injected()),
              static_cast<unsigned long long>(
                  sc.room.fabric.failures_predicted()));
  std::printf("checkpoints:     %llu\n",
              static_cast<unsigned long long>(
                  sc.room.dvc->checkpoints_taken()));
  std::printf("recoveries:      %llu   evacuations: %llu   migrations:"
              " %llu (+%llu live)\n",
              static_cast<unsigned long long>(
                  sc.room.dvc->recoveries_performed()),
              static_cast<unsigned long long>(
                  sc.room.dvc->evacuations_performed()),
              static_cast<unsigned long long>(
                  sc.room.dvc->migrations_performed()),
              static_cast<unsigned long long>(
                  sc.room.dvc->live_migrations_performed()));
  if (sc.injector != nullptr) {
    std::printf("faults injected: %llu (%llu lifted, %llu skipped)\n",
                static_cast<unsigned long long>(
                    sc.injector->injected_total()),
                static_cast<unsigned long long>(sc.injector->lifted_total()),
                static_cast<unsigned long long>(
                    sc.injector->skipped_total()));
    std::printf("lsc retries:     %llu (%llu timeouts)   watchdog hits:"
                " %llu\n",
                static_cast<unsigned long long>(
                    sc.room.metrics.counter_value("ckpt.lsc.round_retries")),
                static_cast<unsigned long long>(
                    sc.room.metrics.counter_value(
                        "ckpt.lsc.round_timeouts")),
                static_cast<unsigned long long>(
                    sc.room.dvc->watchdog_detections()));
    std::printf("durability:      %llu verify failures, %llu replica"
                " failovers, %llu generation fallbacks, %llu abandoned\n",
                static_cast<unsigned long long>(
                    sc.room.metrics.counter_value(
                        "storage.store.verify_failures")),
                static_cast<unsigned long long>(
                    sc.room.metrics.counter_value(
                        "storage.replica.failovers")),
                static_cast<unsigned long long>(
                    sc.room.dvc->restore_fallbacks()),
                static_cast<unsigned long long>(
                    sc.room.dvc->recoveries_abandoned()));
  }
  if (sc.room.dvc->coordinator_crashes() > 0) {
    std::printf("coordinator:     %llu crashes, %llu reboots, %llu fenced"
                " writes, %llu orphan sets swept\n",
                static_cast<unsigned long long>(
                    sc.room.dvc->coordinator_crashes()),
                static_cast<unsigned long long>(
                    sc.room.dvc->coordinator_reboots()),
                static_cast<unsigned long long>(
                    sc.room.metrics.counter_value(
                        "storage.images.fenced_writes") +
                    sc.room.metrics.counter_value(
                        "vm.hypervisor.fenced_commands")),
                static_cast<unsigned long long>(
                    sc.room.dvc->orphan_sets_discarded() +
                    sc.room.dvc->orphan_rounds_aborted()));
  }
}

int run_reliability(Scenario& sc) {
  core::DvcManager::RecoveryPolicy policy;
  policy.coordinator = sc.lsc.get();
  policy.interval = sim::from_seconds(
      sc.cfg.get_double("checkpoint_interval_s", 300.0));
  policy.incremental = sc.cfg.get_bool("incremental", false);
  policy.proactive_migration = sc.cfg.get_bool("proactive", false);
  policy.watchdog_interval =
      sim::from_seconds(sc.cfg.get_double("watchdog_interval_s", 0.0));
  policy.keep_checkpoints = static_cast<std::size_t>(
      sc.cfg.get_int("keep_checkpoints", 2));
  policy.max_restore_retries =
      static_cast<int>(sc.cfg.get_int("max_restore_retries", 4));
  sc.room.dvc->enable_auto_recovery(*sc.vc, policy);
  arm_failures(sc);

  const sim::Time horizon = sim::from_seconds(
      sc.cfg.get_double("horizon_s", sim::to_seconds(100 * sim::kHour)));
  const sim::Duration slice =
      sim::from_seconds(sc.cfg.get_double("slice_s", 10.0));
  while (!sc.application->completed() && sc.room.sim.now() < horizon) {
    if (sc.application->failed() ||
        sc.vc->state() == core::VcState::kFailed) {
      break;  // recovery abandoned — no point simulating the wreck further
    }
    sc.room.sim.run_until(sc.room.sim.now() + slice);
  }
  const double settle_s = sc.cfg.get_double("settle_s", 0.0);
  if (settle_s > 0) {
    sc.room.sim.run_until(sc.room.sim.now() +
                          sim::from_seconds(settle_s));
  }
  print_summary(sc);
  if (!sc.application->completed()) {
    // A reliability run that ends without finishing the job is a failure:
    // either recovery gave up with a diagnosis (kFailed) or the VC wedged
    // until the horizon. Exit nonzero so CI and scripts notice.
    const char* why = "did not complete by the simulation horizon";
    if (sc.vc->state() == core::VcState::kFailed) {
      why = "recovery abandoned (every generation damaged or retries"
            " exhausted)";
    } else if (sc.application->failed()) {
      why = "application failed without a successful recovery";
    } else if (sc.vc->state() == core::VcState::kRecovering) {
      why = "wedged in recovery at the horizon";
    }
    std::printf("UNRECOVERED VC:  %s\n", why);
    return 1;
  }
  return 0;
}

int run_checkpoint(Scenario& sc) {
  // One coordinated checkpoint, then a whole-cluster restore: the T2
  // experiment as a scenario.
  std::optional<ckpt::LscResult> result;
  sc.room.sim.schedule_after(5 * sim::kSecond, [&] {
    sc.room.dvc->checkpoint_vc(*sc.vc, *sc.lsc,
                               [&](ckpt::LscResult r) { result = r; });
  });
  while (!result.has_value()) {
    sc.room.sim.run_until(sc.room.sim.now() + sim::kSecond);
  }
  std::printf("checkpoint %s: skew %.2f ms, %.1f s total\n",
              result->ok ? "sealed" : "FAILED",
              sim::to_milliseconds(result->pause_skew),
              sim::to_seconds(result->total_time));
  bool restored = false;
  sc.room.dvc->restore_vc(*sc.vc, sc.vc->placements(),
                          [&](bool ok) { restored = ok; });
  sc.room.sim.run_until(sc.room.sim.now() + 120 * sim::kSecond);
  std::printf("restore: %s\n", restored ? "ok" : "FAILED");
  sc.room.sim.run_until(sc.room.sim.now() + 60 * sim::kSecond);
  print_summary(sc);
  return (result->ok && restored && !sc.application->failed()) ? 0 : 1;
}

int run_migrate(Scenario& sc) {
  const double at_s = sc.cfg.get_double("migrate_at_s", 60.0);
  const bool live = sc.cfg.get_bool("live", true);
  const auto size = sc.vc->size();
  bool done = false;
  bool ok = false;
  sc.room.sim.run_until(sim::from_seconds(at_s));
  const auto target = sc.room.dvc->pick_nodes(size);
  if (!target) {
    std::printf("no target nodes free for migration\n");
    return 1;
  }
  if (live) {
    sc.room.dvc->live_migrate_vc(
        *sc.vc, *target, {},
        [&](core::DvcManager::LiveMigrationStats s) {
          done = true;
          ok = s.ok;
          std::printf("live migration: downtime %.2f s, %.1f s total, "
                      "%.2f GiB moved\n",
                      sim::to_seconds(s.max_downtime),
                      sim::to_seconds(s.total_time),
                      s.bytes_moved / (1ull << 30));
        });
  } else {
    sc.room.dvc->migrate_vc(*sc.vc, *sc.lsc, *target, [&](bool r) {
      done = true;
      ok = r;
    });
  }
  while (!done && sc.room.sim.now() < 2 * sim::kHour) {
    sc.room.sim.run_until(sc.room.sim.now() + sim::kSecond);
  }
  sc.room.sim.run_until(sc.room.sim.now() + 60 * sim::kSecond);
  print_summary(sc);
  return (ok && !sc.application->failed()) ? 0 : 1;
}

/// Writes the run's telemetry to the requested files (empty path = skip).
void export_telemetry(Scenario& sc, const std::string& metrics_path,
                      const std::string& trace_path) {
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) throw std::runtime_error("cannot write " + metrics_path);
    sc.room.metrics.write_metrics_json(out);
    std::printf("metrics:         %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot write " + trace_path);
    sc.room.metrics.write_chrome_trace(out);
    std::printf("chrome trace:    %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(15);
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      trace_path = arg.substr(15);
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (scenario_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <scenario-file> [--metrics-json=PATH]"
                 " [--chrome-trace=PATH]\n",
                 argv[0]);
    return 2;
  }
  std::ifstream file(scenario_path);
  if (!file) {
    std::fprintf(stderr, "cannot open scenario file: %s\n",
                 scenario_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << file.rdbuf();

  try {
    const tools::ScenarioConfig cfg =
        tools::ScenarioConfig::parse(text.str());
    cfg.validate_keys(tools::scenario_keys());
    if (metrics_path.empty()) {
      metrics_path = cfg.get_string("metrics_json", "");
    }
    if (trace_path.empty()) {
      trace_path = cfg.get_string("chrome_trace", "");
    }
    auto sc = build(cfg);
    arm_faults(*sc);
    const std::string experiment =
        cfg.get_string("experiment", "reliability");
    int status = 2;
    if (experiment == "reliability") {
      status = run_reliability(*sc);
    } else if (experiment == "checkpoint") {
      status = run_checkpoint(*sc);
    } else if (experiment == "migrate") {
      status = run_migrate(*sc);
    } else {
      std::fprintf(stderr, "unknown experiment: %s\n", experiment.c_str());
      return 2;
    }
    if (sc->inv != nullptr) {
      // Final invariant sweep; a CLI run doesn't force-drain the queue,
      // so no quiescence expectation here.
      sc->inv->end_of_run(/*expect_quiesced=*/false);
      if (!sc->inv->ok()) {
        std::fprintf(stderr, "INVARIANT VIOLATIONS (%zu):\n%s",
                     sc->inv->violations().size(),
                     sc->inv->report().c_str());
        status = 1;
      }
      sc->inv->detach();
    }
    export_telemetry(*sc, metrics_path, trace_path);
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvcsim: %s\n", e.what());
    return 2;
  }
}
