// dvcsim — scenario-driven Dynamic Virtual Clustering simulator.
//
//   dvcsim <scenario-file> [--metrics-json=PATH] [--chrome-trace=PATH]
//
// --metrics-json writes every counter/gauge/histogram of the run as
// deterministic JSON; --chrome-trace writes the sim-time span timeline in
// Chrome trace_event format (open in chrome://tracing or Perfetto). Both
// are also settable as scenario keys (metrics_json / chrome_trace); the
// command line wins. The room records its span timeline only when one of
// the two exports is asked for (tools::CellSpec::timeline): the metrics
// JSON's `"spans"`/`"instants"` counts and the trace read it, nothing
// else does.
//
// A scenario file is `key = value` lines (# comments). tools::cell_spec
// (tools/sweep.cpp) reads it and tools::CellRig assembles the simulation,
// the same one a dvcsweep cell runs. The reliability experiment drives it
// with the rig's own loop (CellRig::drive) and the summary prints the
// rig's outcome counters (CellRig::outcome), as dvcsweep does; this file
// picks the experiment and reports. Keep the list below in step with
// scenario_keys() and the reader's defaults. Count keys
// (sizes, iterations, replicas, retries) reject values their field cannot
// hold. Keys:
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
//                         (the three feed CellRig::drive, the loop of a
//                         dvcsweep cell, whose defaults are 3600/10/30)
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

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "tools/scenario_keys.hpp"
#include "tools/sweep.hpp"

using namespace dvc;  // NOLINT — CLI brevity

namespace {

void print_summary(tools::CellRig& rig) {
  const app::JobStats st = rig.application->stats();
  const tools::CellOutcome o = rig.outcome();
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf("\n==== dvcsim summary ====\n");
  std::printf("completed:       %s\n",
              rig.application->completed()
                  ? "yes"
                  : (rig.application->failed() ? "no (job FAILED)"
                                              : "no (open-ended run)"));
  if (rig.application->completed()) {
    std::printf("wall time:       %.0f s\n", st.makespan_s);
  } else {
    std::printf("simulated time:  %.0f s\n", o.sim_time_s);
  }
  std::printf("compute done:    %.0f s/rank (incl. redone)\n",
              st.compute_done_s);
  std::printf("messages:        %llu (%llu retransmitted, %llu dups)\n",
              u(st.messages), u(st.retransmissions), u(st.duplicates));
  std::printf("node failures:   %llu (%llu predicted)\n",
              u(rig.room.fabric.failures_injected()),
              u(rig.room.fabric.failures_predicted()));
  std::printf("checkpoints:     %llu\n", u(o.checkpoints));
  std::printf("recoveries:      %llu   evacuations: %llu   migrations:"
              " %llu (+%llu live)\n",
              u(o.recoveries), u(rig.room.dvc->evacuations_performed()),
              u(rig.room.dvc->migrations_performed()),
              u(rig.room.dvc->live_migrations_performed()));
  if (rig.injector != nullptr) {
    std::printf("faults injected: %llu (%llu lifted, %llu skipped)\n",
                u(o.faults_injected), u(o.faults_lifted),
                u(rig.injector->skipped_total()));
    std::printf("lsc retries:     %llu (%llu timeouts)   watchdog hits:"
                " %llu\n",
                u(o.lsc_retries),
                u(rig.room.metrics.counter_value("ckpt.lsc.round_timeouts")),
                u(o.watchdog));
    std::printf("durability:      %llu verify failures, %llu replica"
                " failovers, %llu generation fallbacks, %llu abandoned\n",
                u(o.verify_failures), u(o.failovers), u(o.fallbacks),
                u(o.abandoned));
  }
  if (o.coordinator_crashes > 0) {
    std::printf("coordinator:     %llu crashes, %llu reboots, %llu fenced"
                " writes, %llu orphan sets swept\n",
                u(o.coordinator_crashes), u(o.coordinator_reboots),
                u(o.fenced_writes), u(o.orphans_swept));
  }
}

int run_reliability(tools::CellRig& rig,
                    const tools::ScenarioConfig& cfg) {
  rig.start_recovery();
  rig.drive(sim::from_seconds(cfg.get_double(
                "horizon_s", sim::to_seconds(100 * sim::kHour))),
            sim::from_seconds(cfg.get_double("slice_s", 10.0)),
            sim::from_seconds(cfg.get_double("settle_s", 0.0)));
  print_summary(rig);
  if (!rig.application->completed()) {
    // A reliability run that ends without finishing the job is a failure:
    // either recovery gave up with a diagnosis (kFailed) or the VC wedged
    // until the horizon. Exit nonzero so CI and scripts notice.
    const char* why = "did not complete by the simulation horizon";
    if (rig.vc->state() == core::VcState::kFailed) {
      why = "recovery abandoned (every generation damaged or retries"
            " exhausted)";
    } else if (rig.application->failed()) {
      why = "application failed without a successful recovery";
    } else if (rig.vc->state() == core::VcState::kRecovering) {
      why = "wedged in recovery at the horizon";
    }
    std::printf("UNRECOVERED VC:  %s\n", why);
    return 1;
  }
  return 0;
}

int run_checkpoint(tools::CellRig& rig) {
  // One coordinated checkpoint, then a whole-cluster restore: the T2
  // experiment as a scenario.
  std::optional<ckpt::LscResult> result;
  rig.room.sim.schedule_after(5 * sim::kSecond, [&] {
    rig.room.dvc->checkpoint_vc(*rig.vc, *rig.lsc,
                               [&](ckpt::LscResult r) { result = r; });
  });
  while (!result.has_value()) {
    rig.room.sim.run_until(rig.room.sim.now() + sim::kSecond);
  }
  std::printf("checkpoint %s: skew %.2f ms, %.1f s total\n",
              result->ok ? "sealed" : "FAILED",
              sim::to_milliseconds(result->pause_skew),
              sim::to_seconds(result->total_time));
  bool restored = false;
  rig.room.dvc->restore_vc(*rig.vc, rig.vc->placements(),
                          [&](bool ok) { restored = ok; });
  rig.room.sim.run_until(rig.room.sim.now() + 120 * sim::kSecond);
  std::printf("restore: %s\n", restored ? "ok" : "FAILED");
  rig.room.sim.run_until(rig.room.sim.now() + 60 * sim::kSecond);
  print_summary(rig);
  return (result->ok && restored && !rig.application->failed()) ? 0 : 1;
}

int run_migrate(tools::CellRig& rig, const tools::ScenarioConfig& cfg) {
  const double at_s = cfg.get_double("migrate_at_s", 60.0);
  const bool live = cfg.get_bool("live", true);
  const auto size = rig.vc->size();
  bool done = false;
  bool ok = false;
  rig.room.sim.run_until(sim::from_seconds(at_s));
  const auto target = rig.room.dvc->pick_nodes(size);
  if (!target) {
    std::printf("no target nodes free for migration\n");
    return 1;
  }
  if (live) {
    rig.room.dvc->live_migrate_vc(
        *rig.vc, *target, {},
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
    rig.room.dvc->migrate_vc(*rig.vc, *rig.lsc, *target, [&](bool r) {
      done = true;
      ok = r;
    });
  }
  while (!done && rig.room.sim.now() < 2 * sim::kHour) {
    rig.room.sim.run_until(rig.room.sim.now() + sim::kSecond);
  }
  rig.room.sim.run_until(rig.room.sim.now() + 60 * sim::kSecond);
  print_summary(rig);
  return (ok && !rig.application->failed()) ? 0 : 1;
}

/// Writes the run's telemetry to the requested files (empty path = skip).
void export_telemetry(tools::CellRig& rig, const std::string& metrics_path,
                      const std::string& trace_path) {
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) throw std::runtime_error("cannot write " + metrics_path);
    rig.room.metrics.write_metrics_json(out);
    std::printf("metrics:         %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot write " + trace_path);
    rig.room.metrics.write_chrome_trace(out);
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
    tools::CellSpec spec = tools::cell_spec(cfg);
    spec.timeline = !metrics_path.empty() || !trace_path.empty();
    tools::CellRig rig(spec);
    if (rig.injector != nullptr) {
      std::printf("fault injector:  %zu events armed\n", rig.faults_armed);
    }
    const std::string experiment =
        cfg.get_string("experiment", "reliability");
    int status = 2;
    if (experiment == "reliability") {
      status = run_reliability(rig, cfg);
    } else if (experiment == "checkpoint") {
      status = run_checkpoint(rig);
    } else if (experiment == "migrate") {
      status = run_migrate(rig, cfg);
    } else {
      std::fprintf(stderr, "unknown experiment: %s\n", experiment.c_str());
      return 2;
    }
    if (rig.inv != nullptr) {
      // Final invariant sweep; a CLI run doesn't force-drain the queue,
      // so no quiescence expectation here.
      rig.inv->end_of_run(/*expect_quiesced=*/false);
      if (!rig.inv->ok()) {
        std::fprintf(stderr, "INVARIANT VIOLATIONS (%zu):\n%s",
                     rig.inv->violations().size(),
                     rig.inv->report().c_str());
        status = 1;
      }
    }
    export_telemetry(rig, metrics_path, trace_path);
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvcsim: %s\n", e.what());
    return 2;
  }
}
