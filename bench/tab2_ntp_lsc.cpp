// T2 — the paper's headline LSC result (§3.2):
//   "In more than 2000 tests involving 26 virtual machines on 26 different
//    nodes, no failures to either save or restore all virtual machines
//    occurred."
//
// All hosts are NTP-synchronised; per-node agents fire `vm save` at one
// agreed local-clock instant. We run 2000+ trials across both HPCC
// workloads the paper used (PTRANS: communication-heavy; HPL:
// compute-heavy) with varying checkpoint timing, and additionally verify
// whole-cluster restore on a fraction of the trials.

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Config {
  std::string name;
  bool ptrans = true;
  double iter_seconds = 0.25;
  int trials = 500;
  int index = 0;
};

struct Tally {
  int trials = 0;
  int save_ok = 0;
  int restore_attempts = 0;
  int restore_ok = 0;
  int app_failures = 0;
  sim::SummaryStats skew_ms;
  sim::SummaryStats save_s;
};

void run_trial(const Config& cfg, int trial, Tally& tally) {
  const std::uint64_t seed = 7700 + 7919ull * static_cast<std::uint64_t>(
      trial) + 1299721ull * static_cast<std::uint64_t>(cfg.index);
  const std::uint32_t kNodes = 26;
  core::MachineRoomOptions opt = paper_substrate(/*nodes=*/32, seed);
  const app::WorkloadSpec workload =
      cfg.ptrans ? steady_ptrans(kNodes, 100000, cfg.iter_seconds)
                 : steady_hpl(kNodes, 100000, cfg.iter_seconds);
  VcScenario sc(opt, /*guest_ram=*/64ull << 20, workload,
                calibrated_transport());

  ckpt::NtpLscCoordinator lsc(sc.room.sim, {}, sim::Rng(seed ^ 0x5A5A));
  lsc.set_metrics(&sc.room.metrics);
  std::optional<ckpt::LscResult> result;
  // "multiple problem sizes ... with varying times between checkpoints":
  // stagger the checkpoint instant across trials.
  const sim::Duration when = (2 + (trial % 5) * 2) * sim::kSecond;
  sc.room.sim.schedule_after(when, [&] {
    sc.room.dvc->checkpoint_vc(*sc.vc, lsc,
                               [&](ckpt::LscResult r) { result = r; });
  });

  const sim::Duration grace = 5 * sim::kSecond;
  sim::Time sealed_at = 0;
  while (sc.room.sim.now() < 600 * sim::kSecond) {
    sc.room.sim.run_until(sc.room.sim.now() + sim::kSecond);
    if (sc.application->failed()) break;
    if (result.has_value()) {
      if (sealed_at == 0) sealed_at = sc.room.sim.now();
      if (sc.room.sim.now() - sealed_at > grace) break;
    }
  }

  ++tally.trials;
  // Headline numbers come from the per-trial metrics registry: one
  // successful round leaves `ckpt.lsc.rounds` == 1 and a single
  // observation in each of the round histograms.
  const telemetry::MetricsRegistry& m = sc.room.metrics;
  const bool round_ok = m.counter_value("ckpt.lsc.rounds") > 0 &&
                        m.counter_value("ckpt.lsc.rounds_failed") == 0;
  const bool save_ok = round_ok && !sc.application->failed();
  tally.save_ok += save_ok ? 1 : 0;
  tally.app_failures += sc.application->failed() ? 1 : 0;
  if (round_ok) {
    if (const auto* skew = m.find_histogram("ckpt.lsc.pause_skew_s")) {
      tally.skew_ms.add(skew->summary().mean() * 1e3);
    }
    if (const auto* round = m.find_histogram("ckpt.lsc.round_s")) {
      tally.save_s.add(round->summary().mean());
    }
  }

  // Every fifth trial additionally restores the whole cluster from the
  // set just taken (onto the same placement, as a restart would) and
  // verifies the application resumes and progresses.
  if (save_ok && trial % 5 == 0) {
    ++tally.restore_attempts;
    sc.room.dvc->restore_vc(*sc.vc, sc.vc->placements(), [](bool) {});
    const auto iter_before = sc.application->rank(0).state().iter;
    sc.room.sim.run_until(sc.room.sim.now() + 60 * sim::kSecond);
    const bool progressed =
        sc.application->rank(0).state().iter > iter_before ||
        sc.application->completed();
    // The control plane counts a successful whole-VC restore into
    // `core.dvc.restores` (failures land in `core.dvc.restore_failures`).
    if (m.counter_value("core.dvc.restores") > 0 && progressed &&
        !sc.application->failed()) {
      ++tally.restore_ok;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  const Config configs[] = {
      {"ptrans/fast-iter", true, 0.25, 500, 0},
      {"ptrans/slow-iter", true, 0.50, 500, 1},
      {"hpl/fast-iter", false, 0.25, 500, 2},
      {"hpl/slow-iter", false, 0.50, 500, 3},
  };

  std::printf("T2: NTP-scheduled LSC — 26 VMs on 26 nodes\n");
  std::printf("    (paper: >2000 tests, zero save or restore failures)\n");

  TextTable table({"workload", "trials", "save ok", "restore ok",
                   "app failures", "skew ms (mean/max)", "ckpt time (s)"});
  int total_trials = 0;
  int total_failures = 0;
  for (const Config& cfg : configs) {
    Tally tally;
    for (int t = 0; t < cfg.trials; ++t) run_trial(cfg, t, tally);
    total_trials += tally.trials;
    total_failures += tally.trials - tally.save_ok;
    table.add_row({cfg.name, std::to_string(tally.trials),
                   std::to_string(tally.save_ok) + "/" +
                       std::to_string(tally.trials),
                   std::to_string(tally.restore_ok) + "/" +
                       std::to_string(tally.restore_attempts),
                   std::to_string(tally.app_failures),
                   fmt(tally.skew_ms.mean(), 2) + " / " +
                       fmt(tally.skew_ms.max(), 2),
                   fmt(tally.save_s.mean(), 1)});
  }
  table.print("T2  NTP LSC: saves/restores across >2000 trials");
  std::printf("total trials: %d   total save failures: %d\n", total_trials,
              total_failures);

  return 0;
}
