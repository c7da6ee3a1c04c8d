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
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr int kTrials = 500;  // per configuration

struct Config {
  std::string name;
  bool ptrans = true;
  double iter_seconds = 0.25;
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

  /// Folds in one trial's tally, whose stats hold at most one value each.
  void add(const Tally& t) {
    trials += t.trials;
    save_ok += t.save_ok;
    restore_attempts += t.restore_attempts;
    restore_ok += t.restore_ok;
    app_failures += t.app_failures;
    if (t.skew_ms.count() > 0) skew_ms.add(t.skew_ms.mean());
    if (t.save_s.count() > 0) save_s.add(t.save_s.mean());
  }
};

void run_trial(const Config& cfg, int trial, Tally& tally) {
  const std::uint64_t seed = 7700 + 7919ull * static_cast<std::uint64_t>(
      trial) + 1299721ull * static_cast<std::uint64_t>(cfg.index);
  const std::uint32_t kNodes = 26;
  const app::WorkloadSpec workload =
      cfg.ptrans ? steady_ptrans(kNodes, 100000, cfg.iter_seconds)
                 : steady_hpl(kNodes, 100000, cfg.iter_seconds);
  tools::CellSpec spec = vc_cell(paper_substrate(/*nodes=*/32, seed),
                                 /*guest_ram=*/64ull << 20, workload,
                                 calibrated_transport());
  spec.lsc_seed = seed ^ 0x5A5A;
  tools::CellRig rig(spec);
  std::optional<ckpt::LscResult> result;
  // "multiple problem sizes ... with varying times between checkpoints":
  // stagger the checkpoint instant across trials.
  const sim::Duration when = (2 + (trial % 5) * 2) * sim::kSecond;
  rig.room.sim.schedule_after(when, [&] {
    rig.room.dvc->checkpoint_vc(*rig.vc, *rig.lsc,
                                [&](ckpt::LscResult r) { result = r; });
  });

  const sim::Duration grace = 5 * sim::kSecond;
  sim::Time sealed_at = 0;
  while (rig.room.sim.now() < 600 * sim::kSecond) {
    rig.room.sim.run_until(rig.room.sim.now() + sim::kSecond);
    if (rig.application->failed()) break;
    if (result.has_value()) {
      if (sealed_at == 0) sealed_at = rig.room.sim.now();
      if (rig.room.sim.now() - sealed_at > grace) break;
    }
  }

  ++tally.trials;
  // Headline numbers come from the per-trial metrics registry: one
  // successful round leaves `ckpt.lsc.rounds` == 1 and a single
  // observation in each of the round histograms.
  const telemetry::MetricsRegistry& m = rig.room.metrics;
  const bool round_ok = m.counter_value("ckpt.lsc.rounds") > 0 &&
                        m.counter_value("ckpt.lsc.rounds_failed") == 0;
  const bool save_ok = round_ok && !rig.application->failed();
  tally.save_ok += save_ok ? 1 : 0;
  tally.app_failures += rig.application->failed() ? 1 : 0;
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
    rig.room.dvc->restore_vc(*rig.vc, rig.vc->placements(), [](bool) {});
    const auto iter_before = rig.application->rank(0).state().iter;
    rig.room.sim.run_until(rig.room.sim.now() + 60 * sim::kSecond);
    const bool progressed =
        rig.application->rank(0).state().iter > iter_before ||
        rig.application->completed();
    // The control plane counts a successful whole-VC restore into
    // `core.dvc.restores` (failures land in `core.dvc.restore_failures`).
    if (m.counter_value("core.dvc.restores") > 0 && progressed &&
        !rig.application->failed()) {
      ++tally.restore_ok;
    }
  }
  tools::check_trial(*rig.inv, "tab2_ntp_lsc",
                     cfg.name + " #" + std::to_string(trial));
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  const Config configs[] = {
      {"ptrans/fast-iter", true, 0.25, 0},
      {"ptrans/slow-iter", true, 0.50, 1},
      {"hpl/fast-iter", false, 0.25, 2},
      {"hpl/slow-iter", false, 0.50, 3},
  };
  // Trials run on the worker pool, one tally each, folded in trial order.
  std::vector<Tally> trials(std::size(configs) * kTrials);
  tools::run_indexed(trials.size(), /*jobs=*/0, [&](std::size_t i) {
    run_trial(configs[i / kTrials], static_cast<int>(i % kTrials), trials[i]);
  });

  std::printf("T2: NTP-scheduled LSC — 26 VMs on 26 nodes\n");
  std::printf("    (paper: >2000 tests, zero save or restore failures)\n");

  TextTable table({"workload", "trials", "save ok", "restore ok",
                   "app failures", "skew ms (mean/max)", "ckpt time (s)"});
  int total_trials = 0;
  int total_failures = 0;
  for (const Config& cfg : configs) {
    Tally tally;
    for (int t = 0; t < kTrials; ++t) {
      tally.add(trials[cfg.index * kTrials + t]);
    }
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
