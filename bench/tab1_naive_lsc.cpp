// T1 — the paper's naive-LSC scaling result (§3.1):
//   "The attempts at synchronizing the execution of a save command did not
//    scale beyond 8 nodes, with 10 nodes failing 50% of the time and 12
//    nodes failing 90% of the time."
//
// One program writes `vm save` down a terminal per node; the cumulative
// dispatch skew races the guests' TCP retry budget. We sweep the virtual
// cluster size and report the checkpoint failure rate.

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct TrialOutcome {
  bool failed = false;
  double skew_s = 0.0;
  double save_s = 0.0;
};

TrialOutcome run_trial(std::uint32_t nodes, std::uint64_t seed) {
  tools::CellRig rig(vc_cell(paper_substrate(nodes, seed),
                             /*guest_ram=*/1ull << 30,
                             steady_ptrans(nodes, 100000),
                             calibrated_transport()));
  ckpt::NaiveLscCoordinator lsc(rig.room.sim, sim::Rng(seed ^ 0x17A));
  lsc.set_metrics(&rig.room.metrics);
  lsc.set_check(rig.inv.get());
  checkpoint_and_settle(rig, lsc, /*grace=*/15 * sim::kSecond,
                        /*horizon=*/1000 * sim::kSecond);
  // The headline numbers come from the room-wide metrics registry: the
  // coordinator observed the round's skew and duration into `ckpt.lsc.*`
  // histograms as it ran (one round per trial, so the mean is the value).
  const telemetry::MetricsRegistry& m = rig.room.metrics;
  TrialOutcome out;
  out.failed = rig.application->failed() ||
               m.counter_value("ckpt.lsc.rounds_failed") > 0 ||
               m.counter_value("ckpt.lsc.rounds") == 0;
  if (const auto* skew = m.find_histogram("ckpt.lsc.pause_skew_s")) {
    out.skew_s = skew->summary().mean();
  }
  if (const auto* round = m.find_histogram("ckpt.lsc.round_s")) {
    out.save_s = round->summary().mean();
  }
  tools::check_trial(*rig.inv, "tab1_naive_lsc",
                     std::to_string(nodes) + " nodes, seed " +
                         std::to_string(seed));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  constexpr int kTrials = 60;
  const std::uint32_t node_counts[] = {2, 4, 6, 8, 10, 12};

  std::printf("T1: naive LSC — parallel `vm save` over terminal fan-out\n");
  std::printf("    (paper: ok through 8 nodes, 50%% fail @ 10, 90%% @ 12)\n");

  TextTable table({"nodes", "trials", "failure rate", "paper", "mean skew (s)",
                   "mean ckpt time (s)"});
  for (const std::uint32_t n : node_counts) {
    int failures = 0;
    sim::SummaryStats skew;
    sim::SummaryStats save;
    for (int t = 0; t < kTrials; ++t) {
      const TrialOutcome out =
          run_trial(n, 1000ull * n + static_cast<std::uint64_t>(t));
      failures += out.failed ? 1 : 0;
      if (out.skew_s > 0) skew.add(out.skew_s);
      if (out.save_s > 0) save.add(out.save_s);
    }
    const double rate = static_cast<double>(failures) / kTrials;
    const char* paper = n <= 8 ? "~0%" : (n == 10 ? "50%" : "90%");
    table.add_row({std::to_string(n), std::to_string(kTrials),
                   fmt_pct(rate), paper, fmt(skew.mean()),
                   fmt(save.mean(), 1)});
  }
  table.print("T1  naive LSC failure rate vs. cluster size");

  return 0;
}
