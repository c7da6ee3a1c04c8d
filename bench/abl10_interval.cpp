// A10 — ablation: picking the checkpoint interval. T4/T9 show the
// trade-off empirically; checkpoint-interval theory (Young 1974 / Daly
// 2006) predicts the optimum from two measurable quantities: the cost of
// one coordinated save and the system MTBF. This bench sweeps the
// interval in the simulator and overlays the closed-form predictions —
// the operator guidance a real DVC deployment would ship with.

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "ckpt/interval.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr std::uint32_t kRanks = 12;
constexpr std::uint32_t kIterations = 2000;  // x ~1 s = ~2000 s useful
constexpr double kIterSeconds = 1.0;
constexpr sim::Duration kMtbfPerNode = 9000 * sim::kSecond;
// System MTBF ~ per-node MTBF / ranks = 750 s for the 12 busy nodes.

double run_once(sim::Duration interval, std::uint64_t seed) {
  tools::CellSpec spec =
      vc_cell(paper_substrate(kRanks + 4, seed, /*write_bps=*/200e6),
              /*guest_ram=*/128ull << 20,
              steady_ptrans(kRanks, kIterations, kIterSeconds));
  spec.lsc_seed = seed ^ 0x10;
  spec.recovery.interval = interval;
  spec.failures = {.mtbf = kMtbfPerNode, .repair = 1200 * sim::kSecond};
  tools::CellRig rig(spec);
  rig.start_recovery();
  const sim::Duration ran = run_job(rig, 50000 * sim::kSecond);
  tools::check_trial(*rig.inv, "abl10_interval",
                     "interval " + std::to_string(interval / sim::kSecond) +
                         " s, seed " + std::to_string(seed));
  return rig.application->completed() ? sim::to_seconds(ran) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  // Measured quantities feeding the theory.
  const double ckpt_cost_s =
      kRanks * (128.0 * (1 << 20)) / 200e6;  // ~7.9 s coordinated save
  const double system_mtbf_s =
      sim::to_seconds(kMtbfPerNode) / kRanks;  // ~750 s
  const double restart_s = 1.0 + kRanks * (128.0 * (1 << 20)) / 400e6 + 2.0;
  const sim::Duration young = ckpt::young_interval(
      sim::from_seconds(ckpt_cost_s), sim::from_seconds(system_mtbf_s));
  const sim::Duration daly = ckpt::daly_interval(
      sim::from_seconds(ckpt_cost_s), sim::from_seconds(system_mtbf_s));

  std::printf("A10: checkpoint interval — simulation vs. Young/Daly\n");
  std::printf("     save cost ~%.1f s, system MTBF ~%.0f s\n", ckpt_cost_s,
              system_mtbf_s);
  std::printf("     Young optimum: %.0f s   Daly optimum: %.0f s\n",
              sim::to_seconds(young), sim::to_seconds(daly));

  TextTable table({"interval (s)", "runs", "mean completion (s)",
                   "model E[runtime] (s)", "note"});
  const sim::Duration intervals[] = {
      30 * sim::kSecond,  60 * sim::kSecond,  120 * sim::kSecond,
      240 * sim::kSecond, 480 * sim::kSecond, 960 * sim::kSecond};
  constexpr int kSeeds = 3;
  double best_mean = 1e18;
  sim::Duration best_interval = 0;
  for (const sim::Duration interval : intervals) {
    sim::SummaryStats completion;
    for (int s = 0; s < kSeeds; ++s) {
      const double t = run_once(interval, 5200 + 977ull * s);
      if (t > 0) completion.add(t);
    }
    const double model = ckpt::expected_runtime_s(
        kIterations * kIterSeconds / 0.97, ckpt_cost_s, restart_s,
        system_mtbf_s, sim::to_seconds(interval));
    if (completion.mean() < best_mean && completion.count() > 0) {
      best_mean = completion.mean();
      best_interval = interval;
    }
    std::string note;
    const double i_s = sim::to_seconds(interval);
    if (i_s / sim::to_seconds(young) > 0.5 &&
        i_s / sim::to_seconds(young) < 2.0) {
      note = "~ Young/Daly optimum";
    }
    table.add_row({std::to_string(interval / sim::kSecond),
                   std::to_string(completion.count()),
                   fmt(completion.mean(), 0), fmt(model, 0), note});
  }
  table.print("A10  completion time vs. checkpoint interval");
  std::printf("simulated optimum: %lld s   (Young %.0f s, Daly %.0f s)\n",
              static_cast<long long>(best_interval / sim::kSecond),
              sim::to_seconds(young), sim::to_seconds(daly));
  std::printf("the closed forms land on the simulated sweet spot — the\n"
              "right way to configure RecoveryPolicy::interval is from the\n"
              "measured save cost and system MTBF, not folklore.\n");

  return 0;
}
