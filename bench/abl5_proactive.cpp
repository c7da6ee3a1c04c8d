// A5 — the paper's §1 fault-avoidance claim, quantified: DVC promotes
// "both failure recovery, and avoidance of job failure when hardware
// faults can be predicted." When health monitoring announces a fault
// ahead of time, the whole virtual cluster is migrated off the suspect
// node *before* it dies (no lost work); otherwise the job rolls back to
// the last checkpoint (losing up to one interval).

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

constexpr std::uint32_t kRanks = 16;
constexpr std::uint32_t kIterations = 1500;  // x ~0.5 s = ~750 s useful
constexpr double kIterSeconds = 0.5;

struct Outcome {
  bool completed = false;
  double completion_s = 0.0;
  double wasted_s = 0.0;
  std::uint64_t evacuations = 0;
  std::uint64_t rollbacks = 0;
};

Outcome run(bool proactive, double predicted_fraction, std::uint64_t seed) {
  tools::CellSpec spec =
      vc_cell(paper_substrate(24, seed, /*write_bps=*/200e6),
              /*guest_ram=*/128ull << 20,
              steady_ptrans(kRanks, kIterations, kIterSeconds));
  spec.lsc_seed = seed ^ 0xE7;
  spec.recovery.interval = 300 * sim::kSecond;
  spec.recovery.proactive_migration = proactive;
  // Half (or all) the faults announce themselves 2 minutes ahead.
  spec.failures = {.mtbf = 15000 * sim::kSecond,
                   .repair = 1800 * sim::kSecond,
                   .predicted_fraction = predicted_fraction,
                   .prediction_lead = 120 * sim::kSecond};
  tools::CellRig rig(spec);
  rig.start_recovery();
  const sim::Duration ran = run_job(rig, 30000 * sim::kSecond);

  Outcome out;
  out.completed = rig.application->completed();
  out.completion_s = sim::to_seconds(ran);
  const double useful_s = kIterations * kIterSeconds / 0.97;
  out.wasted_s =
      std::max(0.0, rig.application->stats().compute_done_s - useful_s);
  out.evacuations = rig.room.dvc->evacuations_performed();
  out.rollbacks = rig.room.dvc->recoveries_performed();
  tools::check_trial(*rig.inv, "abl5_proactive",
                     fmt_pct(predicted_fraction, 0) +
                         (proactive ? " predicted, proactive" : " predicted"));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A5: reactive rollback vs. proactive evacuation under"
              " predicted faults\n");
  std::printf("    (16 VMs, ckpt every 300 s, fault warnings 120 s ahead)\n");

  TextTable table({"policy", "predicted faults", "completed",
                   "completion (s)", "evacuations", "rollbacks",
                   "wasted compute (s)"});

  struct Case {
    const char* name;
    bool proactive;
    double predicted;
  };
  const Case cases[] = {
      {"reactive only", false, 1.0},
      {"proactive", true, 0.5},
      {"proactive", true, 1.0},
  };
  for (const Case& c : cases) {
    const Outcome o = run(c.proactive, c.predicted, 616);
    table.add_row({c.name, fmt_pct(c.predicted, 0),
                   o.completed ? "yes" : "NO", fmt(o.completion_s, 0),
                   std::to_string(o.evacuations),
                   std::to_string(o.rollbacks), fmt(o.wasted_s, 0)});
  }
  table.print("A5  predicted faults: evacuate instead of roll back");
  std::printf("an evacuation costs one freeze (save+restore) but redoes\n"
              "nothing; a rollback redoes up to a checkpoint interval.\n");

  return 0;
}
