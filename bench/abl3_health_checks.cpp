// A3 — the paper's §4 future work, implemented and measured: "This
// implementation does not take into account a heavily loaded server which
// may not be able to service a checkpoint request immediately, and it does
// not check neighboring processes to make certain that the sleeping
// checkpoint process is still executing."
//
// We starve each per-node agent with some probability. Without the
// coordinated health check a starved agent fires late and the skewed save
// kills the application; with it, the round is abandoned *before any guest
// freezes* and retried — the application never notices.

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Outcome {
  double app_failure_rate = 0.0;
  double ckpt_success_rate = 0.0;
  double clean_abort_rate = 0.0;
};

Outcome run(double stall_prob, bool health_check, int trials) {
  int app_failures = 0;
  int ckpt_ok = 0;
  int clean_aborts = 0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed =
        820000 + 37ull * t + (health_check ? 7 : 0) +
        static_cast<std::uint64_t>(stall_prob * 1000);
    tools::CellSpec spec = vc_cell(paper_substrate(12, seed),
                                   /*guest_ram=*/1ull << 30,
                                   steady_ptrans(12, 100000),
                                   calibrated_transport());
    spec.lsc.stall_prob = stall_prob;
    spec.lsc.health_check = health_check;
    spec.lsc_seed = seed ^ 0x4C;
    tools::CellRig rig(spec);
    const std::optional<ckpt::LscResult> result =
        checkpoint_and_settle(rig, *rig.lsc, /*grace=*/15 * sim::kSecond);
    app_failures += rig.application->failed() ? 1 : 0;
    if (result.has_value()) {
      ckpt_ok += (result->ok && !rig.application->failed()) ? 1 : 0;
      clean_aborts += result->aborted_cleanly ? 1 : 0;
    }
    tools::check_trial(*rig.inv, "abl3_health_checks",
                       "stall " + fmt_pct(stall_prob, 0) + ", health check " +
                           (health_check ? "on" : "off") + " #" +
                           std::to_string(t));
  }
  Outcome o;
  o.app_failure_rate = static_cast<double>(app_failures) / trials;
  o.ckpt_success_rate = static_cast<double>(ckpt_ok) / trials;
  o.clean_abort_rate = static_cast<double>(clean_aborts) / trials;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A3: loaded hosts — health-checked LSC vs. blind LSC\n");
  std::printf("    (12 VMs; a starved agent fires ~30 s late)\n");

  TextTable table({"stall prob", "health check", "app killed",
                   "ckpt succeeded", "aborted cleanly"});
  constexpr int kTrials = 40;
  for (const double p : {0.05, 0.15, 0.30}) {
    for (const bool hc : {false, true}) {
      const Outcome o = run(p, hc, kTrials);
      table.add_row({fmt_pct(p, 0), hc ? "on (future work)" : "off (paper)",
                     fmt_pct(o.app_failure_rate),
                     fmt_pct(o.ckpt_success_rate),
                     fmt_pct(o.clean_abort_rate)});
    }
  }
  table.print("A3  the health check converts crashes into clean retries");

  return 0;
}
