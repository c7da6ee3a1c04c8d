// A1 — ablation: how much clock synchronisation does NTP-LSC actually
// need? The paper's §3.1 argues "a few milliseconds" of NTP error is
// sufficient. We sweep the host-clock error (no NTP correction; offsets
// drawn with the given spread) and measure the checkpoint failure rate at
// 26 VMs — the knee sits where the firing skew approaches the transport's
// tolerance for a silent peer.

#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct Outcome {
  double failure_rate = 0.0;
  double mean_skew_s = 0.0;
};

Outcome run(sim::Duration offset_stddev, int trials) {
  int failures = 0;
  sim::SummaryStats skew;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 910000 + 31ull * t +
                               static_cast<std::uint64_t>(offset_stddev);
    core::MachineRoomOptions opt = paper_substrate(32, seed);
    opt.time.initial_offset_stddev = offset_stddev;
    opt.presync_clocks = false;  // raw clock error, no NTP discipline
    VcScenario sc(opt, /*guest_ram=*/1ull << 30,
                  steady_ptrans(26, 100000), calibrated_transport());
    ckpt::NtpLscCoordinator lsc(sc.room.sim, {}, sim::Rng(seed ^ 0xAB));
    std::optional<ckpt::LscResult> result;
    sc.room.sim.schedule_after(2 * sim::kSecond, [&] {
      sc.room.dvc->checkpoint_vc(*sc.vc, lsc,
                                 [&](ckpt::LscResult r) { result = r; });
    });
    sim::Time decided = 0;
    while (sc.room.sim.now() < 1500 * sim::kSecond) {
      sc.room.sim.run_until(sc.room.sim.now() + sim::kSecond);
      if (result.has_value()) {
        if (decided == 0) decided = sc.room.sim.now();
        if (sc.application->failed() ||
            sc.room.sim.now() - decided > 15 * sim::kSecond) {
          break;
        }
      }
    }
    const bool failed = sc.application->failed() || !result.has_value() ||
                        !result->ok;
    failures += failed ? 1 : 0;
    if (result.has_value()) {
      skew.add(sim::to_seconds(result->pause_skew));
    }
  }
  return {static_cast<double>(failures) / trials, skew.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A1: NTP-LSC sensitivity to clock error (26 VMs, calibrated"
              " transport)\n");

  TextTable table({"clock error stddev", "trials", "mean fire skew (s)",
                   "checkpoint failure rate"});
  const sim::Duration stddevs[] = {
      1 * sim::kMillisecond,   10 * sim::kMillisecond,
      100 * sim::kMillisecond, 500 * sim::kMillisecond,
      1 * sim::kSecond,        2 * sim::kSecond,
      4 * sim::kSecond};
  constexpr int kTrials = 50;
  for (const sim::Duration sd : stddevs) {
    const Outcome o = run(sd, kTrials);
    table.add_row({fmt(sim::to_milliseconds(sd), 0) + " ms",
                   std::to_string(kTrials), fmt(o.mean_skew_s, 3),
                   fmt_pct(o.failure_rate)});
  }
  table.print("A1  failure rate vs. clock synchronisation quality");
  std::printf("paper: millisecond NTP sync leaves orders of magnitude of\n"
              "margin; only multi-second clock error endangers the cut.\n");

  return 0;
}
