// A4 — ablation: the transport retry budget is the load-bearing constant
// of the whole LSC argument ("Reliable network protocols will not retry
// sending forever", §3). With a fixed 10-node naive checkpoint, we sweep
// the number of retransmissions the transport tolerates: small budgets
// make even modest skew fatal; generous budgets forgive the naive
// coordinator entirely.

#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "scenario.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

double run(int max_retries, int trials) {
  int failures = 0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 930000 + 41ull * t + max_retries;
    net::ReliableConfig transport;
    transport.max_retries = max_retries;
    VcScenario sc(paper_substrate(10, seed), /*guest_ram=*/1ull << 30,
                  steady_ptrans(10, 100000), transport);
    ckpt::NaiveLscCoordinator lsc(sc.room.sim, {}, sim::Rng(seed ^ 0x7E));
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
        // Grace must exceed the largest swept retry budget.
        if (sc.application->failed() ||
            sc.room.sim.now() - decided > 120 * sim::kSecond) {
          break;
        }
      }
    }
    failures += (sc.application->failed() || !result.has_value() ||
                 !result->ok)
                    ? 1
                    : 0;
  }
  return static_cast<double>(failures) / trials;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A4: naive LSC at 10 nodes vs. transport retry budget\n");

  TextTable table({"max retries", "retry budget (s)", "failure rate"});
  constexpr int kTrials = 40;
  for (const int retries : {4, 5, 6, 7, 8}) {
    net::ReliableConfig cfg;
    cfg.max_retries = retries;
    const double budget_s = sim::to_seconds(cfg.retry_budget());
    const double rate = run(retries, kTrials);
    table.add_row({std::to_string(retries), fmt(budget_s, 1),
                   fmt_pct(rate)});
  }
  table.print("A4  failure rate vs. retry budget (10-node naive LSC)");
  std::printf("the knee tracks the budget: the same skewed coordinator is\n"
              "fatal or harmless depending only on how long the transport\n"
              "keeps retrying.\n");

  return 0;
}
