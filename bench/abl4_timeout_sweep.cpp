// A4 — ablation: the transport retry budget is the load-bearing constant
// of the whole LSC argument ("Reliable network protocols will not retry
// sending forever", §3). With a fixed 10-node naive checkpoint, we sweep
// the number of retransmissions the transport tolerates: small budgets
// make even modest skew fatal; generous budgets forgive the naive
// coordinator entirely.

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

/// Whether trial `t` at `max_retries` lost its checkpoint or its job.
bool run_trial(int max_retries, int t) {
  const std::uint64_t seed = 930000 + 41ull * t + max_retries;
  net::ReliableConfig transport;
  transport.max_retries = max_retries;
  tools::CellRig rig(vc_cell(paper_substrate(10, seed),
                             /*guest_ram=*/1ull << 30,
                             steady_ptrans(10, 100000), transport));
  ckpt::NaiveLscCoordinator lsc(rig.room.sim, sim::Rng(seed ^ 0x7E));
  lsc.set_check(rig.inv.get());
  // Grace must exceed the largest swept retry budget.
  const std::optional<ckpt::LscResult> result =
      checkpoint_and_settle(rig, lsc, /*grace=*/120 * sim::kSecond);
  tools::check_trial(*rig.inv, "abl4_timeout_sweep",
                     std::to_string(max_retries) + " retries #" +
                         std::to_string(t));
  return rig.application->failed() || !result.has_value() || !result->ok;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("A4: naive LSC at 10 nodes vs. transport retry budget\n");

  TextTable table({"max retries", "retry budget (s)", "failure rate"});
  constexpr int kTrials = 40;
  const int retry_counts[] = {4, 5, 6, 7, 8};
  // One byte per trial: workers write neighbouring entries at once.
  std::vector<char> failed(std::size(retry_counts) * kTrials);
  tools::run_indexed(failed.size(), /*jobs=*/0, [&](std::size_t i) {
    failed[i] = run_trial(retry_counts[i / kTrials],
                          static_cast<int>(i % kTrials));
  });
  for (std::size_t r = 0; r < std::size(retry_counts); ++r) {
    net::ReliableConfig cfg;
    cfg.max_retries = retry_counts[r];
    const double budget_s = sim::to_seconds(cfg.retry_budget());
    int failures = 0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      failures += failed[r * kTrials + t] ? 1 : 0;
    }
    const double rate = static_cast<double>(failures) / kTrials;
    table.add_row({std::to_string(retry_counts[r]), fmt(budget_s, 1),
                   fmt_pct(rate)});
  }
  table.print("A4  failure rate vs. retry budget (10-node naive LSC)");
  std::printf("the knee tracks the budget: the same skewed coordinator is\n"
              "fatal or harmless depending only on how long the transport\n"
              "keeps retrying.\n");

  return 0;
}
