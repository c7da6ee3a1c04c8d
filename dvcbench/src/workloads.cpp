#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "app/workload.hpp"
#include "core/virtual_cluster.hpp"
#include "fleet.hpp"
#include "grid_workload.hpp"

namespace dvcbench {

void LayerTally::add_registry(const dvc::telemetry::MetricsRegistry& m) {
  packets_sent += m.counter_value("net.network.packets_sent");
  packets_delivered += m.counter_value("net.network.packets_delivered");
  retransmissions += m.counter_value("net.endpoint.retransmissions");
  dropped_dark += m.counter_value("net.network.packets_dropped_dark");
  saves += m.counter_value("vm.hypervisor.saves");
  bytes_saved += m.counter_value("vm.hypervisor.bytes_saved");
  write_bytes += m.counter_value("storage.write_pool.bytes");
  replica_copy_bytes += m.counter_value("storage.replica.copy_bytes");
  sets_opened += m.counter_value("storage.images.sets_opened");
  sets_sealed += m.counter_value("storage.images.sets_sealed");
  rounds += m.counter_value("ckpt.lsc.rounds");
  round_retries += m.counter_value("ckpt.lsc.round_retries");
  recoveries += m.counter_value("core.dvc.recoveries");
  restore_fallbacks += m.counter_value("core.dvc.restore_fallbacks");
  wal_appends += m.counter_value("core.dvc.wal_appends");
  faults_injected += m.counter_value("fault.injected");
  faults_skipped += m.counter_value("fault.skipped");
  jobs_started += m.counter_value("rm.scheduler.jobs_started");
  jobs_backfilled += m.counter_value("rm.scheduler.jobs_backfilled");

  for (const dvc::telemetry::Span& s : m.spans()) {
    if (s.open) continue;
    const double d = dvc::sim::to_seconds(s.end - s.begin);
    if (s.name == "save" && s.track.rfind("vm/", 0) == 0) {
      save_s.push_back(d);
    } else if (s.track == "lsc" && s.name == "round") {
      round_s.push_back(d);
    } else if (s.track == "lsc" && s.name == "freeze_window") {
      pause_skew_s.push_back(d);
    }
  }
  if (const auto* h =
          m.find_histogram("storage.write_pool.contention_wait_s")) {
    const auto& counts = h->bucket_counts();
    if (wait_buckets.size() < counts.size()) {
      wait_buckets.resize(counts.size(), 0);
      wait_bounds.resize(counts.size(), 0.0);
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      wait_buckets[i] += counts[i];
      // The overflow bucket has no bound; its samples read as the max.
      wait_bounds[i] = i + 1 < counts.size() ? h->bucket_bound(i)
                                             : h->summary().max();
    }
  }

  spans_recorded += m.spans().size() + m.instants().size();
  // One exported line per instrument: counters, gauges and histograms are
  // each written as `    "<name>": ...` lines.
  std::ostringstream exported;
  m.write_metrics_json(exported);
  std::istringstream lines(exported.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("    \"", 0) == 0) ++instruments;
  }
}

void LayerTally::add_app(dvc::app::ParallelApp& app,
                         dvc::core::VirtualCluster& vc) {
  messages += app.stats().messages;
  // Compute the final state needed versus compute actually done; the
  // difference was redone after rollbacks.
  for (dvc::app::RankId r = 0; r < app.size(); ++r) {
    const dvc::app::Rank& rank = app.rank(r);
    const double per_iter =
        app.spec().flops_per_rank_iter / vc.contexts().at(r)->flops();
    const double needed = per_iter * rank.state().iter;
    compute_s += rank.compute_done_seconds();
    redone_s += std::max(0.0, rank.compute_done_seconds() - needed);
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep26", "steady26",
                                                 "ckpt16", "fleet"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& grid_dir) {
  if (seed > kMaxSeed) {
    throw std::invalid_argument("seed too large (max " +
                                std::to_string(kMaxSeed) + ")");
  }
  if (name == "fleet") return make_fleet_workload(seed);
  for (const GridSpec& spec : grid_specs()) {
    if (name != spec.name) continue;
    const std::string path = grid_dir + "/" + spec.name + ".scn";
    std::ifstream file(path);
    if (!file) throw std::invalid_argument("cannot open grid file " + path);
    std::ostringstream text;
    text << file.rdbuf();
    return make_grid_workload(spec, path, text.str(), seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace dvcbench
