#pragma once

// dvcbench workloads: each is a fixed, seeded list of independent cells,
// every cell one Simulation. `sweep26`, `steady26` and `ckpt16` are sweep
// grids whose cells run through tools::run_cell; `fleet` runs the
// benchmark's own multi-job cell runner over rm::Scheduler and DvcManager.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host_trace.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::app {
class ParallelApp;
}
namespace dvc::core {
class VirtualCluster;
}

namespace dvcbench {

/// What one cell produced, host timing excluded.
struct CellResult {
  /// Deterministic record of the modelled outcome (tools::CellOutcome
  /// JSON for grid cells): the bytes the replay check compares.
  std::string outcome;
  /// Ended completed or diagnosed, with zero invariant violations and no
  /// exception (a wedge, violation or throw is a failed cell).
  bool ok = false;
  /// Every job in the cell completed.
  bool completed = false;
  std::uint64_t jobs = 1;            ///< jobs attempted in the cell
  std::uint64_t jobs_completed = 0;  ///< of which completed
  double sim_time_s = 0.0;           ///< simulated seconds advanced
  /// Simulated makespan: the cell's sim_time_s for grid cells, the last
  /// job's finish for fleet cells.
  double makespan_s = 0.0;
  std::vector<double> job_waits_s;   ///< fleet: submission-to-start waits
  double busy_node_s = 0.0;          ///< fleet: node-seconds held by jobs
  double node_s = 0.0;               ///< fleet: nodes x makespan
};

/// Per-layer counts summed over the traced cells, read from each cell's
/// MetricsRegistry, its Simulation and the host spans around the calls.
struct LayerTally {
  // sim
  std::uint64_t events = 0;
  double run_host_s = 0.0;  ///< host time inside Simulation::run/run_until
  std::uint64_t peak_pending = 0;  ///< max pending(), sampled per slice
  // net
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dropped_dark = 0;
  // app
  std::uint64_t messages = 0;
  double compute_s = 0.0;  ///< guest compute done, redone work included
  double redone_s = 0.0;   ///< compute beyond what the final state needed
  // vm
  std::uint64_t saves = 0;
  std::uint64_t bytes_saved = 0;
  std::vector<double> save_s;  ///< sim seconds per VM save
  // storage
  std::uint64_t write_bytes = 0;
  std::uint64_t replica_copy_bytes = 0;
  std::uint64_t sets_opened = 0;
  std::uint64_t sets_sealed = 0;
  /// Merged log-bucket counts of storage.write_pool.contention_wait_s.
  std::vector<std::uint64_t> wait_buckets;
  std::vector<double> wait_bounds;
  // ckpt
  std::uint64_t rounds = 0;
  std::uint64_t round_retries = 0;
  std::vector<double> round_s;       ///< sim seconds per LSC round
  std::vector<double> pause_skew_s;  ///< sim seconds per freeze window
  // core
  std::uint64_t recoveries = 0;
  std::uint64_t restore_fallbacks = 0;
  std::uint64_t wal_appends = 0;
  // fault
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_skipped = 0;
  // rm
  std::uint64_t jobs_started = 0;
  std::uint64_t jobs_backfilled = 0;
  std::vector<double> job_waits_s;
  double busy_node_s = 0.0;
  double node_s = 0.0;
  // telemetry
  std::uint64_t spans_recorded = 0;
  std::uint64_t instruments = 0;

  /// Adds one finished cell's registry: counters, spans and histograms.
  void add_registry(const dvc::telemetry::MetricsRegistry& m);
  /// Adds one finished application's messages and compute, `vc` being the
  /// virtual cluster it ran on.
  void add_app(dvc::app::ParallelApp& app, dvc::core::VirtualCluster& vc);
};

/// A named workload expanded from its seed: the benchmark's set-up.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] virtual std::string key(std::size_t i) const = 0;
  /// How many cells (the first ones) the traced run drives.
  [[nodiscard]] virtual std::size_t traced_cells() const noexcept = 0;

  /// Runs cell i untraced. Deterministic; safe from several threads.
  [[nodiscard]] virtual CellResult run(std::size_t i) const = 0;
  /// Runs cell i with the invariant checker detached.
  [[nodiscard]] virtual CellResult run_unchecked(std::size_t i) const = 0;
  /// Runs cell i through the same public calls as run(), with a host span
  /// around each and the cell's layer counts added to `tally`.
  [[nodiscard]] virtual CellResult run_traced(std::size_t i,
                                              HostTrace& trace,
                                              LayerTally& tally) const = 0;
};

/// Workload names, in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Largest accepted seed: cell seeds (seed*1000 + j) stay far from overflow.
inline constexpr std::uint64_t kMaxSeed = 1'000'000'000'000ULL;

/// Builds workload `name` for `seed`, reading grid files from `grid_dir`.
/// Throws std::invalid_argument on an unknown name, a bad grid or a seed
/// above kMaxSeed.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, const std::string& grid_dir);

}  // namespace dvcbench
