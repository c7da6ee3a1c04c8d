#pragma once

// Grid workloads: a benchmark-owned sweep grid expanded for one seed, each
// cell run through tools::run_cell.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tools/sweep.hpp"
#include "workloads.hpp"

namespace dvcbench {

struct GridSpec {
  const char* name;  ///< workload name; the grid file is <name>.scn
  /// Seeds per mix: the workload has (mixes x seeds_per_mix) cells.
  std::uint32_t seeds_per_mix;
  /// Each cell's `iterations` and `checkpoint_interval_s` are scaled by
  /// seeded factors drawn from [1 - jitter, 1 + jitter], so fault-free
  /// grids still vary per seed and makespans do not all land on the same
  /// few checkpoint-cycle boundaries.
  double jitter;
  /// Cells the traced run drives (enough for its per-layer percentiles).
  std::size_t traced_cells;
};

[[nodiscard]] const std::vector<GridSpec>& grid_specs();

/// Expands `grid_text` for `seed`: cell seeds seed*1000+1 .. +seeds_per_mix
/// for every mix, jittered, run order shuffled by the seed.
[[nodiscard]] std::unique_ptr<Workload> make_grid_workload(
    const GridSpec& spec, const std::string& grid_path,
    const std::string& grid_text, std::uint64_t seed);

/// tools::run_cell's sequence of public calls, with a host span around each
/// and the cell's layer counts added to `tally`. Fills the outcome's status,
/// iterations, sim_time_s and headline counters, so that the traced run can
/// check it reached the same end as run_cell.
void traced_run_cell(const dvc::tools::SweepCell& cell, HostTrace& trace,
                     LayerTally& tally, dvc::tools::CellOutcome& out);

}  // namespace dvcbench
