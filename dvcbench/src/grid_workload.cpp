#include "grid_workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/rng.hpp"

namespace dvcbench {

namespace {

using dvc::tools::CellOutcome;
using dvc::tools::CellStatus;
using dvc::tools::SweepCell;

/// Reads what the benchmark needs from a grid cell's outcome.
CellResult to_cell_result(const CellOutcome& o) {
  CellResult r;
  r.outcome = o.to_json();
  r.ok = o.error.empty() && o.violations.empty() &&
         (o.status == CellStatus::kCompleted ||
          o.status == CellStatus::kDiagnosed);
  r.completed = o.status == CellStatus::kCompleted;
  r.jobs_completed = r.completed ? 1 : 0;
  r.sim_time_s = o.sim_time_s;
  r.makespan_s = o.sim_time_s;
  return r;
}

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::string name, std::vector<SweepCell> cells,
               std::size_t traced)
      : name_(std::move(name)), cells_(std::move(cells)), traced_(traced) {}

  const std::string& name() const noexcept override { return name_; }
  std::size_t size() const noexcept override { return cells_.size(); }
  std::size_t traced_cells() const noexcept override {
    return std::min(traced_, cells_.size());
  }
  std::string key(std::size_t i) const override { return cells_.at(i).key; }

  CellResult run(std::size_t i) const override {
    return to_cell_result(dvc::tools::run_cell(cells_.at(i)));
  }

  CellResult run_unchecked(std::size_t i) const override {
    SweepCell cell = cells_.at(i);
    cell.cfg.set("check.invariants", "off");
    return to_cell_result(dvc::tools::run_cell(cell));
  }

  CellResult run_traced(std::size_t i, HostTrace& trace,
                        LayerTally& tally) const override {
    const SweepCell& cell = cells_.at(i);
    CellOutcome out;
    out.key = cell.key;
    out.mix = cell.mix;
    out.seed = cell.seed;
    out.repro = "dvcsweep --repro " + cell.key + " " + cell.grid;
    try {
      traced_run_cell(cell, trace, tally, out);
    } catch (const std::exception& e) {
      out.status = CellStatus::kWedged;
      out.error = e.what();
    }
    return to_cell_result(out);
  }

 private:
  std::string name_;
  std::vector<SweepCell> cells_;
  std::size_t traced_;
};

}  // namespace

const std::vector<GridSpec>& grid_specs() {
  static const std::vector<GridSpec> specs = {
      {"sweep26", 300, 0.0, 32},
      {"steady26", 120, 0.1, 30},
      {"ckpt16", 200, 0.1, 8},
  };
  return specs;
}

std::unique_ptr<Workload> make_grid_workload(const GridSpec& spec,
                                             const std::string& grid_path,
                                             const std::string& grid_text,
                                             std::uint64_t seed) {
  dvc::tools::SweepGrid grid =
      dvc::tools::SweepGrid::load(grid_path, grid_text);
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t j = 1; j <= spec.seeds_per_mix; ++j) {
    seeds.push_back(seed * 1000 + j);
  }
  grid.set_seeds(std::move(seeds));
  std::vector<SweepCell> cells = grid.cells();

  dvc::sim::Rng rng(seed ^ 0xBE7C4ULL);
  if (spec.jitter > 0.0) {
    for (SweepCell& c : cells) {
      const double iterations =
          static_cast<double>(c.cfg.get_int("iterations", 1000)) *
          rng.uniform(1.0 - spec.jitter, 1.0 + spec.jitter);
      c.cfg.set("iterations", std::to_string(std::max<std::int64_t>(
                                  1, std::llround(iterations))));
      const double interval =
          c.cfg.get_double("checkpoint_interval_s", 300.0) *
          rng.uniform(1.0 - spec.jitter, 1.0 + spec.jitter);
      c.cfg.set("checkpoint_interval_s", format_number(interval));
    }
  }
  // Seeded Fisher-Yates: a time-boxed pass that stops part-way still
  // samples every mix.
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  return std::make_unique<GridWorkload>(spec.name, std::move(cells),
                                        spec.traced_cells);
}

}  // namespace dvcbench
