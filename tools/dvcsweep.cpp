// dvcsweep — parallel scenario-sweep driver for the DVC simulator.
//
//   dvcsweep [--jobs N] [--out PATH] [--seeds A..B] <grid.scn>
//   dvcsweep --repro <cell-key> <grid.scn>
//
// A grid file is a dvcsim scenario plus sweep lines:
//
//   sweep.seeds = 1..8            # or a space-separated list
//   sweep.mixes = faulty durable  # named fault mixes (optional)
//   mix.faulty.fault.enabled = true
//   mix.faulty.fault.node_crash_mtbf_s = 70
//
// The grid expands to the cross product mixes × seeds; each cell is an
// independent Simulation run on a worker pool (--jobs 1..1024; 0 or no
// flag means one per hardware thread) with the invariant checker
// attached. Outcomes merge into one aggregate JSON document whose bytes
// are independent of --jobs.
//
// Cell keys are `<grid-stem>:<mix>:<seed>`. `--repro` re-runs exactly one
// cell on one thread and prints its outcome record — the command line
// embedded in every reported violation.
//
// Exit status: 0 when every cell completed or was diagnosed; 1 when any
// cell hit an invariant violation or wedged; 2 on usage/load errors.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/sweep.hpp"

using namespace dvc;  // NOLINT — CLI brevity

namespace {

constexpr unsigned kMaxJobs = 1024;

/// The --jobs value, strictly: a bad one is a usage error (exit 2).
unsigned parse_jobs(const std::string& v) {
  const auto n = tools::parse_decimal(v, kMaxJobs);
  if (!n) {
    std::fprintf(stderr,
                 "--jobs: expected a whole number 0..%u (0 = one per"
                 " hardware thread), got '%s'\n",
                 kMaxJobs, v.c_str());
    std::exit(2);
  }
  return static_cast<unsigned>(*n);
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_path;
  std::string out_path;
  std::string repro_key;
  std::string seeds_arg;
  unsigned jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      jobs = parse_jobs(value("--jobs"));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = parse_jobs(arg.substr(7));
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--seeds") {
      seeds_arg = value("--seeds");
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds_arg = arg.substr(8);
    } else if (arg == "--repro") {
      repro_key = value("--repro");
    } else if (arg.rfind("--repro=", 0) == 0) {
      repro_key = arg.substr(8);
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else if (grid_path.empty()) {
      grid_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (grid_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--out PATH] [--seeds A..B]"
                 " [--repro CELL-KEY] <grid.scn>\n",
                 argv[0]);
    return 2;
  }
  std::ifstream file(grid_path);
  if (!file) {
    std::fprintf(stderr, "cannot open grid file: %s\n", grid_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << file.rdbuf();

  try {
    tools::SweepGrid grid = tools::SweepGrid::load(grid_path, text.str());
    if (!seeds_arg.empty()) {
      // Reuse the grid's own seed grammar by parsing a one-line grid.
      const tools::SweepGrid override_grid = tools::SweepGrid::load(
          "seeds", "sweep.seeds = " + seeds_arg + "\n");
      grid.set_seeds(override_grid.seeds());
    }
    const std::vector<tools::SweepCell> cells = grid.cells();

    if (!repro_key.empty()) {
      for (const tools::SweepCell& cell : cells) {
        if (cell.key != repro_key) continue;
        const tools::CellOutcome out = tools::run_cell(cell);
        std::printf("%s\n", out.to_json().c_str());
        for (const check::Violation& v : out.violations) {
          std::fprintf(stderr, "[%s t=%llu] %s: %s\n",
                       std::string(check::to_string(v.boundary)).c_str(),
                       static_cast<unsigned long long>(v.at),
                       v.invariant.c_str(), v.detail.c_str());
        }
        return out.status == tools::CellStatus::kCompleted ||
                       out.status == tools::CellStatus::kDiagnosed
                   ? 0
                   : 1;
      }
      std::fprintf(stderr, "no such cell in this grid: %s\n",
                   repro_key.c_str());
      return 2;
    }

    const tools::SweepReport report =
        tools::run_sweep(cells, jobs, grid_path);
    const std::string json = report.to_json();
    if (out_path.empty()) {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
      }
      out << json << '\n';
      std::fprintf(stderr, "aggregate:       %s\n", out_path.c_str());
    }
    std::fprintf(stderr,
                 "sweep:           %zu cells — %zu completed, %zu"
                 " diagnosed, %zu violations, %zu wedged\n",
                 report.outcomes.size(), report.completed, report.diagnosed,
                 report.invariant_violations, report.wedged);
    for (const tools::CellOutcome& o : report.outcomes) {
      if (o.status == tools::CellStatus::kCompleted ||
          o.status == tools::CellStatus::kDiagnosed) {
        continue;
      }
      std::fprintf(stderr, "  %-12s %s — repro: %s\n",
                   tools::to_string(o.status), o.key.c_str(),
                   o.repro.c_str());
      for (const check::Violation& v : o.violations) {
        std::fprintf(stderr, "    [%s t=%llu] %s: %s\n",
                     std::string(check::to_string(v.boundary)).c_str(),
                     static_cast<unsigned long long>(v.at),
                     v.invariant.c_str(), v.detail.c_str());
      }
      if (!o.error.empty()) {
        std::fprintf(stderr, "    error: %s\n", o.error.c_str());
      }
    }
    return (report.invariant_violations == 0 && report.wedged == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvcsweep: %s\n", e.what());
    return 2;
  }
}
