// dvcbench — host-speed and modelled-outcome benchmark of the DVC simulator.
//
//   dvcbench --workload <sweep26|steady26|ckpt16|fleet> --seed N
//            --seconds S --trace <0|1> [--trace-out FILE]
//
// Run from the checkout root: grid files are read from dvcbench/grids.
// Prints a human-readable summary, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit status 0 when
// a result was printed (even an incorrect one), 2 on bad arguments or a
// workload that cannot be set up.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "calib.hpp"
#include "workloads.hpp"

namespace {

/// Set-up is timed this many times; the median is reported.
constexpr int kSetupRepeats = 51;
/// Worker threads: half of a 4-core box, so load from other processes
/// on the machine perturbs throughput less than with every core busy.
constexpr unsigned kMaxThreads = 2;
constexpr const char* kGridDir = "dvcbench/grids";

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dvcbench: %s\nusage: dvcbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& flag,
                                      const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long n = std::stoull(v, &used);
    if (used != v.size() || v.front() == '-') throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = parse_u64(arg, v);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = parse_u64(arg, v);
      have_seconds = true;
    } else if (arg == "--trace") {
      trace = parse_u64(arg, v);
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || trace > 1) {
    usage("--workload, --seed, --seconds and --trace 0|1 are required");
  }

  try {
    // Set-up: grid load, cell expansion and arrival-trace generation,
    // repeated so one cold start does not decide the figure. Timed in CPU
    // time next to the reference task, and reported in reference seconds.
    std::vector<double> setup_samples;
    std::vector<double> reference_samples;
    std::unique_ptr<dvcbench::Workload> w;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const double r0 = dvcbench::thread_cpu_s();
      if (dvcbench::reference_task() != dvcbench::kReferenceChecksum) {
        throw std::runtime_error("reference task checksum differs");
      }
      const double t0 = dvcbench::thread_cpu_s();
      w = dvcbench::make_workload(workload, seed, kGridDir);
      setup_samples.push_back(dvcbench::thread_cpu_s() - t0);
      reference_samples.push_back(t0 - r0);
    }
    dvcbench::RunOptions opt;
    opt.seconds = static_cast<double>(seconds);
    opt.threads =
        std::max(1U, std::min(kMaxThreads, std::thread::hardware_concurrency()));
    opt.setup_s = dvcbench::median(setup_samples) *
                  dvcbench::reference_scale(reference_samples);
    opt.trace_out = trace_out;
    const dvcbench::RunReport rep = trace == 1
                                        ? dvcbench::run_traced(*w, opt)
                                        : dvcbench::run_untraced(*w, opt);
    for (const std::string& line : rep.summary) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("%s\n", rep.result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvcbench: %s\n", e.what());
    return 2;
  }
}
