#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/sweep.hpp"

// Seeded fault soak, driven through the dvcsweep harness: each campaign is
// one mix of the scenarios/sweep26.scn grid, run across a worker pool with
// the invariant checker attached to every cell.
// The core assertion is unchanged from the original hand-rolled loops —
// every schedule either completes or reports a diagnosed failure, never a
// silent hang — and now additionally: zero invariant violations anywhere.
//
// A plain build runs kSeeds schedules per mix and stays fast; a
// -DDVC_SOAK=ON build (ci.sh --soak, under ASan) widens the sweep.

namespace dvc {
namespace {

using tools::CellOutcome;
using tools::CellStatus;
using tools::SweepCell;
using tools::SweepGrid;
using tools::SweepReport;

#ifdef DVC_SOAK
constexpr std::uint64_t kSeeds = 150;
constexpr std::uint64_t kStorageSeeds = 60;
constexpr std::uint64_t kControlSeeds = 45;
#else
constexpr std::uint64_t kSeeds = 50;
constexpr std::uint64_t kStorageSeeds = 20;
constexpr std::uint64_t kControlSeeds = 15;
#endif

/// The soak grid: scenarios/sweep26.scn, read from the source tree (the
/// dvcsweep_grid_scenario ctest entry runs the same file).
std::string soak_grid() {
  std::ifstream file(DVC_SOURCE_DIR "/scenarios/sweep26.scn");
  EXPECT_TRUE(file) << "cannot open scenarios/sweep26.scn";
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// Expands the soak grid to one mix's cells over seeds 1..n.
std::vector<SweepCell> mix_cells(const std::string& mix, std::uint64_t n) {
  SweepGrid grid = SweepGrid::load("sweep26.scn", soak_grid());
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= n; ++s) seeds.push_back(s);
  grid.set_seeds(seeds);
  std::vector<SweepCell> cells;
  for (SweepCell& c : grid.cells()) {
    if (c.mix == mix) cells.push_back(std::move(c));
  }
  return cells;
}

/// Shared teeth: no silent hangs, no invariant violations, anywhere.
void assert_no_hangs(const SweepReport& report) {
  for (const CellOutcome& o : report.outcomes) {
    ASSERT_TRUE(o.status == CellStatus::kCompleted ||
                o.status == CellStatus::kDiagnosed)
        << o.key << " " << tools::to_string(o.status)
        << (o.error.empty() ? "" : " error=" + o.error)
        << ": iterations=" << o.iterations
        << " recoveries=" << o.recoveries << " watchdog=" << o.watchdog
        << " faults=" << o.faults_injected << "/" << o.faults_lifted
        << " checkpoints=" << o.checkpoints
        << " violations=" << o.violations.size() << " — repro: " << o.repro;
  }
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_EQ(report.wedged, 0u);
}

TEST(FaultSoakTest, EverySeedCompletesOrDiagnosesItsFailure) {
  const std::vector<SweepCell> cells = mix_cells("faulty", kSeeds);
  ASSERT_EQ(cells.size(), kSeeds);
  const SweepReport report = run_sweep(cells, /*jobs=*/2, "sweep26.scn");
  assert_no_hangs(report);

  std::uint64_t with_faults = 0;
  for (const CellOutcome& o : report.outcomes) {
    if (o.status == CellStatus::kCompleted) {
      EXPECT_EQ(o.iterations, 200u) << o.key;
    } else {
      std::cout << "[soak] " << o.key << " diagnosed: iterations="
                << o.iterations << " recoveries=" << o.recoveries
                << " watchdog=" << o.watchdog
                << " lsc_retries=" << o.lsc_retries << " faults="
                << o.faults_injected << "/" << o.faults_lifted
                << " ckpts=" << o.checkpoints << "\n";
    }
    if (o.faults_injected > 0) ++with_faults;
  }
  // The sweep has teeth: nearly every schedule injects something, and the
  // recovery machinery turns nearly all of them into completions.
  EXPECT_GE(with_faults, kSeeds * 9 / 10);
  EXPECT_GE(report.completed, kSeeds * 9 / 10);
}

TEST(FaultSoakTest, SameSeedReplaysToTheSameOutcome) {
  const std::vector<SweepCell> cells = mix_cells("faulty", 42);
  for (const SweepCell& c : cells) {
    if (c.seed != 7 && c.seed != 21 && c.seed != 42) continue;
    const CellOutcome first = tools::run_cell(c);
    const CellOutcome second = tools::run_cell(c);
    EXPECT_EQ(first.to_json(), second.to_json())
        << c.key << " not deterministic";
  }
}

// ---------------------------------------------------------------------------
// The durability mix: corruption and torn-write schedules on top of node
// crashes, against the replicated store and generation fallback. The
// invariant is unchanged — complete or diagnose, never hang — and the
// damage must actually be exercised (verify failures observed across the
// sweep, not silently absorbed).

TEST(FaultSoakTest, StorageFaultSeedsCompleteOrDiagnose) {
  const std::vector<SweepCell> cells = mix_cells("durable", kStorageSeeds);
  ASSERT_EQ(cells.size(), kStorageSeeds);
  const SweepReport report = run_sweep(cells, /*jobs=*/2, "sweep26.scn");
  assert_no_hangs(report);

  std::uint64_t damage_seen = 0;
  std::uint64_t damage_planted = 0;
  for (const CellOutcome& o : report.outcomes) {
    if (o.status == CellStatus::kCompleted) {
      EXPECT_EQ(o.iterations, 500u) << o.key;
    } else {
      // Diagnosed loss is only acceptable when the durability machinery
      // actually ran out of intact generations — never as a default.
      EXPECT_GT(o.abandoned, 0u) << o.key;
      std::cout << "[soak] " << o.key << " diagnosed: verify_failures="
                << o.verify_failures << " failovers=" << o.failovers
                << " fallbacks=" << o.fallbacks
                << " abandoned=" << o.abandoned << "\n";
    }
    if (o.verify_failures > 0) ++damage_seen;
    damage_planted += o.damage_planted;
  }
  // The sweep has teeth: every run plants real damage, and in a steady
  // fraction of seeds a restore reads it back and trips verification
  // (deterministic detection guarantees live in durability_test.cpp; this
  // sweep checks the machinery holds up under randomized schedules).
  EXPECT_GE(damage_planted, kStorageSeeds * 5);
  EXPECT_GE(damage_seen, kStorageSeeds / 10);
  EXPECT_GE(report.completed, kStorageSeeds * 8 / 10);
}

TEST(FaultSoakTest, StorageFaultSeedsReplayDeterministically) {
  const std::vector<SweepCell> cells = mix_cells("durable", 33);
  for (const SweepCell& c : cells) {
    if (c.seed != 5 && c.seed != 13 && c.seed != 33) continue;
    const CellOutcome first = tools::run_cell(c);
    const CellOutcome second = tools::run_cell(c);
    EXPECT_EQ(first.to_json(), second.to_json())
        << c.key << " not deterministic";
  }
}

// ---------------------------------------------------------------------------
// The partition mix: the control plane in the blast radius — network
// partitions and coordinator crashes (including head-node deaths from the
// ordinary crash process) on top of the general schedule. Complete or
// diagnose, never hang: exactly the property the intent WAL, epoch
// fencing, and reboot reconciliation exist to preserve.

TEST(FaultSoakTest, ControlPlaneSeedsCompleteOrDiagnose) {
  const std::vector<SweepCell> cells = mix_cells("partition", kControlSeeds);
  ASSERT_EQ(cells.size(), kControlSeeds);
  const SweepReport report = run_sweep(cells, /*jobs=*/2, "sweep26.scn");
  assert_no_hangs(report);

  std::uint64_t with_outages = 0;
  for (const CellOutcome& o : report.outcomes) {
    // A crashed coordinator always came back: no schedule ends headless.
    EXPECT_EQ(o.coordinator_crashes, o.coordinator_reboots) << o.key;
    if (o.status == CellStatus::kCompleted) {
      EXPECT_EQ(o.iterations, 200u) << o.key;
    } else {
      std::cout << "[soak] " << o.key << " diagnosed: recoveries="
                << o.recoveries << " coordinator=" << o.coordinator_crashes
                << "/" << o.coordinator_reboots
                << " stale=" << o.stale_completions
                << " orphans=" << o.orphans_swept << "\n";
    }
    if (o.coordinator_crashes > 0) ++with_outages;
  }
  // The sweep has teeth: most schedules take the coordinator down at
  // least once, and the reboot machinery still lands the jobs.
  EXPECT_GE(with_outages, kControlSeeds / 2);
  EXPECT_GE(report.completed, kControlSeeds * 7 / 10);
}

TEST(FaultSoakTest, ControlPlaneSeedsReplayDeterministically) {
  const std::vector<SweepCell> cells = mix_cells("partition", 26);
  for (const SweepCell& c : cells) {
    if (c.seed != 3 && c.seed != 11 && c.seed != 26) continue;
    const CellOutcome first = tools::run_cell(c);
    const CellOutcome second = tools::run_cell(c);
    EXPECT_EQ(first.to_json(), second.to_json())
        << c.key << " not deterministic";
  }
}

}  // namespace
}  // namespace dvc
