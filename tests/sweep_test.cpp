#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "testbed.hpp"
#include "tools/sweep.hpp"

// The sweep harness contract: grids expand deterministically, the
// aggregate's bytes are a function of the cell set alone (never of the
// worker count or scheduling), and any cell key can be replayed in
// isolation to the bit-identical outcome the aggregate recorded.

namespace dvc::tools {
namespace {

// A fast 32-cell grid: 4 mixes x 8 seeds of a small fault-free-ish job.
// The churn mix adds real fault injection so the sweep exercises the
// recovery machinery (and the checker) under thread-pool scheduling too.
constexpr const char* kGrid = R"(
clusters = 1
nodes_per_cluster = 8
vc_size = 4
guest_ram_mib = 64
workload = ptrans
pattern = alltoall
msg_bytes = 2048
iterations = 10
iter_seconds = 0.05
checkpoint_interval_s = 10
watchdog_interval_s = 11
lsc.round_timeout_s = 30
lsc.max_round_retries = 2
horizon_s = 200
slice_s = 10
settle_s = 10
sweep.seeds = 1..8
sweep.mixes = plain retry churn heavy
mix.retry.lsc.retry_backoff_s = 1
mix.heavy.iterations = 25
mix.churn.fault.enabled = true
mix.churn.fault.start_s = 10
mix.churn.fault.horizon_s = 40
mix.churn.fault.node_crash_mtbf_s = 30
mix.churn.fault.node_down_s = 15
)";

TEST(SweepGridTest, ExpandsSortedCrossProductWithOverrides) {
  const SweepGrid grid = SweepGrid::load("scenarios/unit.scn", kGrid);
  EXPECT_EQ(grid.mixes(),
            (std::vector<std::string>{"plain", "retry", "churn", "heavy"}));
  EXPECT_EQ(grid.seeds().size(), 8u);

  const std::vector<SweepCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 32u);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end(),
                             [](const SweepCell& a, const SweepCell& b) {
                               return a.key < b.key;
                             }));
  // Stem strips the directory and .scn; key is <stem>:<mix>:<seed>.
  EXPECT_EQ(cells.front().key, "unit:churn:1");
  for (const SweepCell& c : cells) {
    EXPECT_EQ(c.key, "unit:" + c.mix + ":" + std::to_string(c.seed));
    EXPECT_EQ(c.cfg.get_int("seed", -1),
              static_cast<std::int64_t>(c.seed));
    // Mix overrides land only on their own mix.
    EXPECT_EQ(c.cfg.get_int("iterations", -1), c.mix == "heavy" ? 25 : 10);
    EXPECT_EQ(c.cfg.get_bool("fault.enabled", false), c.mix == "churn");
  }
}

TEST(SweepGridTest, RejectsMalformedGrids) {
  EXPECT_THROW(SweepGrid::load("g", "no_such_key = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepGrid::load("g", "sweep.typo = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepGrid::load("g", "sweep.seeds = 5..1\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepGrid::load("g", "sweep.seeds = banana\n"),
               std::invalid_argument);
  // Overrides must name a declared mix and a recognised scenario key.
  EXPECT_THROW(SweepGrid::load("g", "mix.ghost.iterations = 5\n"),
               std::invalid_argument);
  EXPECT_THROW(SweepGrid::load("g",
                               "sweep.mixes = a\nmix.a.no_such_key = 5\n"),
               std::invalid_argument);
  // A grid without seeds loads (the CLI can inject them) but won't expand.
  const SweepGrid grid = SweepGrid::load("g", "iterations = 5\n");
  EXPECT_THROW((void)grid.cells(), std::invalid_argument);
}

TEST(SweepGridTest, SeedListsAndRangesParse) {
  const SweepGrid a = SweepGrid::load("g", "sweep.seeds = 3..6\n");
  EXPECT_EQ(a.seeds(), (std::vector<std::uint64_t>{3, 4, 5, 6}));
  const SweepGrid b = SweepGrid::load("g", "sweep.seeds = 9 2 5\n");
  EXPECT_EQ(b.seeds(), (std::vector<std::uint64_t>{9, 2, 5}));
}

TEST(SweepGridTest, SeedsAreUnsignedAndFitTheSeedKey) {
  // Signed, suffixed or out-of-range tokens are load errors, not cells
  // that later fail on the `seed` key.
  for (const char* bad :
       {"-1", "+5", "5abc", "0x10", "1..-3", "..4", "2..",
        "9223372036854775808", "18446744073709551615",
        "18446744073709551614..18446744073709551615", "0..1000000"}) {
    EXPECT_THROW(SweepGrid::load("g", std::string("sweep.seeds = ") + bad +
                                          "\n"),
                 std::invalid_argument)
        << bad;
  }
  // The largest seed the key holds is a valid range end, and the range
  // stops there.
  const SweepGrid top = SweepGrid::load(
      "g", "sweep.seeds = 9223372036854775806..9223372036854775807\n");
  ASSERT_EQ(top.seeds().size(), 2u);
  const std::vector<SweepCell> cells = top.cells();
  EXPECT_EQ(cells.back().cfg.get_int("seed", -1),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(SweepGrid::load("g", "sweep.seeds = 0..999999\n").seeds().size(),
            1'000'000u);
}

TEST(SweepGridTest, ParseDecimalIsStrict) {
  EXPECT_EQ(parse_decimal("0", 10), std::optional<std::uint64_t>{0});
  EXPECT_EQ(parse_decimal("10", 10), std::optional<std::uint64_t>{10});
  EXPECT_EQ(parse_decimal("007", 10), std::optional<std::uint64_t>{7});
  EXPECT_EQ(parse_decimal("18446744073709551615", UINT64_MAX),
            std::optional<std::uint64_t>{UINT64_MAX});
  for (const char* bad : {"", "11", "-1", "+1", " 1", "1 ", "1e3", "abc",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_decimal(bad, 10).has_value()) << bad;
  }
}

TEST(SweepHarnessTest, AggregateBytesAreIndependentOfJobCount) {
  const SweepGrid grid = SweepGrid::load("sweep_unit.scn", kGrid);
  const std::vector<SweepCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 32u);

  const SweepReport serial = run_sweep(cells, /*jobs=*/1, grid.name());
  const SweepReport parallel = run_sweep(cells, /*jobs=*/8, grid.name());

  // The tentpole contract: byte-identical aggregates regardless of the
  // worker count.
  EXPECT_EQ(serial.to_json(), parallel.to_json());

  // And the grid itself is healthy: every cell completed or diagnosed,
  // no invariant violations, no silent wedges.
  EXPECT_EQ(serial.invariant_violations, 0u);
  EXPECT_EQ(serial.wedged, 0u);
  EXPECT_EQ(serial.completed + serial.diagnosed, cells.size());
  for (const CellOutcome& o : serial.outcomes) {
    EXPECT_TRUE(o.error.empty()) << o.key << ": " << o.error;
    if (o.status == CellStatus::kCompleted && o.mix != "heavy") {
      EXPECT_EQ(o.iterations, 10u) << o.key;
    }
  }
}

TEST(SweepHarnessTest, ReproReplaysARecordedCellBitForBit) {
  SweepGrid grid = SweepGrid::load("sweep_unit.scn", kGrid);
  grid.set_seeds({1, 2});
  const std::vector<SweepCell> cells = grid.cells();
  ASSERT_EQ(cells.size(), 8u);
  const SweepReport report = run_sweep(cells, /*jobs=*/4, grid.name());

  // Replaying any cell alone — what `dvcsweep --repro <key>` does —
  // reproduces the recorded outcome byte for byte, including the fault
  // schedule, counters, and any violations.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOutcome replay = run_cell(cells[i]);
    EXPECT_EQ(replay.to_json(), report.outcomes[i].to_json())
        << "cell " << cells[i].key << " did not replay bit-for-bit";
  }
}

TEST(SweepHarnessTest, OutOfRangeCountKeysFailTheCellNamingTheKey) {
  // Count keys land in 32-bit (retry counts: int) fields. A value that
  // does not fit must fail the cell naming the key, not wrap silently:
  // vc_size = 4294967298 used to run as a 2-guest VC, and
  // guest_ram_mib = -1 as a ~16 EiB guest.
  struct Case {
    const char* key;
    const char* value;
  };
  const Case cases[] = {
      {"clusters", "4294967297"},
      {"nodes_per_cluster", "-8"},
      {"vc_size", "4294967298"},
      {"iterations", "4294967306"},
      {"guest_ram_mib", "-1"},
      {"msg_bytes", "5000000000"},
      {"store_replicas", "-1"},
      {"keep_checkpoints", "4294967298"},
      {"max_restore_retries", "2147483648"},
      {"lsc.max_round_retries", "-1"},
  };
  for (const Case& c : cases) {
    SweepGrid grid = SweepGrid::load(
        "g", std::string(kGrid) + c.key + " = " + c.value + "\n");
    grid.set_seeds({1});
    const CellOutcome out = run_cell(grid.cells().front());
    EXPECT_EQ(out.status, CellStatus::kWedged) << c.key;
    EXPECT_NE(out.error.find(std::string("'") + c.key + "'"),
              std::string::npos)
        << c.key << ": " << out.error;
    EXPECT_NE(out.error.find("out of range"), std::string::npos)
        << c.key << ": " << out.error;
    EXPECT_EQ(out.iterations, 0u) << c.key;
  }
}

TEST(SweepHarnessTest, NodeFailuresWithProactiveEvacuationReplay) {
  // The mtbf_per_node_s path: random node failures, half of them
  // predicted, with proactive evacuation on. Seed 4 loses VC members to
  // unpredicted failures twice, so the cell must recover, and a second
  // run must reproduce the outcome byte for byte.
  SweepGrid grid = SweepGrid::load("node_failures.scn", R"(
nodes_per_cluster = 8
vc_size = 4
guest_ram_mib = 64
pattern = alltoall
msg_bytes = 2048
iterations = 60
checkpoint_interval_s = 10
mtbf_per_node_s = 300
repair_s = 30
predicted_fraction = 0.5
prediction_lead_s = 20
proactive = true
horizon_s = 600
settle_s = 10
)");
  grid.set_seeds({4});
  const SweepCell cell = grid.cells().front();
  const CellOutcome first = run_cell(cell);
  const CellOutcome second = run_cell(cell);
  EXPECT_TRUE(first.status == CellStatus::kCompleted ||
              first.status == CellStatus::kDiagnosed)
      << first.to_json();
  EXPECT_TRUE(first.violations.empty()) << first.to_json();
  EXPECT_GT(first.recoveries, 0u) << first.to_json();
  EXPECT_EQ(first.to_json(), second.to_json());
}

TEST(SweepHarnessTest, ReproCommandLineNamesTheCell) {
  SweepGrid grid = SweepGrid::load("scenarios/sweep_unit.scn", kGrid);
  grid.set_seeds({4});
  const std::vector<SweepCell> cells = grid.cells();
  for (const SweepCell& c : cells) {
    const CellOutcome out = run_cell(c);
    EXPECT_EQ(out.repro,
              "dvcsweep --repro " + c.key + " scenarios/sweep_unit.scn");
  }
}

/// scenarios/sweep26.scn, read from the source tree.
std::string sweep26_text() {
  std::ifstream file(DVC_SOURCE_DIR "/scenarios/sweep26.scn");
  EXPECT_TRUE(file) << "cannot open scenarios/sweep26.scn";
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(SweepHarnessTest, CheckerNeverChangesAnOutcome) {
  // The checker only observes: with it off, every cell of sweep26's three
  // fault mixes reaches the same outcome byte for byte. That is what lets
  // every bench trial run checked without moving a golden.
  const std::string text = sweep26_text();
  SweepGrid checked = SweepGrid::load("scenarios/sweep26.scn", text);
  SweepGrid unchecked = SweepGrid::load(
      "scenarios/sweep26.scn", text + "check.invariants = off\n");
  std::vector<std::uint64_t> seeds(20);
  std::iota(seeds.begin(), seeds.end(), 1);
  checked.set_seeds(seeds);
  unchecked.set_seeds(seeds);

  const SweepReport on = run_sweep(checked.cells(), 0, checked.name());
  const SweepReport off = run_sweep(unchecked.cells(), 0, unchecked.name());
  ASSERT_EQ(on.outcomes.size(), 60u);
  EXPECT_EQ(on.invariant_violations, 0u);
  for (std::size_t i = 0; i < on.outcomes.size(); ++i) {
    EXPECT_EQ(on.outcomes[i].to_json(), off.outcomes[i].to_json());
  }
}

// A ckpt16-shaped cell: compute-bound HPL, no communication, 16 guests
// of 512 MiB checkpointed every 10 s onto a store with two replicas,
// three generations kept (a shorter job than the benchmark's).
constexpr const char* kCkpt16Grid = R"(
clusters = 1
nodes_per_cluster = 20
store_write_mbps = 2000
store_replicas = 2
vc_size = 16
guest_ram_mib = 512
workload = hpl
pattern = none
iterations = 60
iter_seconds = 1.0
checkpoint_interval_s = 10
keep_checkpoints = 3
horizon_s = 7200
slice_s = 1
settle_s = 30
sweep.seeds = 1
)";

TEST(SweepHarnessTest, TimelineNeverChangesAnOutcome) {
  // Spans and instants are write-only as far as the model goes: a cell
  // that records its timeline reaches the same outcome byte for byte as
  // one that does not. One cell of each sweep26 fault mix, and a
  // ckpt16-shaped cell.
  SweepGrid sweep26 = SweepGrid::load("scenarios/sweep26.scn", sweep26_text());
  sweep26.set_seeds({3});
  std::vector<SweepCell> cells = sweep26.cells();
  ASSERT_EQ(cells.size(), 3u);
  cells.push_back(SweepGrid::load("ckpt16.scn", kCkpt16Grid).cells().at(0));
  for (const SweepCell& cell : cells) {
    const CellOutcome off = run_cell(cell, /*timeline=*/false);
    const CellOutcome on = run_cell(cell, /*timeline=*/true);
    EXPECT_EQ(on.to_json(), off.to_json()) << cell.key;
    EXPECT_TRUE(off.error.empty()) << cell.key << ": " << off.error;
    EXPECT_GT(off.checkpoints, 0u) << cell.key;
  }
}

TEST(CellRigTest, RecordsTheTimelineOnlyWhenAsked) {
  const SweepCell cell = SweepGrid::load("ckpt16.scn", kCkpt16Grid).cells()[0];
  CellSpec spec = cell_spec(cell.cfg);
  for (const bool timeline : {false, true}) {
    spec.timeline = timeline;
    CellRig rig(spec);
    rig.start_recovery();
    rig.room.sim.run_until(60 * sim::kSecond);
    const telemetry::MetricsRegistry& m = rig.room.metrics;
    EXPECT_GE(m.counter_value("ckpt.lsc.rounds"), 3u);
    EXPECT_GT(m.counter_value("vm.hypervisor.saves"), 0u);
    if (timeline) {
      EXPECT_GT(m.spans().size(), 0u);
      EXPECT_GT(m.instants().size(), 0u);
    } else {
      EXPECT_EQ(m.spans().size(), 0u);  // a default rig records none
      EXPECT_EQ(m.instants().size(), 0u);
    }
  }
}

// ---- CellRig::drive -------------------------------------------------------

/// A 4-guest all-to-all cell (~0.1 s per iteration) on the failure suites'
/// room; its job starts at 20 s.
CellSpec small_cell(std::uint32_t iters) {
  return test::test_cell(test::failure_room(/*clusters=*/1, /*nodes=*/8),
                         "drive-vc", 64ull << 20,
                         test::alltoall_job(4, iters));
}

TEST(CellRigTest, DriveStopsAtTheFirstSliceBoundaryAfterCompletion) {
  CellRig rig(small_cell(100));
  rig.start_recovery();
  const sim::Time start = rig.room.sim.now();
  const sim::Duration slice = 3 * sim::kSecond;
  rig.drive(start + 600 * sim::kSecond, slice, 2 * sim::kSecond);
  ASSERT_TRUE(rig.application->completed());
  const sim::Time done =
      start + sim::from_seconds(rig.application->stats().makespan_s);
  // The settle ran after the boundary that saw the job done.
  const sim::Time boundary = rig.room.sim.now() - 2 * sim::kSecond;
  EXPECT_EQ((boundary - start) % slice, 0);
  EXPECT_GE(boundary, done);
  EXPECT_LT(boundary - slice, done);
  EXPECT_TRUE(test::clean_end_of_run(rig));
}

TEST(CellRigTest, DriveStopsOnceRecoveryIsAbandoned) {
  // sweep26's durable:41 loses every generation and abandons recovery
  // within its first minute.
  SweepGrid grid = SweepGrid::load("scenarios/sweep26.scn", sweep26_text());
  grid.set_seeds({41});
  const std::vector<SweepCell> cells = grid.cells();
  const auto durable =
      std::find_if(cells.begin(), cells.end(),
                   [](const SweepCell& c) { return c.mix == "durable"; });
  ASSERT_NE(durable, cells.end());
  CellRig rig(cell_spec(durable->cfg));
  test::RecordingChecker rec(rig.room.sim, rig.inv.get());
  rig.room.dvc->set_check(&rec);
  rig.start_recovery();
  const sim::Duration slice = 10 * sim::kSecond;
  rig.drive(3600 * sim::kSecond, slice, 0);

  ASSERT_EQ(rig.vc->state(), core::VcState::kFailed);
  ASSERT_FALSE(rec.edges.empty());
  EXPECT_EQ(rec.edges.back().second, core::VcState::kFailed);
  const sim::Time abandoned = rec.edge_times.back();
  const sim::Time now = rig.room.sim.now();
  EXPECT_EQ((now - 20 * sim::kSecond) % slice, 0);
  EXPECT_GE(now, abandoned);
  EXPECT_LT(now - slice, abandoned);
  EXPECT_TRUE(test::clean_end_of_run(rig));
}

TEST(CellRigTest, DriveStopsAtTheHorizonWhenTheJobIsNotDone) {
  // The job needs over 200 s; the horizon falls mid-slice, so the loop
  // stops at the boundary after it, then settles.
  CellRig rig(small_cell(2000));
  rig.start_recovery();
  rig.drive(95 * sim::kSecond, 10 * sim::kSecond, 5 * sim::kSecond);
  EXPECT_EQ(rig.room.sim.now(), 105 * sim::kSecond);
  EXPECT_FALSE(rig.application->completed());
  EXPECT_FALSE(rig.application->failed());
  EXPECT_EQ(rig.vc->state(), core::VcState::kRunning);
  EXPECT_TRUE(test::clean_end_of_run(rig));
}

TEST(CellRigTest, DriveCarriesOnThroughAnApplicationFailure) {
  // RecoveryTest.WatchdogRecoversFromApplicationLevelTransportFailure's
  // cell: a 40 s inter-cluster cut outlasts the transport retry budget,
  // the application fails with every member alive, and only the
  // watchdog's rollback brings the job home. Driven in 1 s slices, some
  // boundary sees the failed application; the loop must not stop there.
  CellSpec spec = test::test_cell(
      test::failure_room(/*clusters=*/2, /*nodes=*/6), "rec-vc",
      128ull << 20, test::alltoall_job(8, 600));
  spec.recovery.interval = 25 * sim::kSecond;
  spec.recovery.watchdog_interval = 9 * sim::kSecond;
  spec.faults = fault::FaultPlan::parse_script("40 linkdown 0 1 40");
  CellRig rig(spec);
  rig.start_recovery();
  rig.drive(600 * sim::kSecond, sim::kSecond, 0);

  EXPECT_GT(rig.room.metrics.counter_value("net.endpoint.aborts"), 0u);
  EXPECT_GE(rig.room.dvc->watchdog_detections(), 1u);
  ASSERT_TRUE(rig.application->completed());
  EXPECT_LT(rig.room.sim.now(), 600 * sim::kSecond);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.application->rank(i).state().iter, 600u);
  }
  EXPECT_TRUE(test::clean_end_of_run(rig));
}

TEST(RunIndexedTest, CallsEveryIndexOnce) {
  for (const unsigned jobs : {0u, 1u, 3u, 16u}) {
    std::vector<int> calls(37, 0);
    run_indexed(calls.size(), jobs, [&](std::size_t i) { ++calls[i]; });
    EXPECT_EQ(calls, std::vector<int>(37, 1)) << jobs << " jobs";
  }
  run_indexed(0, 4, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(CheckTrialDeathTest, AViolationExitsNamingProgramAndTrial) {
  // A small booted rig of the kind the bench programs build.
  CellSpec spec;
  spec.room.nodes_per_cluster = 4;
  spec.vc.size = 2;
  spec.vc.guest.ram_bytes = 64ull << 20;
  spec.workload = app::make_ptrans(1024, 2, 5);
  CellRig rig(spec);
  // Running -> provisioning is no lifecycle edge.
  rig.inv->on_vc_transition(
      rig.vc->id(), static_cast<std::uint8_t>(core::VcState::kRunning),
      static_cast<std::uint8_t>(core::VcState::kProvisioning));
  EXPECT_EXIT(check_trial(*rig.inv, "tab2_ntp_lsc", "ptrans/fast-iter #17"),
              ::testing::ExitedWithCode(1),
              "tab2_ntp_lsc: trial ptrans/fast-iter #17: 1 invariant "
              "violation\\(s\\):\n.*vc-state-legal: .*running -> "
              "provisioning");
}

}  // namespace
}  // namespace dvc::tools
