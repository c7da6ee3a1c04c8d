#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "testbed.hpp"

namespace dvc {
namespace {

using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::StochasticFaults;
using test::TestBed;
using test::TestBedOptions;

bool same_event(const FaultEvent& a, const FaultEvent& b) {
  return a.at == b.at && a.kind == b.kind && a.node == b.node &&
         a.cluster_a == b.cluster_a && a.cluster_b == b.cluster_b &&
         a.one_way == b.one_way && a.group_a == b.group_a &&
         a.group_b == b.group_b && a.down_for == b.down_for &&
         a.loss == b.loss && a.latency_factor == b.latency_factor &&
         a.factor == b.factor && a.clock_step == b.clock_step;
}

bool same_schedule(const std::vector<FaultEvent>& a,
                   const std::vector<FaultEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_event(a[i], b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// FaultPlan: script parsing

TEST(FaultPlanTest, ParsesEveryVerb) {
  const FaultPlan plan = FaultPlan::parse_script(
      "5 crash 3 60; 10 linkdown 0 1 30\n"
      "15 degrade 0 1 0.05 3 60; 20 diskslow 8 45; 25 clockstep 2 -250");
  const std::vector<FaultEvent> s = plan.schedule();
  ASSERT_EQ(s.size(), 5u);

  EXPECT_EQ(s[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(s[0].at, 5 * sim::kSecond);
  EXPECT_EQ(s[0].node, 3u);
  EXPECT_EQ(s[0].down_for, 60 * sim::kSecond);

  EXPECT_EQ(s[1].kind, FaultKind::kLinkDown);
  EXPECT_EQ(s[1].cluster_a, 0u);
  EXPECT_EQ(s[1].cluster_b, 1u);
  EXPECT_EQ(s[1].down_for, 30 * sim::kSecond);

  EXPECT_EQ(s[2].kind, FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(s[2].loss, 0.05);
  EXPECT_DOUBLE_EQ(s[2].latency_factor, 3.0);
  EXPECT_EQ(s[2].down_for, 60 * sim::kSecond);

  EXPECT_EQ(s[3].kind, FaultKind::kDiskSlow);
  EXPECT_DOUBLE_EQ(s[3].factor, 8.0);
  EXPECT_EQ(s[3].down_for, 45 * sim::kSecond);

  EXPECT_EQ(s[4].kind, FaultKind::kClockStep);
  EXPECT_EQ(s[4].node, 2u);
  EXPECT_EQ(s[4].clock_step, -250 * sim::kMillisecond);
}

TEST(FaultPlanTest, ParsesOneWayPartitionAndCoordcrashVerbs) {
  const FaultPlan plan = FaultPlan::parse_script(
      "5 linkdown 0->1 30; 10 degrade 1->0 0.2 2 30\n"
      "15 partition 0,1|2 20; 20 coordcrash 15; 25 coordcrash");
  const std::vector<FaultEvent> s = plan.schedule();
  ASSERT_EQ(s.size(), 5u);

  EXPECT_EQ(s[0].kind, FaultKind::kLinkDown);
  EXPECT_TRUE(s[0].one_way);
  EXPECT_EQ(s[0].cluster_a, 0u);
  EXPECT_EQ(s[0].cluster_b, 1u);
  EXPECT_EQ(s[0].down_for, 30 * sim::kSecond);

  EXPECT_EQ(s[1].kind, FaultKind::kLinkDegrade);
  EXPECT_TRUE(s[1].one_way);
  EXPECT_EQ(s[1].cluster_a, 1u);
  EXPECT_EQ(s[1].cluster_b, 0u);
  EXPECT_DOUBLE_EQ(s[1].loss, 0.2);
  EXPECT_DOUBLE_EQ(s[1].latency_factor, 2.0);

  EXPECT_EQ(s[2].kind, FaultKind::kPartition);
  EXPECT_EQ(s[2].group_a, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(s[2].group_b, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(s[2].down_for, 20 * sim::kSecond);

  EXPECT_EQ(s[3].kind, FaultKind::kCoordinatorCrash);
  EXPECT_EQ(s[3].down_for, 15 * sim::kSecond);
  // A coordcrash with no duration: down until explicitly rebooted.
  EXPECT_EQ(s[4].kind, FaultKind::kCoordinatorCrash);
  EXPECT_EQ(s[4].down_for, 0);
}

TEST(FaultPlanTest, RejectsBadPartitionAndOneWayScripts) {
  // Self links, in either syntax.
  EXPECT_THROW(FaultPlan::parse_script("5 linkdown 0->0 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("5 degrade 1->1 0.1 2 10"),
               std::invalid_argument);
  // Partition groups must be two non-empty disjoint sides.
  EXPECT_THROW(FaultPlan::parse_script("5 partition 01 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("5 partition |1 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("5 partition 0,1|1 10"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("5 coordcrash 1 2"),
               std::invalid_argument);
}

TEST(FaultPlanTest, RejectsMalformedScripts) {
  EXPECT_THROW(FaultPlan::parse_script("5 explode 1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("crash 1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("5 crash"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_script("5 degrade 0 1 0.05"),
               std::invalid_argument);
  // Permanent crash (no down_for) and empty scripts are fine.
  EXPECT_EQ(FaultPlan::parse_script("5 crash 1").size(), 1u);
  EXPECT_TRUE(FaultPlan::parse_script("").empty());
}

TEST(FaultPlanTest, ScheduleOrdersByTimeKeepingInsertionOrderOnTies) {
  FaultPlan plan;
  FaultEvent a;
  a.at = 20 * sim::kSecond;
  a.node = 1;
  FaultEvent b;
  b.at = 10 * sim::kSecond;
  b.node = 2;
  FaultEvent c;
  c.at = 20 * sim::kSecond;
  c.node = 3;
  plan.add(a);
  plan.add(b);
  plan.add(c);
  const std::vector<FaultEvent> s = plan.schedule();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].node, 2u);
  EXPECT_EQ(s[1].node, 1u);  // inserted before c at the same instant
  EXPECT_EQ(s[2].node, 3u);
}

// ---------------------------------------------------------------------------
// FaultPlan: stochastic sampling determinism — the property the soak
// suite leans on: the schedule is a pure function of (spec, counts, seed).

StochasticFaults full_spec() {
  StochasticFaults spec;
  spec.horizon = 600 * sim::kSecond;
  spec.node_crash_mtbf = 120 * sim::kSecond;
  spec.node_down_for = 60 * sim::kSecond;
  spec.link_down_mtbf = 200 * sim::kSecond;
  spec.disk_slow_mtbf = 150 * sim::kSecond;
  spec.clock_step_mtbf = 100 * sim::kSecond;
  spec.partition_mtbf = 250 * sim::kSecond;
  spec.coordinator_crash_mtbf = 300 * sim::kSecond;
  return spec;
}

TEST(FaultPlanTest, SameSeedSamplesIdenticalSchedules) {
  FaultPlan a;
  a.sample(full_spec(), 24, 2, sim::Rng(777));
  FaultPlan b;
  b.sample(full_spec(), 24, 2, sim::Rng(777));
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(same_schedule(a.schedule(), b.schedule()));

  FaultPlan c;
  c.sample(full_spec(), 24, 2, sim::Rng(778));
  EXPECT_FALSE(same_schedule(a.schedule(), c.schedule()));
}

TEST(FaultPlanTest, EnablingOneProcessDoesNotPerturbAnother) {
  // Each process forks its own child Rng: turning the disk process off
  // must leave the crash sequence untouched.
  StochasticFaults crashes_only = full_spec();
  crashes_only.link_down_mtbf = 0;
  crashes_only.disk_slow_mtbf = 0;
  crashes_only.clock_step_mtbf = 0;

  FaultPlan lone;
  lone.sample(crashes_only, 24, 2, sim::Rng(42));
  FaultPlan mixed;
  mixed.sample(full_spec(), 24, 2, sim::Rng(42));

  std::vector<FaultEvent> lone_crashes;
  for (const FaultEvent& e : lone.schedule()) {
    if (e.kind == FaultKind::kNodeCrash) lone_crashes.push_back(e);
  }
  std::vector<FaultEvent> mixed_crashes;
  for (const FaultEvent& e : mixed.schedule()) {
    if (e.kind == FaultKind::kNodeCrash) mixed_crashes.push_back(e);
  }
  EXPECT_FALSE(lone_crashes.empty());
  EXPECT_TRUE(same_schedule(lone_crashes, mixed_crashes));
}

// ---------------------------------------------------------------------------
// FaultInjector: each event kind has its advertised observable effect.

TestBedOptions two_cluster_opts() {
  TestBedOptions o;
  o.clusters = 2;
  o.nodes_per_cluster = 4;
  return o;
}

FaultInjector::Hooks hooks_for(TestBed& bed) {
  return FaultInjector::Hooks{&bed.fabric, &bed.store, bed.time.get(), {},
                              {}};
}

TEST(FaultInjectorTest, NullRegistryIsRejected) {
  TestBed bed(two_cluster_opts());
  EXPECT_THROW(FaultInjector(bed.sim, hooks_for(bed), nullptr),
               std::invalid_argument);
}

TEST(FaultInjectorTest, NodeCrashFailsAndRebootsTheNode) {
  TestBed bed(two_cluster_opts());
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  inj.arm(FaultPlan::parse_script("5 crash 1 10"));

  bed.sim.run_until(6 * sim::kSecond);
  EXPECT_TRUE(bed.fabric.node(1).failed());
  EXPECT_EQ(inj.injected(FaultKind::kNodeCrash), 1u);

  bed.sim.run_until(20 * sim::kSecond);
  EXPECT_FALSE(bed.fabric.node(1).failed());
  EXPECT_EQ(inj.lifted_total(), 1u);
  EXPECT_EQ(bed.metrics.counter_value("fault.injected"), 1u);
  EXPECT_EQ(bed.metrics.counter_value("fault.lifted"), 1u);
}

TEST(FaultInjectorTest, LinkDownCutsThePairThenRestoresIt) {
  TestBed bed(two_cluster_opts());
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  inj.arm(FaultPlan::parse_script("5 linkdown 0 1 10"));

  // Host 0 lives in cluster 0, host 4 in cluster 1 (4 nodes per cluster).
  net::ClusterLinkModel& links = bed.fabric.links();
  const double base = links.loss_probability(0, 4);

  bed.sim.run_until(6 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), 1.0);
  // Intra-cluster traffic is untouched.
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 1), 0.0);

  bed.sim.run_until(20 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), base);
}

TEST(FaultInjectorTest, OneWayCutAffectsOnlyThatDirection) {
  TestBed bed(two_cluster_opts());
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  inj.arm(FaultPlan::parse_script("5 linkdown 0->1 10"));

  net::ClusterLinkModel& links = bed.fabric.links();
  const double base = links.loss_probability(0, 4);

  bed.sim.run_until(6 * sim::kSecond);
  // Forward traffic drops; the reverse direction is untouched — the
  // asymmetric-transceiver failure mode.
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), 1.0);
  EXPECT_DOUBLE_EQ(links.loss_probability(4, 0), base);

  bed.sim.run_until(20 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), base);
  EXPECT_EQ(inj.lifted_total(), 1u);
}

TEST(FaultInjectorTest, PartitionCutsOnlyCrossGroupTraffic) {
  TestBedOptions o;
  o.clusters = 3;
  o.nodes_per_cluster = 2;  // hosts 0-1 / 2-3 / 4-5
  TestBed bed(o);
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  inj.arm(FaultPlan::parse_script("5 partition 0|1,2 10"));

  net::ClusterLinkModel& links = bed.fabric.links();
  const double base = links.loss_probability(2, 4);

  bed.sim.run_until(6 * sim::kSecond);
  // Every ordered pair across the cut drops...
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(links.loss_probability(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), 1.0);
  EXPECT_DOUBLE_EQ(links.loss_probability(4, 0), 1.0);
  // ...while traffic within a side flows normally: clusters 1 and 2 are
  // on the same side, and intra-cluster links never see the fault.
  EXPECT_DOUBLE_EQ(links.loss_probability(2, 4), base);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 1), 0.0);

  bed.sim.run_until(20 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 2), base);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), base);
  EXPECT_EQ(inj.injected(FaultKind::kPartition), 1u);
}

TEST(FaultInjectorTest, CoordinatorCrashInvokesHookOrIsSkipped) {
  TestBed bed(two_cluster_opts());
  std::vector<sim::Duration> crashes;
  FaultInjector::Hooks hooks = hooks_for(bed);
  hooks.coordinator_crash = [&](sim::Duration down_for) {
    crashes.push_back(down_for);
  };
  FaultInjector inj(bed.sim, hooks, &bed.metrics);
  inj.arm(FaultPlan::parse_script("5 coordcrash 15; 8 coordcrash"));

  bed.sim.run_until(20 * sim::kSecond);
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0], 15 * sim::kSecond);
  EXPECT_EQ(crashes[1], 0);
  EXPECT_EQ(inj.injected(FaultKind::kCoordinatorCrash), 2u);

  // Without a hook the event is skipped, not crashed-on.
  TestBed bare(two_cluster_opts());
  FaultInjector lone(bare.sim, hooks_for(bare), &bare.metrics);
  lone.arm(FaultPlan::parse_script("5 coordcrash 15"));
  bare.sim.run_until(20 * sim::kSecond);
  EXPECT_EQ(lone.skipped_total(), 1u);
}

TEST(FaultInjectorTest, DegradeAddsLossAndNestsUnderACut) {
  TestBed bed(two_cluster_opts());
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  inj.arm(FaultPlan::parse_script(
      "5 degrade 0 1 0.05 3 30; 10 linkdown 0 1 10"));

  net::ClusterLinkModel& links = bed.fabric.links();
  const double base = links.loss_probability(0, 4);

  bed.sim.run_until(6 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), base + 0.05);

  // While a cut is active it wins over the degrade...
  bed.sim.run_until(15 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), 1.0);

  // ...and when the cut lifts the still-active degrade resurfaces.
  bed.sim.run_until(25 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), base + 0.05);

  bed.sim.run_until(40 * sim::kSecond);
  EXPECT_DOUBLE_EQ(links.loss_probability(0, 4), base);
}

TEST(FaultInjectorTest, DiskSlowdownRunsAtTheWorstActiveFactor) {
  TestBed bed(two_cluster_opts());
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  const double base = bed.store.write_pool().capacity_bps();
  inj.arm(FaultPlan::parse_script("5 diskslow 4 30; 10 diskslow 8 10"));

  bed.sim.run_until(6 * sim::kSecond);
  EXPECT_DOUBLE_EQ(bed.store.write_pool().capacity_bps(), base / 4);

  bed.sim.run_until(15 * sim::kSecond);  // both active: worst factor wins
  EXPECT_DOUBLE_EQ(bed.store.write_pool().capacity_bps(), base / 8);

  bed.sim.run_until(25 * sim::kSecond);  // the 8x lifted, the 4x remains
  EXPECT_DOUBLE_EQ(bed.store.write_pool().capacity_bps(), base / 4);

  bed.sim.run_until(40 * sim::kSecond);
  EXPECT_DOUBLE_EQ(bed.store.write_pool().capacity_bps(), base);
}

TEST(FaultInjectorTest, ClockStepShiftsOneHostsWallClock) {
  TestBed bed(two_cluster_opts());
  FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
  inj.arm(FaultPlan::parse_script("5 clockstep 2 250"));

  bed.sim.run_until(4 * sim::kSecond);
  const sim::Duration before =
      bed.time->clock(2).local_now() - bed.time->clock(0).local_now();
  bed.sim.run_until(6 * sim::kSecond);
  const sim::Duration after =
      bed.time->clock(2).local_now() - bed.time->clock(0).local_now();
  // The relative offset jumps by the step (drift over 2 s is microseconds).
  EXPECT_NEAR(sim::to_seconds(after - before), 0.250, 0.005);
  EXPECT_EQ(inj.injected(FaultKind::kClockStep), 1u);
}

TEST(FaultInjectorTest, UnappliableEventsAreCountedAsSkipped) {
  TestBed bed(two_cluster_opts());
  // No store hook: disk events cannot be applied.
  FaultInjector inj(bed.sim,
                    FaultInjector::Hooks{&bed.fabric, nullptr,
                                         bed.time.get(), {}, {}},
                    &bed.metrics);
  inj.arm(FaultPlan::parse_script(
      "5 diskslow 4 10; 6 crash 99; 7 crash 1 30; 8 crash 1 30"));

  bed.sim.run_until(20 * sim::kSecond);
  // diskslow (no hook), crash 99 (bad id), second crash 1 (already dead).
  EXPECT_EQ(inj.skipped_total(), 3u);
  EXPECT_EQ(inj.injected_total(), 1u);
  EXPECT_TRUE(bed.fabric.node(1).failed());
  EXPECT_EQ(bed.metrics.counter_value("fault.skipped"), 3u);
}

TEST(FaultInjectorTest, InjectionSequenceIsDeterministicUnderASeed) {
  const auto run = [](std::uint64_t seed) {
    TestBed bed(two_cluster_opts());
    FaultPlan plan;
    plan.sample(full_spec(), 8, 2, sim::Rng(seed));
    FaultInjector inj(bed.sim, hooks_for(bed), &bed.metrics);
    inj.arm(plan);
    bed.sim.run_until(700 * sim::kSecond);
    return std::make_tuple(inj.injected_total(), inj.lifted_total(),
                           inj.skipped_total());
  };
  EXPECT_EQ(run(31), run(31));
}

}  // namespace
}  // namespace dvc
