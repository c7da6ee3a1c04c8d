#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "fault/fault_plan.hpp"
#include "testbed.hpp"

namespace dvc {
namespace {

/// A VC + application + auto-recovery cell whose control plane is itself
/// a fault domain: the DVC coordinator runs on a designated head node,
/// journals intents, and fences its commands with the coordinator epoch.
tools::CellSpec coord_cell(std::uint32_t clusters,
                           std::uint32_t nodes_per_cluster,
                           std::uint32_t vc_size, std::uint32_t iters,
                           core::DvcManager::RecoveryPolicy policy,
                           hw::NodeId head) {
  tools::CellSpec spec = test::test_cell(
      test::failure_room(clusters, nodes_per_cluster), "coord-vc",
      128ull << 20, test::alltoall_job(vc_size, iters));
  spec.head_node = head;
  spec.recovery = policy;
  return spec;
}

core::DvcManager::RecoveryPolicy manual_rounds_policy() {
  core::DvcManager::RecoveryPolicy p;
  p.interval = 300 * sim::kSecond;  // periodic rounds out of the way
  return p;
}

// ---------------------------------------------------------------------------
// Crash the coordinator at every phase of an LSC round — before the
// guests freeze, mid-save, just before the seal, and after the seal. In
// every case the control plane must come back consistent: the deposed
// round's set is either the (single) recovery point or swept as an
// orphan, a fresh round succeeds afterwards, and the job keeps running.

TEST(CoordinatorRecoveryTest, CrashAtEveryRoundPhaseEndsConsistent) {
  // A round at 30 s: guests freeze at ~32 s (NTP lead), the 8 x 128 MiB
  // set drains for ~5 s after that and seals at ~37.5 s.
  const double phases[] = {30.5, 33.0, 36.0, 40.0};
  for (const double crash_s : phases) {
    SCOPED_TRACE("coordinator crash at " + std::to_string(crash_s) + " s");
    tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/8,
                                /*iters=*/3000, manual_rounds_policy(),
                                /*head=*/11));
    s.start_recovery();

    std::optional<ckpt::LscResult> first;
    s.room.sim.schedule_at(30 * sim::kSecond, [&] {
      s.room.dvc->checkpoint_vc(*s.vc, *s.lsc,
                                [&](ckpt::LscResult r) { first = r; });
    });
    s.room.sim.schedule_at(
        static_cast<sim::Time>(crash_s * sim::kSecond),
        [&] { s.room.dvc->crash_coordinator(10 * sim::kSecond); });

    s.room.sim.run_until(100 * sim::kSecond);
    EXPECT_TRUE(s.room.dvc->coordinator_up());
    EXPECT_EQ(s.room.dvc->coordinator_crashes(), 1u);
    EXPECT_EQ(s.room.dvc->coordinator_reboots(), 1u);
    // The round's completion either reached the issuing incarnation
    // (post-seal crash) or was dropped at the door as stale.
    EXPECT_TRUE(first.has_value() ||
                s.room.dvc->stale_completions() >= 1u);

    // The rebooted incarnation is fully operational: a fresh round seals
    // and becomes *the* recovery point — the deposed round's set (whose
    // app snapshots died with the old coordinator) cannot shadow it.
    std::optional<ckpt::LscResult> second;
    s.room.dvc->checkpoint_vc(*s.vc, *s.lsc,
                              [&](ckpt::LscResult r) { second = r; });
    s.room.sim.run_until(160 * sim::kSecond);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->ok);
    const storage::CheckpointSet* latest =
        s.room.images.latest_sealed(s.vc->checkpoint_label());
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->id, second->set);

    // Every journalled intent was either completed or resolved by the
    // reboot's reconciliation pass — nothing half-open remains.
    EXPECT_GT(s.room.metrics.counter_value("core.dvc.wal_appends"), 0u);
    ASSERT_NE(s.room.dvc->intent_log(), nullptr);
    EXPECT_TRUE(s.room.dvc->intent_log()->open_intents().empty());

    // The application survived the whole episode and makes progress.
    EXPECT_FALSE(s.application->failed());
    const auto iter_then = s.application->rank(0).state().iter;
    s.room.sim.run_until(190 * sim::kSecond);
    EXPECT_GT(s.application->rank(0).state().iter, iter_then);
    EXPECT_TRUE(test::clean_end_of_run(s));
  }
}

// ---------------------------------------------------------------------------
// Split-brain fencing: commands stamped with a deposed incarnation's
// epoch are rejected at both enforcement points — the image store and the
// hypervisors — and counted in telemetry.

TEST(CoordinatorRecoveryTest, DeposedEpochIsFencedAtStoreAndHypervisor) {
  tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/4,
                              /*iters=*/3000, manual_rounds_policy(),
                              /*head=*/11));
  s.start_recovery();
  const std::uint64_t deposed = s.room.dvc->coordinator_epoch();
  EXPECT_EQ(deposed, s.room.fence.current());

  // Capture save targets stamped with the current epoch, then depose that
  // incarnation: crash + reboot advances the fence.
  std::vector<ckpt::SaveTarget> stale = s.room.dvc->save_targets(*s.vc);
  ASSERT_FALSE(stale.empty());
  EXPECT_EQ(stale.front().epoch, deposed);
  s.room.dvc->crash_coordinator(sim::kSecond);
  s.room.sim.run_until(60 * sim::kSecond);  // reboot waits the lease out
  ASSERT_TRUE(s.room.dvc->coordinator_up());
  EXPECT_GT(s.room.dvc->coordinator_epoch(), deposed);

  // Store fencing: a stale-epoch open yields no set.
  EXPECT_EQ(s.room.images.open_set("stale-round", 4, deposed),
            storage::kInvalidCheckpointSet);
  EXPECT_GE(s.room.metrics.counter_value("storage.images.fenced_writes"), 1u);

  // Hypervisor fencing: a stale-epoch save is rejected before the guest
  // is even paused.
  const storage::CheckpointSetId live = s.room.images.open_set(
      "fence-probe", 1, s.room.fence.current());
  ASSERT_NE(live, storage::kInvalidCheckpointSet);
  std::optional<bool> saved;
  stale.front().hypervisor->save_domain(
      *stale.front().machine, s.room.images, live, 0,
      [&](bool ok, std::any) { saved = ok; }, false, deposed);
  s.room.sim.run_until(70 * sim::kSecond);
  ASSERT_TRUE(saved.has_value());
  EXPECT_FALSE(*saved);
  EXPECT_GE(s.room.metrics.counter_value("vm.hypervisor.fenced_commands"),
            1u);
  EXPECT_EQ(stale.front().machine->state(), vm::DomainState::kRunning);

  // A whole LSC round driven with the deposed targets aborts cleanly at
  // the store fence without freezing a single guest.
  std::optional<ckpt::LscResult> r;
  s.lsc->checkpoint(s.vc->checkpoint_label(), stale, s.room.images,
                    [&](ckpt::LscResult res) { r = res; });
  s.room.sim.run_until(90 * sim::kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok);
  EXPECT_TRUE(r->aborted_cleanly);
  EXPECT_FALSE(s.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// The coordinator dies while a whole-VC restore is in flight. The guests
// land where the restore put them, but its completion belongs to a dead
// incarnation and is dropped: the VC stays recovering until the reboot's
// reconciliation finds every member alive and running and takes it
// recovering -> running.

TEST(CoordinatorRecoveryTest, RestoreLandingWhileHeadlessIsFenced) {
  tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/4,
                              /*iters=*/3000, manual_rounds_policy(),
                              /*head=*/11));
  s.start_recovery();
  test::RecordingChecker rec(s.room.sim, s.inv.get());
  s.room.dvc->set_check(&rec);

  // Checkpoint #0 seals by ~25 s; the restore it feeds starts at 40 s and
  // reads 4 x 128 MiB for ~1.5 s, so the crash at 40.2 s lands mid-read.
  // The reboot cannot come before 60.2 s (down_for).
  const sim::Time crash_at = 40 * sim::kSecond + 200 * sim::kMillisecond;
  const sim::Time reboot_at = crash_at + 20 * sim::kSecond;
  s.room.sim.schedule_at(40 * sim::kSecond,
                         [&] { s.room.dvc->recover_now(*s.vc); });
  s.room.sim.schedule_at(
      crash_at, [&] { s.room.dvc->crash_coordinator(20 * sim::kSecond); });
  std::optional<core::VcState> while_headless;
  s.room.sim.schedule_at(reboot_at - sim::kSecond,
                         [&] { while_headless = s.vc->state(); });
  s.room.sim.run_until(100 * sim::kSecond);

  using S = core::VcState;
  ASSERT_EQ(rec.edges, (std::vector<test::RecordingChecker::Edge>{
                           {S::kRunning, S::kCheckpointing},
                           {S::kCheckpointing, S::kRunning},
                           {S::kRunning, S::kRecovering},
                           {S::kRecovering, S::kRunning}}));
  EXPECT_EQ(while_headless, S::kRecovering);
  // The last edge is the reboot's reconciliation, not the restore.
  EXPECT_GE(rec.edge_times.back(), reboot_at);
  EXPECT_EQ(s.room.dvc->coordinator_reboots(), 1u);
  EXPECT_GE(s.room.dvc->stale_completions(), 1u);
  EXPECT_EQ(s.room.dvc->recoveries_performed(), 0u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.restores"), 0u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.reconcile_resumes"), 0u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.reconcile_recoveries"),
            0u);
  EXPECT_EQ(s.vc->state(), S::kRunning);

  EXPECT_FALSE(s.application->failed());
  const auto iter_then = s.application->rank(0).state().iter;
  s.room.sim.run_until(130 * sim::kSecond);
  EXPECT_GT(s.application->rank(0).state().iter, iter_then);
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// A rebooted coordinator restores a VC while the deposed incarnation's
// member restores are still landing. The manager keeps one record per
// restore, not per VC: the deposed restore's record ends when its last
// member reports (dropped at the door as stale), the new one's when its
// own members do, and neither disturbs the other.

TEST(CoordinatorRecoveryTest, RebootRestoresWhileDeposedRestoreLands) {
  tools::CellSpec spec = coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/4,
                                    /*iters=*/3000, manual_rounds_policy(),
                                    /*head=*/11);
  spec.room.store.read_bps = 40e6;  // 4 x 128 MiB of member reads take ~13 s
  spec.head_lease = 2 * sim::kSecond;
  tools::CellRig s(spec);
  s.start_recovery();

  // Checkpoint #0 seals by ~25 s. The first incarnation's restore starts
  // at 40 s; its coordinator dies at 41 s, and member 0's node with it
  // while headless. The reboot (lease out by ~43 s) finds a dead member
  // and restores the whole VC again, onto a spare for member 0.
  const hw::NodeId doomed = s.vc->placement(0);
  s.room.sim.schedule_at(40 * sim::kSecond,
                         [&] { s.room.dvc->recover_now(*s.vc); });
  s.room.sim.schedule_at(41 * sim::kSecond,
                         [&] { s.room.dvc->crash_coordinator(sim::kSecond); });
  s.room.sim.schedule_at(41 * sim::kSecond + 500 * sim::kMillisecond,
                         [&] { s.room.fabric.fail_node(doomed); });
  std::size_t both_open = 0;
  std::uint64_t stale_before = 0;
  for (int t = 41; t < 60; ++t) {
    s.room.sim.schedule_at(t * sim::kSecond + 900 * sim::kMillisecond, [&] {
      if (s.room.dvc->coordinator_reboots() == 1 && both_open == 0) {
        both_open = s.room.dvc->operations_in_flight();
        stale_before = s.room.dvc->stale_completions();
      }
    });
  }
  s.room.sim.run_until(100 * sim::kSecond);

  // Both restores were in flight under the new incarnation at once.
  EXPECT_EQ(both_open, 2u);
  EXPECT_EQ(stale_before, 0u);
  EXPECT_EQ(s.room.dvc->coordinator_reboots(), 1u);
  // The deposed restore ended as stale; the new one ended the recovery.
  EXPECT_GE(s.room.dvc->stale_completions(), 1u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.reconcile_recoveries"),
            1u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.restores"), 1u);
  EXPECT_EQ(s.room.dvc->recoveries_performed(), 1u);
  EXPECT_EQ(s.room.dvc->operations_in_flight(), 0u);
  EXPECT_EQ(s.vc->state(), core::VcState::kRunning);
  EXPECT_NE(s.vc->placement(0), doomed);
  EXPECT_FALSE(s.application->failed());
  const auto iter_then = s.application->rank(0).state().iter;
  s.room.sim.run_until(130 * sim::kSecond);
  EXPECT_GT(s.application->rank(0).state().iter, iter_then);
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// A recovery retry issued by an incarnation that has since died must not
// run under its successor. Two of the VC's four nodes die with one spare
// free, so the recovery waits 30 s for spares. The coordinator crashes
// meanwhile, the nodes are repaired, and the reboot's reconciliation
// recovers the VC. When the dead incarnation's retry fires, the VC is
// healthy and running again: the retry is dropped, not a second restore.

TEST(CoordinatorRecoveryTest, RetryFromADeadIncarnationIsDropped) {
  tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/5, /*vc=*/4,
                              /*iters=*/3000, manual_rounds_policy(),
                              /*head=*/4));
  s.start_recovery();
  ASSERT_EQ(s.vc->placements(), (std::vector<hw::NodeId>{0, 1, 2, 3}));

  // Checkpoint #0 seals by ~25 s. The failures at 40 s are noticed at
  // 41 s, when only node 4 is spare: the retry is due at 71 s.
  s.room.sim.schedule_at(40 * sim::kSecond, [&] {
    s.room.fabric.fail_node(0);
    s.room.fabric.fail_node(1);
  });
  s.room.sim.schedule_at(46 * sim::kSecond,
                         [&] { s.room.dvc->crash_coordinator(sim::kSecond); });
  s.room.sim.schedule_at(48 * sim::kSecond, [&] {
    s.room.fabric.repair_node(0);
    s.room.fabric.repair_node(1);
  });
  // The reboot waits out the lease (~55 s) and recovers the VC.
  std::optional<std::uint64_t> recovered_by_reboot;
  s.room.sim.schedule_at(70 * sim::kSecond, [&] {
    recovered_by_reboot = s.room.dvc->recoveries_performed();
  });
  s.room.sim.run_until(120 * sim::kSecond);

  EXPECT_EQ(s.room.dvc->coordinator_reboots(), 1u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.reconcile_recoveries"),
            1u);
  EXPECT_EQ(recovered_by_reboot, 1u);
  EXPECT_EQ(s.room.dvc->recoveries_performed(), 1u);
  EXPECT_EQ(s.room.metrics.counter_value("core.dvc.restores"), 1u);
  EXPECT_GE(s.room.dvc->stale_completions(), 1u);
  EXPECT_EQ(s.vc->state(), core::VcState::kRunning);
  EXPECT_FALSE(s.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// A partition cuts only traffic crossing the cut; each side keeps its
// intra-side links. A cut shorter than the transport retry budget
// (~12.6 s at the default config) is masked by retransmission: the
// spanning job never notices.

TEST(PartitionTest, ShortPartitionIsMaskedByRetransmission) {
  // 8 ranks over 6-node clusters: the VC necessarily spans both.
  tools::CellSpec spec = coord_cell(/*clusters=*/2, /*nodes=*/6, /*vc=*/8,
                                    /*iters=*/3000, manual_rounds_policy(),
                                    /*head=*/0);
  spec.faults = fault::FaultPlan::parse_script("40 partition 0|1 8");
  tools::CellRig s(spec);
  s.start_recovery();

  // Mid-window: cross-cut traffic drops both ways, intra-side flows.
  s.room.sim.schedule_at(44 * sim::kSecond, [&] {
    net::ClusterLinkModel& links = s.room.fabric.links();
    EXPECT_DOUBLE_EQ(links.loss_probability(0, 6), 1.0);
    EXPECT_DOUBLE_EQ(links.loss_probability(6, 0), 1.0);
    EXPECT_DOUBLE_EQ(links.loss_probability(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(links.loss_probability(6, 7), 0.0);
  });

  s.room.sim.run_until(120 * sim::kSecond);
  EXPECT_EQ(s.injector->injected(fault::FaultKind::kPartition), 1u);
  EXPECT_EQ(s.injector->lifted_total(), 1u);
  // 8 s < the ~12.6 s retry budget: no endpoint aborted, no recovery ran,
  // the job just stalled across the cut and caught up.
  EXPECT_EQ(s.room.metrics.counter_value("net.endpoint.aborts"), 0u);
  EXPECT_EQ(s.room.dvc->recoveries_performed(), 0u);
  EXPECT_FALSE(s.application->failed());
  const auto iter_then = s.application->rank(0).state().iter;
  s.room.sim.run_until(150 * sim::kSecond);
  EXPECT_GT(s.application->rank(0).state().iter, iter_then);
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// migrate_vc failure paths: a death between the save-and-hold and the
// restore must end in "resumed from the held checkpoint" or a diagnosed
// failure — never a silent wedge.

TEST(MigrateFailureTest, TargetNodeDeathMidMigrationNeverWedges) {
  core::DvcManager::RecoveryPolicy policy = manual_rounds_policy();
  policy.watchdog_interval = 10 * sim::kSecond;
  tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/4,
                              /*iters=*/3000, policy, /*head=*/11));
  s.start_recovery();

  // Migrate onto 6..9; node 7 dies while the held images are moving
  // (saves drain ~32–34.7 s, staging follows).
  std::optional<bool> migrated;
  s.room.sim.schedule_at(30 * sim::kSecond, [&] {
    s.room.dvc->migrate_vc(*s.vc, *s.lsc, {6, 7, 8, 9},
                           [&](bool ok) { migrated = ok; });
  });
  s.room.sim.schedule_at(
      static_cast<sim::Time>(34.5 * sim::kSecond),
      [&] { s.room.fabric.fail_node(7); });

  s.room.sim.run_until(200 * sim::kSecond);
  // The caller always hears the verdict.
  ASSERT_TRUE(migrated.has_value());
  // And the VC is either running again (in place or re-recovered from the
  // held checkpoint) or its failure was diagnosed — not wedged.
  if (s.room.dvc->recoveries_abandoned() == 0) {
    EXPECT_FALSE(s.application->failed());
    const auto iter_then = s.application->rank(0).state().iter;
    s.room.sim.run_until(240 * sim::kSecond);
    EXPECT_GT(s.application->rank(0).state().iter, iter_then);
  }
  EXPECT_TRUE(test::clean_end_of_run(s));
}

TEST(MigrateFailureTest, CoordinatorCrashMidMigrationResumesOrRecovers) {
  core::DvcManager::RecoveryPolicy policy = manual_rounds_policy();
  policy.watchdog_interval = 10 * sim::kSecond;
  tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/4,
                              /*iters=*/3000, policy, /*head=*/11));
  s.start_recovery();

  // The coordinator dies during the save-and-hold: the members sit frozen
  // with nobody to move them until the reboot's reconciliation pass.
  std::optional<bool> migrated;
  s.room.sim.schedule_at(30 * sim::kSecond, [&] {
    s.room.dvc->migrate_vc(*s.vc, *s.lsc, {6, 7, 8, 9},
                           [&](bool ok) { migrated = ok; });
  });
  s.room.sim.schedule_at(
      34 * sim::kSecond,
      [&] { s.room.dvc->crash_coordinator(10 * sim::kSecond); });

  s.room.sim.run_until(200 * sim::kSecond);
  ASSERT_TRUE(s.room.dvc->coordinator_up());
  // Reconciliation either thawed the held members in place or re-drove a
  // whole-VC recovery from the durable checkpoint.
  EXPECT_GE(s.room.metrics.counter_value("core.dvc.reconcile_resumes") +
                s.room.metrics.counter_value("core.dvc.reconcile_recoveries"),
            1u);
  EXPECT_FALSE(s.application->failed());
  const auto iter_then = s.application->rank(0).state().iter;
  s.room.sim.run_until(240 * sim::kSecond);
  EXPECT_GT(s.application->rank(0).state().iter, iter_then);
  // No half-open intent survives the reboot.
  ASSERT_NE(s.room.dvc->intent_log(), nullptr);
  EXPECT_TRUE(s.room.dvc->intent_log()->open_intents().empty());
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// The head node *is* the coordinator's fault domain: when it dies the
// control plane dies with it, and the coordinator reboots (with a new
// epoch) once the node is repaired.

TEST(CoordinatorRecoveryTest, HeadNodeDeathTakesCoordinatorDownUntilRepair) {
  tools::CellRig s(coord_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/4,
                              /*iters=*/3000, manual_rounds_policy(),
                              /*head=*/11));
  s.start_recovery();
  const std::uint64_t before = s.room.dvc->coordinator_epoch();

  s.room.sim.schedule_at(30 * sim::kSecond,
                         [&] { s.room.fabric.fail_node(11); });
  s.room.sim.schedule_at(80 * sim::kSecond,
                         [&] { s.room.fabric.repair_node(11); });

  s.room.sim.run_until(40 * sim::kSecond);
  EXPECT_FALSE(s.room.dvc->coordinator_up());
  EXPECT_EQ(s.room.dvc->coordinator_crashes(), 1u);

  s.room.sim.run_until(150 * sim::kSecond);
  EXPECT_TRUE(s.room.dvc->coordinator_up());
  EXPECT_GT(s.room.dvc->coordinator_epoch(), before);
  EXPECT_FALSE(s.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(s));
}

}  // namespace
}  // namespace dvc
