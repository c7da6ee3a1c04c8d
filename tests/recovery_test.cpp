#include <gtest/gtest.h>

#include <optional>

#include "fault/fault_plan.hpp"
#include "testbed.hpp"

namespace dvc {
namespace {

/// A VC + application + auto-recovery cell on a fabric with spare nodes,
/// with in-flight saves aborting on node death.
tools::CellSpec recovery_cell(std::uint32_t clusters,
                              std::uint32_t nodes_per_cluster,
                              std::uint32_t vc_size, std::uint32_t iters,
                              core::DvcManager::RecoveryPolicy policy,
                              ckpt::LscCoordinator::RetryPolicy retry) {
  tools::CellSpec spec = test::test_cell(
      test::failure_room(clusters, nodes_per_cluster), "rec-vc",
      128ull << 20, test::alltoall_job(vc_size, iters));
  spec.recovery = policy;
  spec.retry = retry;
  return spec;
}

// ---------------------------------------------------------------------------
// Crash a node mid-LSC-round: the round fails, recovery relocates the
// member, and the retried round re-resolves its targets and succeeds.

TEST(RecoveryTest, CrashMidRoundIsRetriedAgainstFreshTargetsAndSucceeds) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 300 * sim::kSecond;  // periodic rounds out of the way
  ckpt::LscCoordinator::RetryPolicy retry;
  retry.max_round_retries = 2;
  retry.backoff = 5 * sim::kSecond;
  tools::CellRig s(recovery_cell(/*clusters=*/1, /*nodes=*/12, /*vc=*/8,
                                 /*iters=*/3000, policy, retry));
  s.start_recovery();

  const hw::NodeId doomed = s.vc->placement(2);
  std::optional<ckpt::LscResult> result;
  // A manual round at 30 s: guests freeze at ~32 s (2 s NTP lead), the
  // 8 x 128 MiB set drains for ~5 s after that.
  s.room.sim.schedule_after(30 * sim::kSecond, [&] {
    s.room.dvc->checkpoint_vc(*s.vc, *s.lsc,
                              [&](ckpt::LscResult r) { result = r; });
  });
  // Kill member 2's node while its image is streaming: the in-flight save
  // aborts, the round fails, and the failure feed starts a recovery.
  s.room.sim.schedule_after(33 * sim::kSecond,
                            [&] { s.room.fabric.fail_node(doomed); });

  s.room.sim.run_until(120 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_GE(result->retries, 1);
  EXPECT_GE(s.room.metrics.counter_value("ckpt.lsc.round_retries"), 1u);
  // The retry fired at the member's *new* home, not the dead node: with
  // the stale mapping the round could never have succeeded (the dead
  // node's hypervisor rejects every save until the repair).
  EXPECT_NE(s.vc->placement(2), doomed);
  EXPECT_GE(s.room.dvc->recoveries_performed(), 1u);

  // The application survived the whole episode and keeps making progress.
  EXPECT_FALSE(s.application->failed());
  const auto iter_then = s.application->rank(0).state().iter;
  s.room.sim.run_until(150 * sim::kSecond);
  EXPECT_GT(s.application->rank(0).state().iter, iter_then);
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// Kill a member VM after a checkpoint sealed: no node fails, so only the
// member watchdog can notice; it restores the VC from the last complete
// checkpoint and the job finishes every iteration exactly once.

TEST(RecoveryTest, WatchdogRestoresVcAfterMemberVmDies) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 20 * sim::kSecond;
  policy.watchdog_interval = 7 * sim::kSecond;
  tools::CellRig s(recovery_cell(/*clusters=*/1, /*nodes=*/8, /*vc=*/6,
                                 /*iters=*/600, policy, {}));
  s.start_recovery();

  // By 30 s at least one periodic checkpoint has sealed. The guest dies
  // without its node failing — invisible to the hardware failure feed.
  s.room.sim.schedule_after(30 * sim::kSecond,
                            [&] { s.vc->machine(4).kill(); });

  s.room.sim.run_until(400 * sim::kSecond);
  EXPECT_GE(s.room.dvc->watchdog_detections(), 1u);
  EXPECT_GE(s.room.dvc->recoveries_performed(), 1u);
  EXPECT_TRUE(s.application->completed());
  EXPECT_FALSE(s.application->failed());
  // No lost completed work and nothing double-counted: every rank ran its
  // iterations to the end after the rollback.
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(s.application->rank(i).state().iter, 600u);
  }
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// An inter-cluster cut longer than the transport retry budget aborts the
// application with every member alive: only the watchdog's application
// check can trigger the rollback that saves the job.

TEST(RecoveryTest, WatchdogRecoversFromApplicationLevelTransportFailure) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 25 * sim::kSecond;
  policy.watchdog_interval = 9 * sim::kSecond;
  // 8 ranks over 6-node clusters: the VC necessarily spans both.
  tools::CellSpec spec = recovery_cell(/*clusters=*/2, /*nodes=*/6, /*vc=*/8,
                                       /*iters=*/600, policy, {});
  // Cut the inter-cluster link for 40 s starting at 40 s — longer than
  // the ~25 s retransmission budget, so endpoints abort and the app
  // reports failure while every node and VM stays healthy.
  spec.faults = fault::FaultPlan::parse_script("40 linkdown 0 1 40");
  tools::CellRig s(spec);
  s.start_recovery();

  s.room.sim.run_until(600 * sim::kSecond);
  EXPECT_GT(s.room.metrics.counter_value("net.endpoint.aborts"), 0u);
  EXPECT_GE(s.room.dvc->watchdog_detections(), 1u);
  EXPECT_GE(s.room.dvc->recoveries_performed(), 1u);
  EXPECT_TRUE(s.application->completed());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(s.application->rank(i).state().iter, 600u);
  }
  EXPECT_TRUE(test::clean_end_of_run(s));
}

}  // namespace
}  // namespace dvc
