#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/lsc.hpp"
#include "core/job_runner.hpp"
#include "core/machine_room.hpp"
#include "rm/scheduler.hpp"
#include "testbed.hpp"

namespace dvc {
namespace {

using core::MachineRoom;
using core::MachineRoomOptions;

app::WorkloadSpec quick_job(app::RankId ranks, std::uint32_t iters = 50) {
  app::WorkloadSpec s;
  s.name = "itest";
  s.ranks = ranks;
  s.iterations = iters;
  s.flops_per_rank_iter = 1e9;  // ~0.1 s per iteration
  s.pattern = app::Pattern::kAllToAll;
  s.bytes_per_msg = 2048;
  return s;
}

MachineRoomOptions runner_opts() {
  MachineRoomOptions o;
  o.clusters = 2;
  o.nodes_per_cluster = 6;
  o.store.write_bps = 400e6;
  o.store.read_bps = 800e6;
  return o;
}

/// A machine room under a scheduler and the job runner, with the
/// invariant checker attached for the whole run.
struct RunnerStack {
  explicit RunnerStack(MachineRoomOptions opt, rm::Scheduler::Config cfg)
      : room(opt), scheduler(room.sim, room.fabric, cfg),
        runner(room.sim, scheduler, *room.dvc),
        inv(check::Invariants::Wiring{&room.sim, room.dvc.get(),
                                      &room.images, &room.fence,
                                      &room.metrics}) {
    inv.attach();
  }
  ~RunnerStack() { inv.detach(); }

  /// The checker's final sweep: the run must have recorded no violation.
  void expect_clean() {
    inv.end_of_run(/*expect_quiesced=*/false);
    EXPECT_TRUE(inv.ok()) << inv.report();
  }

  MachineRoom room;
  rm::Scheduler scheduler;
  core::VirtualJobRunner runner;
  check::Invariants inv;
};

rm::Scheduler::Config runner_sched_cfg() {
  rm::Scheduler::Config cfg;
  cfg.auto_run = false;
  cfg.allow_spanning = true;
  cfg.mold_oversized = false;
  cfg.fail_jobs_on_node_failure = false;  // DVC recovers beneath the RM
  return cfg;
}

TEST(JobRunnerTest, RejectsAutoRunScheduler) {
  MachineRoom room(runner_opts());
  rm::Scheduler sched(room.sim, room.fabric, {});
  EXPECT_THROW(core::VirtualJobRunner(room.sim, sched, *room.dvc),
               std::invalid_argument);
}

TEST(JobRunnerTest, RunsQueuedWorkloadsThroughVirtualClusters) {
  RunnerStack s(runner_opts(), runner_sched_cfg());
  int finished = 0;
  vm::GuestConfig guest;
  guest.ram_bytes = 64ull << 20;
  // Three jobs: 12 nodes exist, so the third queues behind the others.
  for (const app::RankId ranks : {4u, 8u, 6u}) {
    s.runner.submit(quick_job(ranks), guest, 0,
                    [&](bool ok) { finished += ok ? 1 : 0; });
  }
  s.room.sim.run_until(600 * sim::kSecond);
  EXPECT_EQ(finished, 3);
  EXPECT_EQ(s.runner.jobs_completed(), 3u);
  EXPECT_EQ(s.scheduler.completed(), 3u);
  // Everything torn down: nodes free on both layers.
  for (hw::NodeId n = 0; n < s.room.fabric.node_count(); ++n) {
    EXPECT_FALSE(s.room.fabric.node(n).held()) << "node " << n;
  }
  EXPECT_EQ(s.scheduler.running(), 0u);
  s.expect_clean();
}

TEST(JobRunnerTest, SpanningJobRunsAcrossClusters) {
  RunnerStack s(runner_opts(), runner_sched_cfg());
  vm::GuestConfig guest;
  guest.ram_bytes = 64ull << 20;
  bool done = false;
  const rm::JobId id =
      s.runner.submit(quick_job(9), guest, 0, [&](bool ok) { done = ok; });
  s.room.sim.run_until(400 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_TRUE(s.scheduler.job(id).allocation.spans_clusters);
  s.expect_clean();
}

TEST(JobRunnerTest, InfeasibleJobIsReportedImmediately) {
  rm::Scheduler::Config cfg = runner_sched_cfg();
  cfg.allow_spanning = false;  // 13 ranks can never fit a 6-node cluster
  RunnerStack s(runner_opts(), cfg);
  vm::GuestConfig guest;
  std::optional<bool> outcome;
  s.runner.submit(quick_job(13), guest, 0,
                  [&](bool ok) { outcome = ok; });
  s.room.sim.run_until(sim::kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(*outcome);
  EXPECT_EQ(s.runner.jobs_abandoned(), 1u);
  EXPECT_TRUE(test::vc_held_nodes(s.room.fabric).empty());
  s.expect_clean();
}

TEST(JobRunnerTest, ProtectedJobSurvivesNodeFailure) {
  RunnerStack s(runner_opts(), runner_sched_cfg());
  ckpt::NtpLscCoordinator lsc(s.room.sim, {}, sim::Rng(41));
  lsc.set_check(&s.inv);
  core::VirtualJobRunner::Reliability rel;
  rel.coordinator = &lsc;
  rel.interval = 30 * sim::kSecond;
  s.runner.set_reliability(rel);

  vm::GuestConfig guest;
  guest.ram_bytes = 64ull << 20;
  bool done = false;
  const rm::JobId id = s.runner.submit(quick_job(6, 600), guest, 0,
                                       [&](bool ok) { done = ok; });
  // Kill one of the job's nodes mid-run; DVC recovers beneath the RM.
  s.room.sim.schedule_after(60 * sim::kSecond, [&] {
    const rm::JobRecord& rec = s.scheduler.job(id);
    ASSERT_FALSE(rec.allocation.nodes.empty());
    s.room.fabric.fail_node(rec.allocation.nodes.front());
  });
  s.room.sim.run_until(1200 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(s.scheduler.job(id).state, rm::JobState::kCompleted);
  EXPECT_GE(s.room.dvc->recoveries_performed(), 1u);
  EXPECT_EQ(s.runner.jobs_abandoned(), 0u);
  s.expect_clean();
}

TEST(JobRunnerTest, RecoveredMemberKeepsItsSpareNode) {
  // Job A loses its first node and recovery moves that member onto a spare
  // the scheduler never allocated. A job B submitted afterwards must not
  // be handed the spare: the two layers read one node ledger.
  RunnerStack s(runner_opts(), runner_sched_cfg());
  ckpt::NtpLscCoordinator lsc(s.room.sim, {}, sim::Rng(41));
  lsc.set_check(&s.inv);
  core::VirtualJobRunner::Reliability rel;
  rel.coordinator = &lsc;
  rel.interval = 30 * sim::kSecond;
  s.runner.set_reliability(rel);

  vm::GuestConfig guest;
  guest.ram_bytes = 64ull << 20;
  int completed = 0;
  const auto count = [&](bool ok) { completed += ok ? 1 : 0; };
  const rm::JobId a = s.runner.submit(quick_job(4, 3000), guest, 0, count);
  s.room.sim.schedule_after(60 * sim::kSecond, [&] {
    s.room.fabric.fail_node(s.scheduler.job(a).allocation.nodes.front());
  });
  rm::JobId b = rm::kInvalidJob;
  std::vector<hw::NodeId> a_placement;
  s.room.sim.schedule_after(200 * sim::kSecond, [&] {
    a_placement = s.room.dvc->live_vcs().front()->placements();
    b = s.runner.submit(quick_job(7, 600), guest, 0, count);
  });
  s.room.sim.run_until(1500 * sim::kSecond);

  ASSERT_NE(b, rm::kInvalidJob);
  // Member 0 left the dead node 0 for node 4; B was submitted while A ran.
  ASSERT_EQ(a_placement, (std::vector<hw::NodeId>{4, 1, 2, 3}));
  ASSERT_GT(s.scheduler.job(b).started_at, 0);
  ASSERT_LT(s.scheduler.job(b).started_at, s.scheduler.job(a).finished_at);
  for (const hw::NodeId n : s.scheduler.job(b).allocation.nodes) {
    EXPECT_EQ(std::count(a_placement.begin(), a_placement.end(), n), 0)
        << "job B was allocated node " << n << ", which job A's VC runs on";
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(s.scheduler.job(a).state, rm::JobState::kCompleted);
  EXPECT_EQ(s.scheduler.job(b).state, rm::JobState::kCompleted);
  s.expect_clean();
}

TEST(JobRunnerTest, UnprotectedJobIsAbandonedOnNodeFailure) {
  RunnerStack s(runner_opts(), runner_sched_cfg());
  vm::GuestConfig guest;
  guest.ram_bytes = 64ull << 20;
  std::optional<bool> done;
  const rm::JobId id = s.runner.submit(quick_job(6, 600), guest, 0,
                                       [&](bool ok) { done = ok; });
  s.room.sim.schedule_after(60 * sim::kSecond, [&] {
    s.room.fabric.fail_node(s.scheduler.job(id).allocation.nodes.front());
  });
  s.room.sim.run_until(1200 * sim::kSecond);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(*done);
  EXPECT_EQ(s.scheduler.job(id).state, rm::JobState::kFailed);
  EXPECT_EQ(s.runner.jobs_abandoned(), 1u);
  // The failed job's healthy nodes are reusable immediately.
  EXPECT_TRUE(test::vc_held_nodes(s.room.fabric).empty());
  s.expect_clean();
}

TEST(JobRunnerTest, JobFinishingMidRoundTearsDownCleanly) {
  // A protected job takes checkpoint #0 the moment its VC boots (15 s),
  // and the round's guests freeze ~2 s later. A job this short completes
  // in between, so the runner destroys its VC while the round is armed:
  // the round must die with the VC, not fire into its freed guests.
  RunnerStack s(runner_opts(), runner_sched_cfg());
  ckpt::NtpLscCoordinator lsc(s.room.sim, {}, sim::Rng(43));
  lsc.set_check(&s.inv);
  core::VirtualJobRunner::Reliability rel;
  rel.coordinator = &lsc;
  rel.interval = 30 * sim::kSecond;
  s.runner.set_reliability(rel);

  vm::GuestConfig guest;
  guest.ram_bytes = 64ull << 20;
  std::optional<bool> done;
  const rm::JobId id = s.runner.submit(quick_job(4, 5), guest, 0,
                                       [&](bool ok) { done = ok; });
  s.room.sim.run_until(300 * sim::kSecond);

  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(*done);
  EXPECT_EQ(s.scheduler.job(id).state, rm::JobState::kCompleted);
  EXPECT_LT(s.scheduler.job(id).finished_at, 17 * sim::kSecond);
  // The round never sealed, and nothing of the VC is left behind.
  EXPECT_EQ(s.room.dvc->checkpoints_taken(), 0u);
  EXPECT_EQ(s.room.metrics.counter_value("ckpt.lsc.members_saved"), 0u);
  EXPECT_TRUE(s.room.dvc->live_vcs().empty());
  EXPECT_TRUE(test::vc_held_nodes(s.room.fabric).empty());
  // The room's one VC (id 1) filed its sets under "itest#1".
  EXPECT_EQ(test::sealed_sets(s.room.images, "itest#1"), 0u);
  s.expect_clean();
}

// ---------------------------------------------------------------------------
// Whole-stack end-to-end: the paper's experiment in one test.

TEST(EndToEndTest, TwentySixVmCampaignWithFailureAndRecovery) {
  MachineRoomOptions opt;
  opt.nodes_per_cluster = 32;
  opt.seed = 2007;
  opt.store.write_bps = 400e6;
  opt.store.read_bps = 800e6;
  MachineRoom room(opt);

  core::VcSpec spec;
  spec.size = 26;
  spec.guest.ram_bytes = 64ull << 20;
  core::VirtualCluster& vc =
      room.dvc->create_vc(spec, *room.dvc->pick_nodes(26), {});
  room.sim.run_until(20 * sim::kSecond);

  app::ParallelApp application(room.sim, room.fabric.network(),
                               vc.contexts(), quick_job(26, 1200));
  room.dvc->attach_app(vc, application);
  application.start();

  ckpt::NtpLscCoordinator lsc(room.sim, {}, sim::Rng(2007));
  core::DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 30 * sim::kSecond;
  room.dvc->enable_auto_recovery(vc, policy);

  room.sim.schedule_after(70 * sim::kSecond,
                          [&] { room.fabric.fail_node(vc.placement(13)); });
  room.sim.run_until(1500 * sim::kSecond);

  EXPECT_TRUE(application.completed());
  EXPECT_FALSE(application.failed());
  EXPECT_GE(room.dvc->recoveries_performed(), 1u);
  EXPECT_GE(room.dvc->checkpoints_taken(), 2u);
  // Every rank did exactly its iterations — nothing lost, nothing doubled.
  for (std::uint32_t i = 0; i < 26; ++i) {
    EXPECT_EQ(application.rank(i).state().iter, 1200u);
  }
}

// ---------------------------------------------------------------------------
// Determinism: the whole stack replays bit-for-bit under one seed.

struct CampaignResult {
  double makespan = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
  sim::Time finished_at = 0;

  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

CampaignResult run_campaign(std::uint64_t seed) {
  MachineRoomOptions opt;
  opt.nodes_per_cluster = 12;
  opt.seed = seed;
  MachineRoom room(opt);
  core::VcSpec spec;
  spec.size = 8;
  spec.guest.ram_bytes = 64ull << 20;
  core::VirtualCluster& vc =
      room.dvc->create_vc(spec, *room.dvc->pick_nodes(8), {});
  room.sim.run_until(20 * sim::kSecond);
  app::ParallelApp application(room.sim, room.fabric.network(),
                               vc.contexts(), quick_job(8, 400));
  room.dvc->attach_app(vc, application);
  application.start();
  ckpt::NtpLscCoordinator lsc(room.sim, {}, sim::Rng(seed));
  core::DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 20 * sim::kSecond;
  room.dvc->enable_auto_recovery(vc, policy);
  room.sim.schedule_after(45 * sim::kSecond,
                          [&] { room.fabric.fail_node(vc.placement(3)); });
  room.sim.run_until(900 * sim::kSecond);

  CampaignResult r;
  r.makespan = application.stats().makespan_s;
  r.messages = application.stats().messages;
  r.retransmissions = application.stats().retransmissions;
  r.checkpoints = room.dvc->checkpoints_taken();
  r.recoveries = room.dvc->recoveries_performed();
  r.finished_at = room.sim.now();
  return r;
}

TEST(EndToEndTest, WholeStackIsDeterministicUnderASeed) {
  const CampaignResult a = run_campaign(99);
  const CampaignResult b = run_campaign(99);
  EXPECT_EQ(a, b);
  // And a different seed gives a different trajectory (jitter shifts the
  // timeline even when the deterministic workload sends the same volume).
  const CampaignResult c = run_campaign(100);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace dvc
