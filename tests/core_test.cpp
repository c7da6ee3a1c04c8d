#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <array>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/lsc.hpp"
#include "core/dvc_manager.hpp"
#include "testbed.hpp"

namespace dvc::core {
namespace {

using test::TestBed;

TestBed::Options two_cluster_opts(std::uint32_t nodes_per = 4) {
  TestBed::Options o;
  o.clusters = 2;
  o.nodes_per_cluster = nodes_per;
  o.store.write_bps = 400e6;
  o.store.read_bps = 800e6;
  return o;
}

VcSpec small_vc(std::uint32_t size, std::uint64_t ram = 64ull << 20) {
  VcSpec spec;
  spec.name = "vc";
  spec.size = size;
  spec.guest.ram_bytes = ram;
  return spec;
}

TEST(DvcManagerTest, PickNodesPacksSingleClusterThenSpans) {
  TestBed bed(two_cluster_opts());
  const auto packed = bed.dvc->pick_nodes(4);
  ASSERT_TRUE(packed.has_value());
  std::set<hw::ClusterId> clusters;
  for (const auto n : *packed) clusters.insert(bed.fabric.node(n).cluster());
  EXPECT_EQ(clusters.size(), 1u);

  const auto spanned = bed.dvc->pick_nodes(6);
  ASSERT_TRUE(spanned.has_value());
  clusters.clear();
  for (const auto n : *spanned) clusters.insert(bed.fabric.node(n).cluster());
  EXPECT_EQ(clusters.size(), 2u);

  EXPECT_FALSE(bed.dvc->pick_nodes(9).has_value());
}

TEST(DvcManagerTest, PickNodesSkipsClaimedAndFailed) {
  TestBed bed(two_cluster_opts());
  bed.fabric.fail_node(0);
  auto placement = bed.dvc->pick_nodes(3);
  ASSERT_TRUE(placement.has_value());
  bed.dvc->create_vc(small_vc(3), *placement, {});
  const auto rest = bed.dvc->pick_nodes(4);
  ASSERT_TRUE(rest.has_value());
  for (const auto n : *rest) {
    EXPECT_NE(n, 0u);
    EXPECT_FALSE(std::count(placement->begin(), placement->end(), n));
  }
  EXPECT_FALSE(bed.dvc->pick_nodes(5).has_value());
}

TEST(DvcManagerTest, PickNodesAvoidsCondemnedNodes) {
  TestBed bed(two_cluster_opts());
  bed.fabric.predict_failure(1, 10 * sim::kMinute);
  const auto placement = bed.dvc->pick_nodes(4);
  ASSERT_TRUE(placement.has_value());
  for (const hw::NodeId n : *placement) EXPECT_NE(n, 1u);
  // After the sentence is carried out and the node repaired, it is
  // allocatable again.
  bed.sim.run_until(11 * sim::kMinute);
  EXPECT_TRUE(bed.fabric.node(1).failed());
  bed.fabric.repair_node(1);
  EXPECT_FALSE(bed.fabric.node(1).condemned());
  EXPECT_TRUE(bed.dvc->pick_nodes(8).has_value());
}

TEST(DvcManagerTest, PickNodesTriesClusterZeroFirst) {
  // The DVC has no home cluster: with one free node left in each cluster
  // it packs from cluster 0 and spans in cluster id order.
  TestBed bed(two_cluster_opts());
  bed.dvc->create_vc(small_vc(3), {0, 1, 2}, {});
  bed.dvc->create_vc(small_vc(3), {4, 5, 6}, {});
  EXPECT_EQ(bed.dvc->pick_nodes(1), (std::vector<hw::NodeId>{3}));
  EXPECT_EQ(bed.dvc->pick_nodes(2), (std::vector<hw::NodeId>{3, 7}));
}

TEST(DvcManagerTest, CreateVcBootsEveryMachine) {
  TestBed bed(two_cluster_opts());
  bool ready = false;
  VirtualCluster& vc =
      bed.dvc->create_vc(small_vc(3), {0, 1, 2}, [&] { ready = true; });
  EXPECT_EQ(vc.state(), VcState::kProvisioning);
  bed.sim.run_until(20 * sim::kSecond);
  EXPECT_TRUE(ready);
  EXPECT_EQ(vc.state(), VcState::kRunning);
  EXPECT_EQ(vc.contexts().size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(vc.machine(i).running());
    EXPECT_EQ(vc.machine(i).placed_on(), i);
  }
  EXPECT_EQ(test::vc_held_nodes(bed.fabric).size(), 3u);
  EXPECT_FALSE(vc.spans_clusters(bed.fabric));
  EXPECT_EQ(vc.instantiations(), 1u);
}

TEST(DvcManagerTest, SpanningVcIsDetected) {
  TestBed bed(two_cluster_opts());
  VirtualCluster& vc = bed.dvc->create_vc(small_vc(6), {0, 1, 2, 3, 4, 5}, {});
  EXPECT_TRUE(vc.spans_clusters(bed.fabric));
}

TEST(DvcManagerTest, DestroyReleasesClaims) {
  TestBed bed(two_cluster_opts());
  VirtualCluster& vc = bed.dvc->create_vc(small_vc(3), {0, 1, 2}, {});
  bed.sim.run_until(20 * sim::kSecond);
  bed.dvc->destroy_vc(vc);  // invalidates vc
  EXPECT_TRUE(test::vc_held_nodes(bed.fabric).empty());
  EXPECT_TRUE(bed.dvc->pick_nodes(8).has_value());
}

TEST(DvcManagerTest, AttachAppSizeMismatchThrows) {
  TestBed bed(two_cluster_opts());
  VirtualCluster& vc = bed.dvc->create_vc(small_vc(3), {0, 1, 2}, {});
  bed.sim.run_until(20 * sim::kSecond);
  auto contexts = vc.contexts();
  contexts.pop_back();
  app::ParallelApp two(bed.sim, bed.fabric.network(), contexts,
                       test::alltoall_job(2, 10, 2048));
  EXPECT_THROW(bed.dvc->attach_app(vc, two), std::invalid_argument);
}

struct RunningVc {
  RunningVc(TestBed& bed, std::uint32_t size, std::uint32_t iters,
            std::vector<hw::NodeId> placement)
      : vc(&bed.dvc->create_vc(small_vc(size), std::move(placement), {})) {
    bed.sim.run_until(20 * sim::kSecond);
    application = std::make_unique<app::ParallelApp>(
        bed.sim, bed.fabric.network(), vc->contexts(),
        test::alltoall_job(size, iters, 2048));
    bed.dvc->attach_app(*vc, *application);
    application->start();
  }

  VirtualCluster* vc;
  std::unique_ptr<app::ParallelApp> application;
};

TEST(DvcManagerTest, CheckpointRecordsRecoveryPoint) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(3));
  std::optional<ckpt::LscResult> result;
  bed.sim.schedule_after(5 * sim::kSecond, [&] {
    bed.dvc->checkpoint_vc(*r.vc, lsc,
                           [&](ckpt::LscResult res) { result = res; });
  });
  bed.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_TRUE(r.vc->has_checkpoint());
  EXPECT_EQ(r.vc->generations().back().set(), result->set);
  EXPECT_EQ(bed.dvc->checkpoints_taken(), 1u);
  EXPECT_FALSE(r.application->failed());
}

TEST(DvcManagerTest, RestoreOntoDisjointNodesResumesFromCheckpoint) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 400, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(5));
  bed.sim.schedule_after(5 * sim::kSecond, [&] {
    bed.dvc->checkpoint_vc(*r.vc, lsc, {});
  });
  // Node 1 dies mid-run; with no auto policy, we drive recovery by hand
  // onto a completely different node set (the paper's headline ability).
  bed.sim.schedule_after(40 * sim::kSecond,
                         [&] { bed.fabric.fail_node(1); });
  bool restored = false;
  bed.sim.schedule_after(45 * sim::kSecond, [&] {
    bed.dvc->restore_vc(*r.vc, {4, 5, 6}, [&](bool ok) { restored = ok; });
  });
  bed.sim.run_until(300 * sim::kSecond);
  EXPECT_TRUE(restored);
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{4, 5, 6}));
  EXPECT_EQ(r.vc->instantiations(), 2u);
  bed.sim.run_until(600 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
  // Every rank ran exactly its configured number of iterations.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.application->rank(i).state().iter, 400u);
  }
}

TEST(DvcManagerTest, MigrationMovesVcWithoutLosingWork) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 400, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(7));
  bool migrated = false;
  bed.sim.schedule_after(10 * sim::kSecond, [&] {
    bed.dvc->migrate_vc(*r.vc, lsc, {5, 6, 7},
                        [&](bool ok) { migrated = ok; });
  });
  bed.sim.run_until(120 * sim::kSecond);
  EXPECT_TRUE(migrated);
  EXPECT_EQ(bed.dvc->migrations_performed(), 1u);
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{5, 6, 7}));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.vc->machine(i).placed_on(), 5 + i);
  }
  bed.sim.run_until(600 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
}

/// Snapshot payload that counts its own copy-constructions.
struct CopyCounted {
  int* copies;
  explicit CopyCounted(int* c) : copies(c) {}
  CopyCounted(const CopyCounted& o) : copies(o.copies) { ++*copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted&) = delete;
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
  ~CopyCounted() = default;
};

/// Guest software whose every snapshot is a CopyCounted.
class CopyCountingGuest final : public vm::GuestSoftware {
 public:
  explicit CopyCountingGuest(int* copies) : copies_(copies) {}
  [[nodiscard]] std::any snapshot_state() const override {
    return CopyCounted(copies_);
  }
  void restore_state(const std::any& state) override {
    if (std::any_cast<CopyCounted>(&state) != nullptr) ++restores;
  }
  int restores = 0;

 private:
  int* copies_;
};

TEST(DvcManagerTest, CheckpointAndMigrationNeverCopySnapshots) {
  // From snapshot_state() to the VC's generation and on to the restored
  // guest, each member's snapshot is moved or shared, never copied.
  TestBed bed(two_cluster_opts());
  VirtualCluster& vc = bed.dvc->create_vc(small_vc(3), {0, 1, 2}, {});
  bed.sim.run_until(20 * sim::kSecond);
  int copies = 0;
  std::vector<std::unique_ptr<CopyCountingGuest>> guests;
  for (std::uint32_t i = 0; i < 3; ++i) {
    guests.push_back(std::make_unique<CopyCountingGuest>(&copies));
    vc.machine(i).set_guest_software(guests.back().get());
  }
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(7));

  bool sealed = false;
  bed.dvc->checkpoint_vc(vc, lsc,
                         [&](ckpt::LscResult r) { sealed = r.ok; });
  bed.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(sealed);
  EXPECT_EQ(copies, 0);
  ASSERT_EQ(vc.generations().size(), 1u);
  ASSERT_EQ(vc.generations().back().app_snapshots->size(), 3u);

  bool migrated = false;
  bed.dvc->migrate_vc(vc, lsc, {5, 6, 7}, [&](bool ok) { migrated = ok; });
  bed.sim.run_until(120 * sim::kSecond);
  ASSERT_TRUE(migrated);
  EXPECT_EQ(vc.placements(), (std::vector<hw::NodeId>{5, 6, 7}));
  EXPECT_EQ(copies, 0);
  for (const auto& g : guests) EXPECT_EQ(g->restores, 1);
}

TEST(DvcManagerTest, AutoRecoverySurvivesNodeFailure) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(9));
  DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 20 * sim::kSecond;
  bed.dvc->enable_auto_recovery(*r.vc, policy);
  bed.sim.schedule_after(50 * sim::kSecond, [&] { bed.fabric.fail_node(2); });
  bed.sim.run_until(900 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
  EXPECT_GE(bed.dvc->recoveries_performed(), 1u);
  EXPECT_GE(r.vc->recoveries(), 1u);
  // The dead node is not in the final mapping.
  for (const hw::NodeId n : r.vc->placements()) EXPECT_NE(n, 2u);
  // Redone work: total compute exceeds the useful 0.1 s x 600 iterations.
  EXPECT_GT(r.application->stats().compute_done_s, 60.0);
}

TEST(DvcManagerTest, AutoRecoveryRelocatesAllWhenAsked) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(11));
  DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 20 * sim::kSecond;
  policy.relocate_all = true;
  bed.dvc->enable_auto_recovery(*r.vc, policy);
  bed.sim.schedule_after(50 * sim::kSecond, [&] { bed.fabric.fail_node(0); });
  bed.sim.run_until(900 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  // All three members moved off the original mapping.
  for (const hw::NodeId n : r.vc->placements()) {
    EXPECT_GT(n, 2u);
  }
}

TEST(DvcManagerTest, RecoveryTakesSparesInNodeIdOrder) {
  // Relocating {0,1,2} leaves spares {3} in cluster 0 and {4..7} in
  // cluster 1. Recovery takes them in flat node-id order, {3,4,5}; a
  // pack-first choice would have taken {4,5,6}.
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(11));
  DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 20 * sim::kSecond;
  policy.relocate_all = true;
  bed.dvc->enable_auto_recovery(*r.vc, policy);
  bed.sim.schedule_after(50 * sim::kSecond, [&] { bed.fabric.fail_node(0); });
  bed.sim.run_until(200 * sim::kSecond);
  ASSERT_EQ(bed.dvc->recoveries_performed(), 1u);
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{3, 4, 5}));
}

TEST(DvcManagerTest, RecoveryWaitsForSparesWhenNoneFree) {
  TestBed::Options opts = two_cluster_opts(2);  // only 4 nodes total
  TestBed bed(opts);
  RunningVc r(bed, 4, 600, {0, 1, 2, 3});  // VC owns every node
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(13));
  DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 20 * sim::kSecond;
  bed.dvc->enable_auto_recovery(*r.vc, policy);
  bed.sim.schedule_after(50 * sim::kSecond, [&] { bed.fabric.fail_node(3); });
  // No spare exists; recovery must hold until the node is repaired.
  bed.sim.schedule_after(200 * sim::kSecond,
                         [&] { bed.fabric.repair_node(3); });
  bed.sim.run_until(1200 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_GE(bed.dvc->recoveries_performed(), 1u);
}

TEST(DvcManagerTest, IncrementalCheckpointsAreSmallAndRestorable) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 900, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(23));

  // Full image first, then two incrementals 2 s apart (the guests dirty
  // 10 MB/s, so each incremental holds ~20 MiB + dirty-map overhead).
  std::vector<std::uint64_t> set_bytes;
  auto take = [&](bool incremental) {
    std::optional<ckpt::LscResult> res;
    bed.dvc->checkpoint_vc(*r.vc, lsc,
                           [&](ckpt::LscResult out) { res = out; },
                           incremental);
    while (!res.has_value()) {
      bed.sim.run_until(bed.sim.now() + sim::kSecond);
    }
    ASSERT_TRUE(res->ok);
    set_bytes.push_back(bed.images.find_set(res->set)->total_bytes());
    bed.sim.run_until(bed.sim.now() + 2 * sim::kSecond);
  };
  take(false);
  take(true);
  take(true);
  ASSERT_EQ(set_bytes.size(), 3u);
  // Fulls write 3 x 64 MiB; an incremental writes only the ~4-5 s of
  // dirtying between images (wait + LSC lead time) plus the dirty-map
  // overhead per guest.
  EXPECT_EQ(set_bytes[0], 3ull * (64ull << 20));
  EXPECT_LT(set_bytes[1], set_bytes[0] * 3 / 4);
  EXPECT_LT(set_bytes[2], set_bytes[0] * 3 / 4);
  EXPECT_GT(set_bytes[1], 3ull * (4ull << 20));  // at least the dirty maps
  EXPECT_EQ(r.vc->generations().back().chain.size(), 3u);

  // Restoring from the newest incremental stages the whole chain and the
  // application resumes correctly.
  bool restored = false;
  bed.dvc->restore_vc(*r.vc, {4, 5, 6}, [&](bool ok) { restored = ok; });
  bed.sim.run_until(bed.sim.now() + 60 * sim::kSecond);
  EXPECT_TRUE(restored);
  bed.sim.run_until(bed.sim.now() + 900 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
}

TEST(DvcManagerTest, IncrementalWithoutBaselineFallsBackToFull) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 400, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(29));
  std::optional<ckpt::LscResult> res;
  bed.dvc->checkpoint_vc(*r.vc, lsc,
                         [&](ckpt::LscResult out) { res = out; },
                         /*incremental=*/true);
  bed.sim.run_until(bed.sim.now() + 60 * sim::kSecond);
  ASSERT_TRUE(res.has_value() && res->ok);
  // No prior image existed, so the "incremental" round wrote full images.
  EXPECT_EQ(bed.images.find_set(res->set)->total_bytes(),
            3ull * (64ull << 20));
  EXPECT_EQ(r.vc->generations().back().chain.size(), 1u);
}

TEST(DvcManagerTest, LiveMigrationMovesRunningVcWithTinyDowntime) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  DvcManager::LiveMigrationConfig cfg;
  cfg.bandwidth_bps = 300e6;
  std::optional<DvcManager::LiveMigrationStats> stats;
  bed.sim.schedule_after(10 * sim::kSecond, [&] {
    bed.dvc->live_migrate_vc(*r.vc, {5, 6, 7}, cfg,
                             [&](DvcManager::LiveMigrationStats s) {
                               stats = s;
                             });
  });
  bed.sim.run_until(120 * sim::kSecond);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->ok);
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{5, 6, 7}));
  EXPECT_EQ(bed.dvc->live_migrations_performed(), 1u);
  // Pre-copy downtime is a fraction of a second; the checkpoint path
  // would have frozen the guests for the whole save+stage+restore.
  EXPECT_LT(stats->max_downtime, sim::kSecond);
  // Dirtied memory was re-sent: more bytes moved than guest RAM.
  EXPECT_GT(stats->bytes_moved, 3.0 * (64 << 20));
  // The old nodes are free again; the new ones are claimed.
  EXPECT_EQ(bed.fabric.node(0).vc(), 0u);
  EXPECT_EQ(bed.fabric.node(5).vc(), r.vc->id());
  bed.sim.run_until(600 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
}

TEST(DvcManagerTest, LiveMigrationFailsCleanlyIfTargetDies) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  bed.fabric.fail_node(5);
  DvcManager::LiveMigrationConfig cfg;
  std::optional<DvcManager::LiveMigrationStats> stats;
  bed.dvc->live_migrate_vc(*r.vc, {5, 6, 7}, cfg,
                           [&](DvcManager::LiveMigrationStats s) {
                             stats = s;
                           });
  bed.sim.run_until(120 * sim::kSecond);
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->ok);
  // Member 0 never left node 0; members 1 and 2 moved. The claims follow
  // the actual placement and the dead target is released.
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{0, 6, 7}));
  EXPECT_EQ(test::vc_held_nodes(bed.fabric),
            (std::vector<hw::NodeId>{0, 6, 7}));
  // No member was lost, so the VC keeps running (and checkpointing).
  EXPECT_EQ(r.vc->state(), VcState::kRunning);
}

TEST(DvcManagerTest, LiveMigrationTargetDyingInStopAndCopyResumesAtSource) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  DvcManager::LiveMigrationConfig cfg;
  cfg.max_precopy_rounds = 0;  // straight to the stop-and-copy pause
  std::optional<DvcManager::LiveMigrationStats> stats;
  bed.dvc->live_migrate_vc(*r.vc, {5, 6, 7}, cfg,
                           [&](DvcManager::LiveMigrationStats s) {
                             stats = s;
                           });
  // Member 0 is paused for its final copy; its target dies mid-copy.
  EXPECT_FALSE(r.vc->machine(0).running());
  bed.sim.schedule_after(100 * sim::kMillisecond,
                         [&] { bed.fabric.fail_node(5); });
  bed.sim.run_until(bed.sim.now() + 10 * sim::kSecond);
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->ok);
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{0, 6, 7}));
  EXPECT_TRUE(r.vc->machine(0).running());
  EXPECT_EQ(test::vc_held_nodes(bed.fabric),
            (std::vector<hw::NodeId>{0, 6, 7}));
  EXPECT_EQ(r.vc->state(), VcState::kRunning);
  bed.sim.run_until(bed.sim.now() + 600 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
}

TEST(DvcManagerTest, ProactiveMigrationEvacuatesBeforeTheFault) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(17));
  DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 60 * sim::kSecond;
  policy.proactive_migration = true;
  bed.dvc->enable_auto_recovery(*r.vc, policy);

  // Health monitoring announces node 1's death 60 s ahead.
  bed.sim.schedule_after(30 * sim::kSecond, [&] {
    bed.fabric.predict_failure(1, 60 * sim::kSecond);
  });
  bed.sim.run_until(600 * sim::kSecond);
  EXPECT_GE(bed.dvc->evacuations_performed(), 1u);
  // The VC left the suspect node before it died: no rollback needed.
  EXPECT_EQ(bed.dvc->recoveries_performed(), 0u);
  for (const hw::NodeId n : r.vc->placements()) EXPECT_NE(n, 1u);
  bed.sim.run_until(900 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
}

TEST(DvcManagerTest, EvacuationRestoresFromItsOwnImageAndRetainsIt) {
  // A cold migration's image is a full set, so the evacuation's restore
  // stages no earlier set, and it becomes the VC's recovery point: a
  // generation retained and released like any sealed round's.
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(17));
  DvcManager::RecoveryPolicy policy;
  policy.coordinator = &lsc;
  policy.interval = 60 * sim::kSecond;
  policy.keep_checkpoints = 2;
  policy.proactive_migration = true;
  bed.dvc->enable_auto_recovery(*r.vc, policy);
  // Checkpoint #0 seals within seconds; the next round is due at 80 s.
  bed.sim.run_until(40 * sim::kSecond);
  ASSERT_EQ(r.vc->generations().size(), 1u);

  // storage.images.stage_reads counts only stage_set's chain reads.
  const auto stage_reads = [&] {
    return bed.metrics.counter_value("storage.images.stage_reads");
  };
  const std::uint64_t staged_before = stage_reads();
  bed.fabric.predict_failure(1, 60 * sim::kSecond);
  while (bed.dvc->evacuations_performed() == 0 &&
         bed.sim.now() < 75 * sim::kSecond) {
    bed.sim.run_until(bed.sim.now() + sim::kSecond);
  }
  ASSERT_EQ(bed.dvc->evacuations_performed(), 1u);
  EXPECT_EQ(stage_reads(), staged_before);
  ASSERT_EQ(r.vc->generations().size(), 2u);
  EXPECT_EQ(r.vc->generations().back().chain.size(), 1u);
  const storage::CheckpointSetId evacuated = r.vc->generations().back().set();

  const std::uint64_t taken = bed.dvc->checkpoints_taken();
  while (bed.dvc->checkpoints_taken() == taken &&
         bed.sim.now() < 200 * sim::kSecond) {
    bed.sim.run_until(bed.sim.now() + sim::kSecond);
  }
  ASSERT_GT(bed.dvc->checkpoints_taken(), taken);
  // Ground truth: every sealed set the store files under the VC's label
  // is one a retained generation lists; nothing sealed is left unowned.
  for (const storage::CheckpointSet* s :
       bed.images.sets_with_label(r.vc->checkpoint_label())) {
    if (s->sealed && !s->aborted) {
      EXPECT_TRUE(r.vc->retains(s->id)) << "set#" << s->id;
    }
  }
  EXPECT_TRUE(r.vc->retains(evacuated));
  EXPECT_EQ(r.vc->generations().size(), 2u);
}

TEST(DvcManagerTest, LifecycleTakesExactlyTheExpectedEdges) {
  // create -> checkpoint -> node crash -> recover -> live migrate, with a
  // recording checker attached from the start.
  TestBed bed(two_cluster_opts());
  test::RecordingChecker rec(bed.sim);
  bed.dvc->set_check(&rec);
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(19));
  std::optional<ckpt::LscResult> sealed;
  bed.dvc->checkpoint_vc(*r.vc, lsc,
                         [&](ckpt::LscResult res) { sealed = res; });
  bed.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(sealed.has_value() && sealed->ok);

  bed.fabric.fail_node(2);
  bed.dvc->recover_now(*r.vc);
  bed.sim.run_until(120 * sim::kSecond);
  ASSERT_EQ(bed.dvc->recoveries_performed(), 1u);
  EXPECT_EQ(r.vc->placements(), (std::vector<hw::NodeId>{0, 1, 3}));

  std::optional<DvcManager::LiveMigrationStats> moved;
  bed.dvc->live_migrate_vc(
      *r.vc, {5, 6, 7}, {},
      [&](DvcManager::LiveMigrationStats st) { moved = st; });
  bed.sim.run_until(200 * sim::kSecond);
  ASSERT_TRUE(moved.has_value() && moved->ok);

  using S = VcState;
  EXPECT_EQ(rec.edges, (std::vector<test::RecordingChecker::Edge>{
                           {S::kProvisioning, S::kRunning},
                           {S::kRunning, S::kCheckpointing},
                           {S::kCheckpointing, S::kRunning},
                           {S::kRunning, S::kRecovering},
                           {S::kRecovering, S::kRunning},
                           {S::kRunning, S::kMigrating},
                           {S::kMigrating, S::kRunning}}));
  EXPECT_EQ(rec.boundaries,
            (std::vector<check::Boundary>{check::Boundary::kRoundSeal,
                                          check::Boundary::kRestore,
                                          check::Boundary::kRecovery}));
}

TEST(DvcManagerTest, FailedChainStagingEndsTheRestoreLikeAnyOther) {
  // A restore whose incremental chain cannot be staged ends like one whose
  // member restores fail: the VC falls back to provisioning, the kRestore
  // boundary fires and the restore time is recorded.
  TestBed bed(two_cluster_opts());
  test::RecordingChecker rec(bed.sim);
  bed.dvc->set_check(&rec);
  RunningVc r(bed, 3, 900, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(23));
  for (const bool incremental : {false, true}) {
    std::optional<ckpt::LscResult> res;
    bed.dvc->checkpoint_vc(*r.vc, lsc,
                           [&](ckpt::LscResult out) { res = out; },
                           incremental);
    while (!res.has_value()) {
      bed.sim.run_until(bed.sim.now() + sim::kSecond);
    }
    ASSERT_TRUE(res->ok);
  }
  ASSERT_EQ(r.vc->generations().back().chain.size(), 2u);

  // Rot every image of the chain's full base set; no replica masks it.
  const storage::CheckpointSet* base =
      bed.images.find_set(r.vc->generations().back().chain.front());
  ASSERT_NE(base, nullptr);
  for (const auto& m : base->members) {
    ASSERT_TRUE(bed.store.corrupt_object(m.object));
  }

  std::optional<bool> restored;
  bed.dvc->restore_vc(*r.vc, {4, 5, 6}, [&](bool ok) { restored = ok; });
  bed.sim.run_until(bed.sim.now() + 60 * sim::kSecond);
  ASSERT_TRUE(restored.has_value());
  EXPECT_FALSE(*restored);
  EXPECT_EQ(r.vc->state(), VcState::kProvisioning);
  ASSERT_FALSE(rec.edges.empty());
  EXPECT_EQ(rec.edges.back(), test::RecordingChecker::Edge(
                                  VcState::kRecovering,
                                  VcState::kProvisioning));
  EXPECT_EQ(rec.boundaries,
            (std::vector<check::Boundary>{check::Boundary::kRoundSeal,
                                          check::Boundary::kRoundSeal,
                                          check::Boundary::kRestore}));
  EXPECT_EQ(bed.metrics.counter_value("core.dvc.restore_failures"), 1u);
  const telemetry::Histogram* restore_s =
      bed.metrics.find_histogram("core.dvc.restore_s");
  ASSERT_NE(restore_s, nullptr);
  EXPECT_EQ(restore_s->count(), 1u);
}

TEST(DvcManagerTest, RoundSealedAroundAFailedAppIsQuarantined) {
  // The application fails while a round is in flight. The round still
  // seals, so it counts in core.dvc.checkpoints, but its set is
  // quarantined: it leaves the store, the previous recovery point stays
  // and the caller hears failure. checkpoints_taken() counts recovery
  // points only, so it does not count that round.
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 600, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(3));
  const auto checkpoint = [&](bool fail_app) {
    std::optional<ckpt::LscResult> res;
    bed.dvc->checkpoint_vc(*r.vc, lsc,
                           [&](ckpt::LscResult out) { res = out; });
    if (fail_app) r.application->mark_failed("injected mid-round");
    while (!res.has_value()) {
      bed.sim.run_until(bed.sim.now() + sim::kSecond);
    }
    return *res;
  };
  ASSERT_TRUE(checkpoint(/*fail_app=*/false).ok);
  const storage::CheckpointSetId kept = r.vc->generations().back().set();

  const ckpt::LscResult quarantined = checkpoint(/*fail_app=*/true);
  EXPECT_FALSE(quarantined.ok);
  EXPECT_EQ(bed.images.find_set(quarantined.set), nullptr);
  EXPECT_EQ(r.vc->generations().back().set(), kept);
  EXPECT_EQ(r.vc->state(), VcState::kRunning);
  EXPECT_EQ(bed.metrics.counter_value("core.dvc.checkpoints"), 2u);
  EXPECT_EQ(bed.metrics.counter_value("core.dvc.checkpoints_quarantined"),
            1u);
  EXPECT_EQ(bed.metrics.counter_value("core.dvc.checkpoint_failures"), 0u);
  EXPECT_EQ(bed.dvc->checkpoints_taken(), 1u);
  EXPECT_EQ(bed.dvc->operations_in_flight(), 0u);
}

TEST(DvcManagerTest, RecoverNowHandlesSoftwareFailure) {
  TestBed bed(two_cluster_opts());
  RunningVc r(bed, 3, 400, {0, 1, 2});
  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(15));
  bed.sim.schedule_after(5 * sim::kSecond,
                         [&] { bed.dvc->checkpoint_vc(*r.vc, lsc, {}); });
  // Simulate an application/software wedge at t=40 s: the operator (or a
  // monitor) rolls the whole VC back to the checkpoint.
  bed.sim.schedule_after(40 * sim::kSecond,
                         [&] { bed.dvc->recover_now(*r.vc); });
  bed.sim.run_until(600 * sim::kSecond);
  EXPECT_TRUE(r.application->completed());
  EXPECT_FALSE(r.application->failed());
}

// ---------------------------------------------------------------------------
// destroy_vc is safe in every state: whatever the VC is doing when it is
// torn down, no pending event touches its freed guests (the sanitizer
// build checks that), the node ledger ends empty, no sealed set is left
// under its label, and the invariant checker stays clean.

enum class DestroyAt {
  kMidBoot,
  kRoundArmed,
  kMidSave,
  kColdMigrationHold,
  kLiveMigrationPreCopy,
  kRestoreStaging,
  kRestoreRead,
  kHealthCheckDeferral,
  kRoundArmedWithWatchdog,
  kRetryBackoff,
};

const char* name_of(DestroyAt at) {
  switch (at) {
    case DestroyAt::kMidBoot: return "MidBoot";
    case DestroyAt::kRoundArmed: return "RoundArmed";
    case DestroyAt::kMidSave: return "MidSave";
    case DestroyAt::kColdMigrationHold: return "ColdMigrationHold";
    case DestroyAt::kLiveMigrationPreCopy: return "LiveMigrationPreCopy";
    case DestroyAt::kRestoreStaging: return "RestoreStaging";
    case DestroyAt::kRestoreRead: return "RestoreRead";
    case DestroyAt::kHealthCheckDeferral: return "HealthCheckDeferral";
    case DestroyAt::kRoundArmedWithWatchdog: return "RoundArmedWithWatchdog";
    case DestroyAt::kRetryBackoff: return "RetryBackoff";
  }
  return "Unknown";
}

void PrintTo(DestroyAt at, std::ostream* os) { *os << name_of(at); }

class DvcManagerDestroyTest : public ::testing::TestWithParam<DestroyAt> {};

TEST_P(DvcManagerDestroyTest, DestroyInEveryState) {
  TestBed bed(two_cluster_opts(/*nodes_per=*/6));
  check::Invariants inv(check::Invariants::Wiring{
      &bed.sim, bed.dvc.get(), &bed.images, &bed.fence, &bed.metrics});
  inv.attach();
  const DestroyAt state = GetParam();
  // With this seed the health check defers the first round's attempt
  // (a stalled agent) and the second attempt runs.
  ckpt::NtpLscCoordinator::Config lsc_cfg;
  lsc_cfg.health_check = state == DestroyAt::kHealthCheckDeferral;
  lsc_cfg.stall_prob = lsc_cfg.health_check ? 0.3 : 0.0;
  ckpt::NtpLscCoordinator lsc(bed.sim, lsc_cfg,
                              sim::Rng(lsc_cfg.health_check ? 7 : 31));
  lsc.set_metrics(&bed.metrics);
  lsc.set_check(&inv);
  // sweep26's retry policy: the destroy must end the round's watchdog and
  // its pending retry too.
  if (state == DestroyAt::kRoundArmedWithWatchdog ||
      state == DestroyAt::kRetryBackoff) {
    ckpt::LscCoordinator::RetryPolicy policy;
    policy.round_timeout = 30 * sim::kSecond;
    policy.max_round_retries = 2;
    policy.backoff = 2 * sim::kSecond;
    lsc.set_retry_policy(policy);
  }
  // 3 x 256 MiB: a save drains for ~2 s at 400 MB/s, a full set stages
  // (or a member image reads) for ~1 s at 800 MB/s.
  VirtualCluster* vc =
      &bed.dvc->create_vc(small_vc(3, 256ull << 20), {0, 1, 2}, {});
  std::unique_ptr<app::ParallelApp> application;
  const std::vector<hw::NodeId> targets{6, 7, 8};
  const auto hv = [&](hw::NodeId n) -> vm::Hypervisor& {
    return bed.fleet->on_node(n);
  };

  // Drive the VC into the state under test; `at` is when to destroy it.
  sim::Time at = 5 * sim::kSecond;  // mid-boot: booting takes 15 s
  if (state != DestroyAt::kMidBoot) {
    bed.sim.run_until(20 * sim::kSecond);
    application = std::make_unique<app::ParallelApp>(
        bed.sim, bed.fabric.network(), vc->contexts(),
        test::alltoall_job(3, 3000, 2048));
    bed.dvc->attach_app(*vc, *application);
    application->start();
  }
  const auto checkpoint = [&](bool incremental) {
    std::optional<ckpt::LscResult> res;
    bed.dvc->checkpoint_vc(*vc, lsc,
                           [&](ckpt::LscResult out) { res = out; },
                           incremental);
    while (!res.has_value()) {
      bed.sim.run_until(bed.sim.now() + sim::kSecond);
    }
    ASSERT_TRUE(res->ok);
  };
  switch (state) {
    case DestroyAt::kMidBoot:
      break;
    case DestroyAt::kRoundArmed:  // the guests freeze 2 s after the call
    case DestroyAt::kHealthCheckDeferral:  // the retry comes after 1.5 s
    case DestroyAt::kRoundArmedWithWatchdog:  // it would expire at 30 s
      bed.dvc->checkpoint_vc(*vc, lsc, {});
      at = bed.sim.now() + sim::kSecond;
      break;
    case DestroyAt::kRetryBackoff:
      // Member 2's node is dead (the VC has no recovery policy, so nothing
      // reacts): its save is refused, the round fails once the others are
      // durable, and the retry waits out its 2 s backoff.
      bed.fabric.fail_node(vc->placement(2));
      bed.dvc->checkpoint_vc(*vc, lsc, {});
      while (bed.metrics.counter_value("ckpt.lsc.round_retries") == 0 &&
             bed.sim.now() < 120 * sim::kSecond) {
        bed.sim.run_until(bed.sim.now() + 100 * sim::kMillisecond);
      }
      at = bed.sim.now() + sim::kSecond;
      break;
    case DestroyAt::kMidSave:
      bed.dvc->checkpoint_vc(*vc, lsc, {});
      at = bed.sim.now() + 3 * sim::kSecond;
      break;
    case DestroyAt::kColdMigrationHold:
      bed.dvc->migrate_vc(*vc, lsc, targets, {});
      at = bed.sim.now() + 3 * sim::kSecond;
      break;
    case DestroyAt::kLiveMigrationPreCopy: {
      DvcManager::LiveMigrationConfig cfg;
      cfg.bandwidth_bps = 100e6;  // ~8 s for the first pre-copy pass
      bed.dvc->live_migrate_vc(*vc, targets, cfg, {});
      at = bed.sim.now() + 2 * sim::kSecond;
      break;
    }
    case DestroyAt::kRestoreStaging:
    case DestroyAt::kRestoreRead:
      checkpoint(/*incremental=*/false);
      if (state == DestroyAt::kRestoreStaging) {
        bed.sim.run_until(bed.sim.now() + 5 * sim::kSecond);
        checkpoint(/*incremental=*/true);
        ASSERT_EQ(vc->generations().back().chain.size(), 2u);
      }
      bed.dvc->restore_vc(*vc, targets, {});
      at = bed.sim.now() + 300 * sim::kMillisecond;
      break;
  }

  const VcId id = vc->id();
  const std::string label = vc->checkpoint_label();
  bool destroyed = false;
  // The round-policy counters at the destroy: nothing may move them after.
  // A watchdog that still expired would count a timeout and a retry, and a
  // retry that still ran would ask the Retarget hook, which finds the VC
  // gone and counts an abandoned retry.
  const std::array<std::string, 3> policy_counters{
      "ckpt.lsc.round_timeouts", "ckpt.lsc.round_retries",
      "ckpt.lsc.retries_abandoned"};
  std::array<std::uint64_t, 3> at_destroy{};
  bed.sim.schedule_at(at, [&] {
    // The VC really is in the state under test.
    switch (state) {
      case DestroyAt::kMidBoot:
        EXPECT_EQ(vc->state(), VcState::kProvisioning);
        break;
      case DestroyAt::kRoundArmed:
        EXPECT_EQ(vc->state(), VcState::kCheckpointing);
        EXPECT_TRUE(vc->machine(0).running());
        break;
      case DestroyAt::kMidSave:
        EXPECT_EQ(vc->state(), VcState::kCheckpointing);
        EXPECT_FALSE(vc->machine(0).running());
        break;
      case DestroyAt::kColdMigrationHold:
        EXPECT_EQ(vc->state(), VcState::kMigrating);
        EXPECT_FALSE(vc->machine(0).running());
        break;
      case DestroyAt::kLiveMigrationPreCopy:
        EXPECT_EQ(vc->state(), VcState::kMigrating);
        EXPECT_TRUE(vc->machine(0).running());
        EXPECT_EQ(bed.fabric.node(targets[0]).vc(), id);
        break;
      case DestroyAt::kRestoreStaging:  // no member restore issued yet
        EXPECT_EQ(vc->state(), VcState::kRecovering);
        EXPECT_EQ(hv(targets[0]).resident_count(), 0u);
        break;
      case DestroyAt::kRestoreRead:
        EXPECT_EQ(vc->state(), VcState::kRecovering);
        EXPECT_EQ(hv(targets[0]).resident_count(), 1u);
        break;
      case DestroyAt::kHealthCheckDeferral:
      case DestroyAt::kRoundArmedWithWatchdog:
        EXPECT_EQ(vc->state(), VcState::kCheckpointing);
        EXPECT_TRUE(vc->machine(0).running());
        break;
      case DestroyAt::kRetryBackoff:  // the failed round thawed member 0
        EXPECT_EQ(vc->state(), VcState::kCheckpointing);
        EXPECT_TRUE(vc->machine(0).running());
        EXPECT_EQ(bed.metrics.counter_value("ckpt.lsc.round_retries"), 1u);
        break;
    }
    for (std::size_t c = 0; c < policy_counters.size(); ++c) {
      at_destroy[c] = bed.metrics.counter_value(policy_counters[c]);
    }
    // The one operation in flight is the state under test.
    EXPECT_EQ(bed.dvc->operations_in_flight(), 1u);
    bed.dvc->destroy_vc(*vc);
    // destroy_vc ended it: the VC leaves no operation record behind.
    EXPECT_EQ(bed.dvc->operations_in_flight(), 0u);
    application.reset();
    vc = nullptr;
    destroyed = true;
  });
  bed.sim.run_until(at + 200 * sim::kSecond);

  ASSERT_TRUE(destroyed);
  EXPECT_EQ(bed.metrics.counter_value("ckpt.lsc.health_check_retries"), 0u);
  for (std::size_t c = 0; c < policy_counters.size(); ++c) {
    EXPECT_EQ(bed.metrics.counter_value(policy_counters[c]), at_destroy[c])
        << policy_counters[c];
  }
  EXPECT_TRUE(bed.dvc->live_vcs().empty());
  EXPECT_EQ(bed.dvc->operations_in_flight(), 0u);
  EXPECT_TRUE(test::vc_held_nodes(bed.fabric).empty());
  EXPECT_EQ(test::sealed_sets(bed.images, label), 0u);
  for (const hw::NodeId n : {0u, 1u, 2u, 6u, 7u, 8u}) {
    EXPECT_EQ(hv(n).resident_count(), 0u) << "node " << n;
  }
  inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_TRUE(inv.ok()) << inv.report();
  inv.detach();
}

INSTANTIATE_TEST_SUITE_P(
    DvcManagerTest, DvcManagerDestroyTest,
    ::testing::Values(DestroyAt::kMidBoot, DestroyAt::kRoundArmed,
                      DestroyAt::kMidSave, DestroyAt::kColdMigrationHold,
                      DestroyAt::kLiveMigrationPreCopy,
                      DestroyAt::kRestoreStaging, DestroyAt::kRestoreRead,
                      DestroyAt::kHealthCheckDeferral,
                      DestroyAt::kRoundArmedWithWatchdog,
                      DestroyAt::kRetryBackoff),
    [](const ::testing::TestParamInfo<DestroyAt>& info) {
      return std::string(name_of(info.param));
    });

}  // namespace
}  // namespace dvc::core
