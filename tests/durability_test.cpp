#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "testbed.hpp"

namespace dvc {
namespace {

/// A VC + application + auto-recovery cell, optionally with checkpoint
/// replication, for exercising the durability layer end to end: damage is
/// planted in the image store and recovery must either mask it (replicas),
/// walk back a generation (fallback), or diagnose the loss (kFailed).
tools::CellSpec durability_cell(std::uint32_t nodes, std::uint32_t vc_size,
                                std::uint32_t iters,
                                core::DvcManager::RecoveryPolicy policy,
                                std::uint32_t store_replicas = 0) {
  test::TestBedOptions room = test::failure_room(/*clusters=*/1, nodes);
  room.store_replicas = store_replicas;
  tools::CellSpec spec = test::test_cell(room, "dur-vc", 128ull << 20,
                                         test::alltoall_job(vc_size, iters));
  spec.recovery = policy;
  return spec;
}

/// Flips the stored digest of every *primary* object a generation's
/// restore chain would read. Replica copies are left intact.
std::size_t corrupt_generation(core::MachineRoom& room,
                               const core::VcGeneration& gen) {
  std::size_t corrupted = 0;
  for (const storage::CheckpointSetId sid : gen.chain) {
    const storage::CheckpointSet* s = room.images.find_set(sid);
    if (s == nullptr) continue;
    for (const auto& m : s->members) {
      if (room.store.corrupt_object(m.object)) ++corrupted;
    }
  }
  return corrupted;
}

// ---------------------------------------------------------------------------
// Bit rot hits every image of the newest checkpoint generation. The restore
// detects it (digest verification), marks the set damaged, and falls back to
// the previous verified generation — the job re-runs a little more work but
// still completes every iteration.

TEST(DurabilityTest, CorruptNewestGenerationFallsBackAndCompletes) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 20 * sim::kSecond;
  policy.watchdog_interval = 7 * sim::kSecond;
  policy.keep_checkpoints = 2;
  tools::CellRig s(
      durability_cell(/*nodes=*/8, /*vc=*/6, /*iters=*/600, policy));
  s.start_recovery();

  bool armed = false;
  s.room.sim.schedule_after(72 * sim::kSecond, [&] {
    // Two periodic rounds (at ~40 s and ~60 s) have sealed by now.
    ASSERT_GE(s.vc->generations().size(), 2u);
    EXPECT_GT(corrupt_generation(s.room, s.vc->generations().back()), 0u);
    armed = true;
    s.vc->machine(3).kill();  // watchdog-visible failure forces a restore
  });

  s.room.sim.run_until(500 * sim::kSecond);
  ASSERT_TRUE(armed);
  EXPECT_GE(s.room.dvc->restore_fallbacks(), 1u);
  EXPECT_GE(s.room.metrics.counter_value("core.dvc.restore_fallbacks"), 1u);
  EXPECT_GT(s.room.metrics.counter_value("storage.store.verify_failures"),
            0u);
  EXPECT_GT(s.room.metrics.counter_value("storage.images.sets_damaged"), 0u);
  // The older generation carried the job home.
  EXPECT_TRUE(s.application->completed());
  EXPECT_FALSE(s.application->failed());
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(s.application->rank(i).state().iter, 600u);
  }
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// Same damage, but the checkpoint writes were torn mid-flight (the store
// died during the drain) instead of rotted at rest. The set still *sealed* —
// a torn write is silent at write time — so only restore-time verification
// can catch it.

TEST(DurabilityTest, TornNewestGenerationIsCaughtAtRestoreAndFallsBack) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 300 * sim::kSecond;  // manual rounds only
  policy.watchdog_interval = 7 * sim::kSecond;
  policy.keep_checkpoints = 2;
  tools::CellRig s(
      durability_cell(/*nodes=*/8, /*vc=*/6, /*iters=*/600, policy));
  s.start_recovery();

  // Generation 1: a clean manual round at 30 s.
  s.room.sim.schedule_at(30 * sim::kSecond, [&] {
    s.room.dvc->checkpoint_vc(*s.vc, *s.lsc, {});
  });
  // Generation 2 at 50 s, torn while its images drain: poll from 52 s until
  // the store actually has writes in flight (deterministic — the sim replays
  // identically every run).
  int torn = 0;
  // Weak self-reference: the pending event owns the loop, so it is freed
  // when the loop stops (a strong self-capture would leak a cycle).
  auto tear = std::make_shared<std::function<void()>>();
  *tear = [&s, &torn, self = std::weak_ptr<std::function<void()>>(tear)] {
    torn += static_cast<int>(s.room.store.tear_inflight_writes());
    if (torn == 0 && s.room.sim.now() < 65 * sim::kSecond) {
      s.room.sim.schedule_after(sim::kSecond / 5,
                                [tear = self.lock()] { (*tear)(); });
    }
  };
  s.room.sim.schedule_at(50 * sim::kSecond, [&] {
    s.room.dvc->checkpoint_vc(*s.vc, *s.lsc, {});
  });
  s.room.sim.schedule_at(52 * sim::kSecond, [tear] { (*tear)(); });

  bool armed = false;
  s.room.sim.schedule_at(72 * sim::kSecond, [&] {
    ASSERT_EQ(s.vc->generations().size(), 2u);
    armed = true;
    s.vc->machine(1).kill();
  });

  s.room.sim.run_until(500 * sim::kSecond);
  ASSERT_TRUE(armed);
  EXPECT_GT(torn, 0);  // the tear really hit in-flight checkpoint writes
  EXPECT_GT(s.room.metrics.counter_value("storage.store.torn_writes"), 0u);
  EXPECT_GE(s.room.dvc->restore_fallbacks(), 1u);
  EXPECT_TRUE(s.application->completed());
  EXPECT_FALSE(s.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// With k >= 2 replication, losing one store's copy of the newest generation
// is masked entirely: restore fails over to the replica, no generation is
// sacrificed, and the job loses nothing beyond the normal rollback.

TEST(DurabilityTest, ReplicationMasksPrimaryCorruptionWithZeroFallbacks) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 20 * sim::kSecond;
  policy.watchdog_interval = 7 * sim::kSecond;
  policy.keep_checkpoints = 2;
  tools::CellRig s(durability_cell(/*nodes=*/8, /*vc=*/6, /*iters=*/600,
                                   policy, /*store_replicas=*/1));
  s.start_recovery();

  bool armed = false;
  s.room.sim.schedule_after(72 * sim::kSecond, [&] {
    ASSERT_GE(s.vc->generations().size(), 2u);
    EXPECT_GT(corrupt_generation(s.room, s.vc->generations().back()), 0u);
    armed = true;
    s.vc->machine(3).kill();
  });

  s.room.sim.run_until(500 * sim::kSecond);
  ASSERT_TRUE(armed);
  EXPECT_GT(s.room.metrics.counter_value("storage.replica.failovers"), 0u);
  EXPECT_EQ(s.room.dvc->restore_fallbacks(), 0u);  // damage fully masked
  EXPECT_EQ(s.room.metrics.counter_value("storage.images.sets_damaged"), 0u);
  EXPECT_TRUE(s.application->completed());
  EXPECT_FALSE(s.application->failed());
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(s.application->rank(i).state().iter, 600u);
  }
  EXPECT_TRUE(test::clean_end_of_run(s));
}

// ---------------------------------------------------------------------------
// Every retained generation is damaged: recovery walks the whole history,
// finds nothing restorable, and abandons with a diagnosis — VC in kFailed,
// application marked failed — instead of wedging in an endless retry loop.

TEST(DurabilityTest, AbandonsWithDiagnosisWhenEveryGenerationIsDamaged) {
  core::DvcManager::RecoveryPolicy policy;
  policy.interval = 20 * sim::kSecond;
  policy.watchdog_interval = 7 * sim::kSecond;
  policy.keep_checkpoints = 2;
  // Far more iterations than the run window: the job cannot complete, so
  // the only acceptable outcome is an explicit failure diagnosis.
  tools::CellRig s(
      durability_cell(/*nodes=*/8, /*vc=*/4, /*iters=*/50000, policy));
  s.start_recovery();

  bool armed = false;
  s.room.sim.schedule_after(72 * sim::kSecond, [&] {
    ASSERT_GE(s.vc->generations().size(), 2u);
    for (const auto& gen : s.vc->generations()) {
      EXPECT_GT(corrupt_generation(s.room, gen), 0u);
    }
    armed = true;
    s.vc->machine(1).kill();
  });

  s.room.sim.run_until(400 * sim::kSecond);
  ASSERT_TRUE(armed);
  EXPECT_GE(s.room.dvc->recoveries_abandoned(), 1u);
  EXPECT_GE(s.room.metrics.counter_value("core.dvc.recoveries_abandoned"),
            1u);
  EXPECT_EQ(s.vc->state(), core::VcState::kFailed);
  EXPECT_TRUE(s.application->failed());
  EXPECT_FALSE(s.application->completed());
  EXPECT_TRUE(test::clean_end_of_run(s));
}

}  // namespace
}  // namespace dvc
