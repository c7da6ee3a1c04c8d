#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/ledger.hpp"
#include "ckpt/lsc.hpp"
#include "testbed.hpp"

// The invariant checker's own suite: every invariant family must
// demonstrably fire on a deliberately broken run, and a fault-free run
// through the full checkpoint/restore lifecycle must stay clean. The
// deliberate breakages bypass the public API on purpose — the checker
// exists to catch exactly the states the API is supposed to make
// unreachable.

namespace dvc {
namespace {

using test::TestBed;
using test::TestBedOptions;

/// Builds a room + VC with the checker attached, runs clock sync, and
/// returns everything a test needs to drive checkpoints.
struct Rig {
  TestBed bed;
  ckpt::NtpLscCoordinator lsc;
  check::Invariants inv;
  core::VirtualCluster* vc;

  explicit Rig(std::uint64_t seed = 7, std::uint32_t vc_size = 4)
      : bed(make_options(seed)),
        lsc(bed.sim, {}, sim::Rng(seed ^ 0xD5C)),
        inv(check::Invariants::Wiring{&bed.sim, bed.dvc.get(), &bed.images,
                                      &bed.fence, &bed.metrics}),
        vc(nullptr) {
    lsc.set_metrics(&bed.metrics);
    inv.attach();
    lsc.set_check(&inv);
    core::VcSpec spec;
    spec.name = "check-vc";
    spec.size = vc_size;
    spec.guest.ram_bytes = 64ull << 20;
    vc = &bed.dvc->create_vc(spec, *bed.dvc->pick_nodes(vc_size), {});
    bed.sim.run_until(20 * sim::kSecond);
  }

  ~Rig() { inv.detach(); }

  static TestBedOptions make_options(std::uint64_t seed) {
    TestBedOptions o;
    o.clusters = 1;
    o.nodes_per_cluster = 8;
    o.seed = seed;
    return o;
  }

  /// One coordinated checkpoint, driven to completion.
  void checkpoint() {
    std::optional<ckpt::LscResult> result;
    bed.dvc->checkpoint_vc(*vc, lsc, [&](ckpt::LscResult r) { result = r; });
    while (!result.has_value()) {
      bed.sim.run_until(bed.sim.now() + sim::kSecond);
    }
    ASSERT_TRUE(result->ok);
  }

  [[nodiscard]] bool saw(const std::string& invariant) const {
    for (const check::Violation& v : inv.violations()) {
      if (v.invariant == invariant) return true;
    }
    return false;
  }
};

// ---- each invariant fires on a deliberate breakage --------------------------

TEST(InvariantCheckerTest, RetiringAReferencedGenerationFires) {
  Rig rig;
  rig.checkpoint();
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // Hand-retire the recovery point out from under the live VC, bypassing
  // the manager's generation list entirely.
  const storage::CheckpointSetId set = rig.vc->generations().back().set();
  ASSERT_GT(rig.bed.images.discard_set(set), 0u);

  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_FALSE(rig.inv.ok());
  EXPECT_TRUE(rig.saw("retention-liveness")) << rig.inv.report();
  EXPECT_TRUE(rig.saw("image-completeness")) << rig.inv.report();
}

TEST(InvariantCheckerTest, ForgedDeposedEpochWriteFires) {
  Rig rig;
  const std::uint64_t deposed = rig.bed.fence.current();
  rig.bed.fence.advance();
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // Forge what a buggy fence would do: report a mutation stamped with the
  // deposed epoch as admitted.
  rig.inv.on_admitted_mutation("open_set", deposed);
  EXPECT_TRUE(rig.saw("epoch-fence")) << rig.inv.report();
}

TEST(InvariantCheckerTest, NonMonotonicEpochAdvanceFires) {
  Rig rig;
  const std::uint64_t epoch = rig.bed.fence.advance();
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // A fence that re-issues the same epoch has lost monotonicity.
  rig.inv.on_epoch_advance(epoch);
  EXPECT_TRUE(rig.saw("epoch-fence")) << rig.inv.report();
}

TEST(InvariantCheckerTest, ResurrectedRecoveryPointFires) {
  Rig rig;
  rig.checkpoint();
  rig.checkpoint();
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // Replay the seal boundary without a newer checkpoint: the watermark
  // says this recovery point was already sealed, so the control plane
  // just resurrected a stale one.
  rig.inv.on_vc_boundary(check::Boundary::kRoundSeal, rig.vc->id());
  EXPECT_TRUE(rig.saw("generation-monotonicity")) << rig.inv.report();
}

TEST(InvariantCheckerTest, PhantomRoundCompletionFires) {
  Rig rig;
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // An LSC round claiming success with a set id the store never saw.
  rig.inv.on_round_complete(/*ok=*/true, /*set=*/987654321);
  EXPECT_TRUE(rig.saw("image-completeness")) << rig.inv.report();
}

TEST(InvariantCheckerTest, LeakedForegroundEventFires) {
  Rig rig;
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // Leak: foreground work scheduled past the end of the run that nothing
  // will ever consume.
  rig.bed.sim.schedule_after(1000 * sim::kSecond, [] {});
  rig.inv.end_of_run(/*expect_quiesced=*/true);
  EXPECT_TRUE(rig.saw("queue-hygiene")) << rig.inv.report();
}

TEST(InvariantCheckerTest, OpenControlPlaneOperationFires) {
  Rig rig;
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();

  // A second VC whose boot never ends: one of its nodes dies mid-boot,
  // so that guest never reports and the boot's record stays open with
  // nothing left on the queue to end it.
  core::VcSpec spec;
  spec.name = "stuck";
  spec.size = 2;
  spec.guest.ram_bytes = 64ull << 20;
  const std::vector<hw::NodeId> nodes = *rig.bed.dvc->pick_nodes(2);
  rig.bed.dvc->create_vc(spec, nodes, {});
  rig.bed.fabric.fail_node(nodes[1]);
  rig.bed.sim.run();
  ASSERT_EQ(rig.bed.sim.pending_foreground(), 0u);
  ASSERT_EQ(rig.bed.dvc->operations_in_flight(), 1u);
  rig.inv.end_of_run(/*expect_quiesced=*/true);
  ASSERT_FALSE(rig.inv.violations().empty());
  EXPECT_EQ(rig.inv.violations().back().invariant, "queue-hygiene");
  EXPECT_EQ(rig.inv.violations().back().detail,
            "1 control-plane operation(s) still open past job completion");
}

TEST(InvariantCheckerTest, InconsistentLedgerFires) {
  Rig rig;
  ckpt::MessageLedger ledger;
  ledger.record_send(0, 1, /*msg_id=*/1);
  // At a cut with no in-flight traffic allowed, a sent-but-undelivered
  // message is an inconsistent ledger.
  EXPECT_FALSE(rig.inv.verify_ledger(ledger, /*allow_in_flight=*/false));
  EXPECT_TRUE(rig.saw("ledger-consistency")) << rig.inv.report();

  // The same ledger is a legal in-flight cut.
  check::Invariants clean(check::Invariants::Wiring{});
  EXPECT_TRUE(clean.verify_ledger(ledger, /*allow_in_flight=*/true));
  EXPECT_TRUE(clean.ok());
}

TEST(InvariantCheckerTest, ViolationsAreCountedInTelemetry) {
  Rig rig;
  rig.inv.on_round_complete(true, 424242);
  rig.inv.on_round_complete(true, 424243);
  EXPECT_EQ(rig.bed.metrics.counter_value("check.violations"), 2u);
  EXPECT_EQ(
      rig.bed.metrics.counter_value("check.violation.image-completeness"),
      2u);
}

// ---- exact violation text ---------------------------------------------------
//
// The checker builds each message only when a violation fires; these pin
// the bytes it builds. The breakages reach through the const accessors on
// purpose: the public API cannot produce these states.

/// Every `detail` recorded for one invariant, in order.
std::vector<std::string> details(const check::Invariants& inv,
                                 const std::string& invariant) {
  std::vector<std::string> out;
  for (const check::Violation& v : inv.violations()) {
    if (v.invariant == invariant) out.push_back(v.detail);
  }
  return out;
}

std::vector<hw::NodeId>& placements_of(core::VirtualCluster& vc) {
  return const_cast<std::vector<hw::NodeId>&>(vc.placements());
}

std::vector<core::VcGeneration>& generations_of(core::VirtualCluster& vc) {
  return const_cast<std::vector<core::VcGeneration>&>(vc.generations());
}

storage::CheckpointSet& set_of(storage::ImageManager& images,
                               storage::CheckpointSetId id) {
  return const_cast<storage::CheckpointSet&>(*images.find_set(id));
}

TEST(InvariantMessageTest, MemberWithoutHostNode) {
  Rig rig;
  ASSERT_EQ(rig.vc->id(), 1u);
  placements_of(*rig.vc)[2] = hw::kInvalidNode;
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_EQ(details(rig.inv, "member-conservation"),
            std::vector<std::string>{"vc#1 member 2 has no host node"});
}

TEST(InvariantMessageTest, MembersSharingANode) {
  Rig rig;
  auto& placement = placements_of(*rig.vc);
  placement[3] = placement[1];
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_EQ(details(rig.inv, "member-conservation"),
            std::vector<std::string>{
                "vc#1 member 3 shares node " + std::to_string(placement[1]) +
                " with another member"});
}

TEST(InvariantMessageTest, ClaimTableMismatch) {
  Rig rig;
  const std::vector<hw::NodeId> placement = rig.vc->placements();
  rig.bed.fabric.hold(hw::Holder::kVc, {placement[0]}, 9);
  rig.bed.fabric.release(hw::Holder::kVc, {placement[1]}, 1);
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  const std::string n0 = std::to_string(placement[0]);
  const std::string n1 = std::to_string(placement[1]);
  EXPECT_EQ(details(rig.inv, "member-conservation"),
            (std::vector<std::string>{
                "vc#1 member 0 runs on node " + n0 +
                    " which the claim table gives to vc#9",
                "vc#1 member 1 runs on node " + n1 +
                    " which the claim table gives to nobody",
                "node " + n0 + " claimed by dead vc#9"}));
}

TEST(InvariantMessageTest, PlacementAgreement) {
  Rig rig;
  const std::vector<hw::NodeId> placement = rig.vc->placements();
  // Members 0 and 1 sit on job 1's nodes, member 2 on job 2's, member 3 on
  // a node no job holds.
  rig.bed.fabric.hold(hw::Holder::kJob, {placement[0], placement[1]}, 1);
  rig.bed.fabric.hold(hw::Holder::kJob, {placement[2]}, 2);
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_EQ(details(rig.inv, "placement-agreement"),
            std::vector<std::string>{
                "vc#1 member 2 runs on node " + std::to_string(placement[2]) +
                " of job 2, member 0 on node " + std::to_string(placement[0]) +
                " of job 1"});
  EXPECT_FALSE(rig.saw("member-conservation")) << rig.inv.report();
}

TEST(InvariantMessageTest, GenerationMonotonicity) {
  Rig rig;
  rig.checkpoint();
  rig.checkpoint();
  rig.checkpoint();
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();
  auto& gens = generations_of(*rig.vc);
  ASSERT_EQ(gens.size(), 3u);
  const storage::CheckpointSetId s0 = gens[0].set();
  const storage::CheckpointSetId s1 = gens[1].set();
  gens[0].chain.clear();
  gens[2].chain.back() = s1;
  gens[2].taken_at = gens[1].taken_at - 1;
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_EQ(details(rig.inv, "generation-monotonicity"),
            (std::vector<std::string>{
                "vc#1 generation[0] has an empty chain",
                "vc#1 generation[2] set#" + std::to_string(s1) +
                    " does not advance past set#" + std::to_string(s1),
                "vc#1 generation[2] taken_at moves backwards"}));
  EXPECT_NE(s0, s1);
}

TEST(InvariantMessageTest, ImageCompleteness) {
  Rig rig;
  rig.checkpoint();
  rig.checkpoint();
  rig.checkpoint();
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();
  const auto& gens = rig.vc->generations();
  ASSERT_EQ(gens.size(), 3u);
  const storage::CheckpointSetId s0 = gens[0].set();
  const storage::CheckpointSetId s1 = gens[1].set();
  const storage::CheckpointSetId s2 = gens[2].set();
  set_of(rig.bed.images, s1).members.pop_back();
  set_of(rig.bed.images, s2).aborted = true;
  ASSERT_GT(rig.bed.images.discard_set(s0), 0u);
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_EQ(details(rig.inv, "image-completeness"),
            (std::vector<std::string>{
                "vc#1 chain set#" + std::to_string(s0) +
                    " missing from the store",
                "vc#1 chain set#" + std::to_string(s1) +
                    " sealed with 3/4 members",
                "vc#1 chain set#" + std::to_string(s2) +
                    " aborted inside a retained chain"}));

  set_of(rig.bed.images, s2).aborted = false;
  set_of(rig.bed.images, s2).sealed = false;
  rig.inv.on_round_complete(/*ok=*/true, s2);
  rig.inv.on_round_complete(/*ok=*/true, 987654321);
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  const std::vector<std::string> all = details(rig.inv, "image-completeness");
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all[3], "LSC round reported ok with set#" + std::to_string(s2) +
                        " unsealed");
  EXPECT_EQ(all[4], "LSC round reported ok with set#987654321 missing from "
                    "the store");
  EXPECT_EQ(all[7], "vc#1 chain set#" + std::to_string(s2) +
                        " unsealed inside a retained chain");
}

TEST(InvariantMessageTest, VcStateLegal) {
  Rig rig;
  ASSERT_TRUE(rig.inv.ok()) << rig.inv.report();  // the boot edge is legal
  const auto raw = [](core::VcState s) {
    return static_cast<std::uint8_t>(s);
  };
  using S = core::VcState;
  rig.inv.on_vc_transition(1, raw(S::kRunning), raw(S::kCheckpointing));
  rig.inv.on_vc_transition(1, raw(S::kRecovering), raw(S::kRecovering));
  EXPECT_TRUE(rig.inv.ok()) << rig.inv.report();

  rig.inv.on_vc_transition(1, raw(S::kFailed), raw(S::kRunning));
  rig.inv.on_vc_transition(1, raw(S::kRunning), raw(S::kProvisioning));
  EXPECT_EQ(details(rig.inv, "vc-state-legal"),
            (std::vector<std::string>{
                "vc#1 moved failed -> running, not a lifecycle edge",
                "vc#1 moved running -> provisioning, not a lifecycle edge"}));
  EXPECT_EQ(rig.inv.violations().back().boundary,
            check::Boundary::kTransition);
}

// ---- fault-free runs stay clean ---------------------------------------------

TEST(InvariantCheckerTest, FaultFreeCheckpointLifecycleIsClean) {
  Rig rig;
  rig.checkpoint();
  rig.checkpoint();
  rig.checkpoint();

  // Restore from the newest generation, then retire the VC entirely.
  bool restored = false;
  rig.bed.dvc->restore_vc(*rig.vc, rig.vc->placements(),
                          [&](bool ok) { restored = ok; });
  rig.bed.sim.run_until(rig.bed.sim.now() + 120 * sim::kSecond);
  EXPECT_TRUE(restored);

  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_TRUE(rig.inv.ok()) << rig.inv.report();
}

TEST(InvariantCheckerTest, FaultFreeFullJobRunIsClean) {
  Rig rig(/*seed=*/11, /*vc_size=*/4);

  app::WorkloadSpec job;
  job.name = "check-job";
  job.ranks = 4;
  job.iterations = 40;
  job.flops_per_rank_iter = 1e9;
  job.pattern = app::Pattern::kAllToAll;
  job.bytes_per_msg = 4096;
  auto application = std::make_unique<app::ParallelApp>(
      rig.bed.sim, rig.bed.fabric.network(), rig.vc->contexts(), job);
  rig.bed.dvc->attach_app(*rig.vc, *application);
  application->start();

  core::DvcManager::RecoveryPolicy policy;
  policy.coordinator = &rig.lsc;
  policy.interval = 10 * sim::kSecond;
  policy.watchdog_interval = 11 * sim::kSecond;
  rig.bed.dvc->enable_auto_recovery(*rig.vc, policy);

  while (!application->completed() &&
         rig.bed.sim.now() < 600 * sim::kSecond) {
    rig.bed.sim.run_until(rig.bed.sim.now() + 10 * sim::kSecond);
  }
  ASSERT_TRUE(application->completed());

  // Quiesce: stop the periodic machinery and drain the foreground queue,
  // then demand a clean final sweep including queue hygiene.
  rig.bed.dvc->disable_auto_recovery(*rig.vc);
  rig.bed.sim.run(2'000'000);
  rig.inv.end_of_run(/*expect_quiesced=*/true);
  EXPECT_TRUE(rig.inv.ok()) << rig.inv.report();
}

TEST(InvariantCheckerTest, WorkOnAFailedVcIsRefused) {
  // A reboot over a VC that lost a member before its first checkpoint can
  // only diagnose it: kFailed, which nothing may leave. Every call that
  // would move it again reports failure at once and changes nothing: no
  // edge, no journalled intent, no instrument.
  Rig rig;
  rig.bed.dvc->designate_head_node(7);
  rig.bed.fabric.fail_node(rig.vc->placement(0));
  rig.bed.dvc->crash_coordinator(sim::kSecond);
  rig.bed.sim.run_until(rig.bed.sim.now() + 30 * sim::kSecond);
  ASSERT_EQ(rig.vc->state(), core::VcState::kFailed);
  const auto metrics = [&] {
    std::ostringstream out;
    rig.bed.metrics.write_metrics_json(out);
    return out.str() + "spans " +
           std::to_string(rig.bed.metrics.spans().size());
  };
  const std::string metrics_before = metrics();
  const std::uint64_t journalled = rig.bed.dvc->intent_log()->appended();
  const std::vector<hw::NodeId> targets{4, 5, 6, 7};

  std::vector<std::string> refused;
  rig.bed.dvc->checkpoint_vc(*rig.vc, rig.lsc, [&](ckpt::LscResult r) {
    if (!r.ok) refused.emplace_back("checkpoint");
  });
  rig.bed.dvc->restore_vc(*rig.vc, targets, [&](bool ok) {
    if (!ok) refused.emplace_back("restore");
  });
  rig.bed.dvc->migrate_vc(*rig.vc, rig.lsc, targets, [&](bool ok) {
    if (!ok) refused.emplace_back("migrate");
  });
  rig.bed.dvc->live_migrate_vc(
      *rig.vc, targets, {}, [&](core::DvcManager::LiveMigrationStats st) {
        if (!st.ok) refused.emplace_back("live-migrate");
      });
  EXPECT_EQ(refused, (std::vector<std::string>{"checkpoint", "restore",
                                               "migrate", "live-migrate"}));
  rig.bed.sim.run_until(rig.bed.sim.now() + 60 * sim::kSecond);
  EXPECT_EQ(refused.size(), 4u);
  EXPECT_EQ(rig.vc->state(), core::VcState::kFailed);
  EXPECT_EQ(rig.bed.dvc->intent_log()->appended(), journalled);
  EXPECT_EQ(metrics(), metrics_before);
  for (const hw::NodeId n : targets) EXPECT_EQ(rig.bed.fabric.node(n).vc(), 0u);
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_TRUE(rig.inv.ok()) << rig.inv.report();
}

TEST(InvariantCheckerTest, DestroyedVcLeavesNoSetInTheStore) {
  Rig rig;
  rig.checkpoint();
  rig.checkpoint();
  const std::string label = rig.vc->checkpoint_label();
  EXPECT_EQ(rig.bed.images.sets_with_label(label).size(), 2u);

  rig.bed.dvc->destroy_vc(*rig.vc);
  rig.vc = nullptr;
  // With the VC gone its retained generations must be released: no set
  // filed under its label may outlive it, or nothing would ever reclaim
  // it.
  rig.inv.end_of_run(/*expect_quiesced=*/false);
  EXPECT_TRUE(rig.inv.ok()) << rig.inv.report();
  EXPECT_TRUE(rig.bed.images.sets_with_label(label).empty());
}

}  // namespace
}  // namespace dvc
