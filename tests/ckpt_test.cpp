#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "ckpt/cocheck.hpp"
#include "ckpt/interval.hpp"
#include "ckpt/ledger.hpp"
#include "ckpt/lsc.hpp"
#include "ckpt/methods.hpp"
#include "testbed.hpp"

namespace dvc::ckpt {
namespace {

// ---------------------------------------------------------------------------
// Method models (paper §2 taxonomy)

TEST(MethodsTest, FootprintOrderingMatchesTaxonomy) {
  const app::WorkloadSpec hpl = app::make_hpl(8192, 1);
  vm::GuestConfig guest;
  guest.ram_bytes = 2ull << 30;
  const auto app_fp = footprint(MethodKind::kApplication, hpl, guest);
  const auto usr_fp = footprint(MethodKind::kUserLevel, hpl, guest);
  const auto krn_fp = footprint(MethodKind::kKernelLevel, hpl, guest);
  const auto vm_fp = footprint(MethodKind::kVmLevel, hpl, guest);
  EXPECT_LT(app_fp.bytes, usr_fp.bytes);
  EXPECT_LT(usr_fp.bytes, krn_fp.bytes);
  EXPECT_LT(krn_fp.bytes, vm_fp.bytes);
  EXPECT_EQ(vm_fp.bytes, guest.ram_bytes);
}

TEST(MethodsTest, ApplicabilityRules) {
  vm::GuestConfig guest;
  const app::WorkloadSpec hpl = app::make_hpl(4096, 8);      // has app ckpt
  const app::WorkloadSpec ptrans = app::make_ptrans(4096, 8);  // does not
  const app::WorkloadSpec seq = app::make_sequential(1e12);

  EXPECT_TRUE(footprint(MethodKind::kApplication, hpl, guest).applicable);
  EXPECT_FALSE(
      footprint(MethodKind::kApplication, ptrans, guest).applicable);
  // User/kernel level cannot cut parallel network state (§2.1).
  EXPECT_FALSE(footprint(MethodKind::kUserLevel, hpl, guest).applicable);
  EXPECT_TRUE(footprint(MethodKind::kUserLevel, seq, guest).applicable);
  EXPECT_FALSE(footprint(MethodKind::kKernelLevel, ptrans, guest).applicable);
  // VM level is always applicable — DVC's whole point.
  EXPECT_TRUE(footprint(MethodKind::kVmLevel, hpl, guest).applicable);
  EXPECT_TRUE(footprint(MethodKind::kVmLevel, ptrans, guest).applicable);
}

TEST(MethodsTest, ProfilesMatchPaperDiscussion) {
  EXPECT_TRUE(profile(MethodKind::kApplication).requires_app_code);
  EXPECT_FALSE(profile(MethodKind::kApplication).transparent_to_app);
  EXPECT_TRUE(profile(MethodKind::kUserLevel).requires_relink);
  EXPECT_TRUE(profile(MethodKind::kKernelLevel).transparent_to_app);
  const MethodProfile dvc_vm = profile(MethodKind::kVmLevel);
  EXPECT_TRUE(dvc_vm.transparent_to_app);
  EXPECT_FALSE(dvc_vm.requires_relink);
  EXPECT_TRUE(dvc_vm.handles_parallel);
  EXPECT_TRUE(dvc_vm.saves_kernel_state);
}

TEST(MethodsTest, EstimateTimeScalesWithBytes) {
  Footprint f{1'000'000'000, true};
  EXPECT_NEAR(sim::to_seconds(estimate_time(f, 1e8)), 10.0, 1e-6);
  Footprint na{1'000'000'000, false};
  EXPECT_EQ(estimate_time(na, 1e8), 0);
}

// ---------------------------------------------------------------------------
// Checkpoint-interval theory

TEST(IntervalTest, YoungMatchesClosedForm) {
  // sqrt(2 * 8 * 900) = 120 s.
  EXPECT_NEAR(sim::to_seconds(young_interval(sim::from_seconds(8.0),
                                             sim::from_seconds(900.0))),
              120.0, 0.01);
  EXPECT_EQ(young_interval(0, sim::kSecond), 0);
  EXPECT_EQ(young_interval(sim::kSecond, 0), 0);
}

TEST(IntervalTest, DalyRefinesYoungDownward) {
  const auto c = sim::from_seconds(8.0);
  const auto m = sim::from_seconds(900.0);
  // Daly subtracts ~C from Young's estimate at small C/M.
  EXPECT_LT(daly_interval(c, m), young_interval(c, m));
  EXPECT_GT(daly_interval(c, m), young_interval(c, m) - 2 * c);
  // Degenerate regime: checkpointing costs more than the MTBF.
  EXPECT_EQ(daly_interval(sim::from_seconds(100.0), sim::from_seconds(40.0)),
            sim::from_seconds(40.0));
}

TEST(IntervalTest, ExpectedRuntimeIsConvexInInterval) {
  // U-shape: too-frequent and too-rare checkpointing both cost more than
  // the optimum region.
  const double work = 2000.0, c = 8.0, r = 10.0, mtbf = 750.0;
  const double at_opt = expected_runtime_s(work, c, r, mtbf, 110.0);
  EXPECT_LT(at_opt, expected_runtime_s(work, c, r, mtbf, 10.0));
  EXPECT_LT(at_opt, expected_runtime_s(work, c, r, mtbf, 2000.0));
  // No failures, no checkpoints: the work is the runtime.
  EXPECT_DOUBLE_EQ(expected_runtime_s(work, c, r, 0.0, 100.0), work);
}

// ---------------------------------------------------------------------------
// Message ledger

TEST(LedgerTest, ConsistentStream) {
  MessageLedger l;
  for (int i = 1; i <= 5; ++i) {
    l.record_send(0, 1, i);
    l.record_delivery(0, 1, i);
  }
  EXPECT_TRUE(l.check().consistent);
  EXPECT_EQ(l.total_sent(), 5u);
  EXPECT_EQ(l.total_delivered(), 5u);
}

TEST(LedgerTest, DetectsLoss) {
  MessageLedger l;
  l.record_send(0, 1, 1);
  l.record_send(0, 1, 2);
  l.record_delivery(0, 1, 1);
  EXPECT_FALSE(l.check().consistent);
  EXPECT_TRUE(l.check(/*allow_in_flight=*/true).consistent);
}

TEST(LedgerTest, DetectsDuplicateAndReorder) {
  MessageLedger dup;
  dup.record_send(0, 1, 1);
  dup.record_delivery(0, 1, 1);
  dup.record_delivery(0, 1, 1);
  EXPECT_FALSE(dup.check(true).consistent);

  MessageLedger ooo;
  ooo.record_send(2, 3, 1);
  ooo.record_send(2, 3, 2);
  ooo.record_delivery(2, 3, 2);
  ooo.record_delivery(2, 3, 1);
  EXPECT_FALSE(ooo.check().consistent);

  MessageLedger phantom;
  phantom.record_delivery(4, 5, 9);
  EXPECT_FALSE(phantom.check(true).consistent);
}

TEST(LedgerTest, RollbackReexecutionIsNotDuplicateDelivery) {
  // A VC restored from an *older* checkpoint generation re-executes work
  // recorded after that cut: the same message ids are sent and delivered
  // again. With the rollback noted, the ledger collapses the re-execution
  // onto the first occurrence instead of flagging duplicates.
  MessageLedger l;
  for (int i = 1; i <= 4; ++i) {
    l.record_send(0, 1, i);
    l.record_delivery(0, 1, i);
  }
  l.note_rollback();  // cut taken after message 2; work 3..4 re-runs
  for (int i = 3; i <= 6; ++i) {
    l.record_send(0, 1, i);
    l.record_delivery(0, 1, i);
  }
  EXPECT_TRUE(l.check().consistent);
  EXPECT_EQ(l.epoch(), 1u);
  // Raw totals still count every event; collapse happens only in check().
  EXPECT_EQ(l.total_sent(), 8u);
  EXPECT_EQ(l.total_delivered(), 8u);
}

TEST(LedgerTest, TwoFallbacksDeepReexecutionStaysConsistent) {
  // Generation fallback can roll back twice (newest generation damaged,
  // walk to the one before): ids may repeat once per epoch.
  MessageLedger l;
  l.record_send(0, 1, 1);
  l.record_delivery(0, 1, 1);
  l.note_rollback();
  l.record_send(0, 1, 1);
  l.record_delivery(0, 1, 1);
  l.note_rollback();
  l.record_send(0, 1, 1);
  l.record_send(0, 1, 2);
  l.record_delivery(0, 1, 1);
  l.record_delivery(0, 1, 2);
  EXPECT_TRUE(l.check().consistent);
  EXPECT_EQ(l.epoch(), 2u);
}

TEST(LedgerTest, DuplicateWithinAnEpochStillFails) {
  // note_rollback() is not an amnesty: a genuine duplicate delivery inside
  // the re-execution epoch is still a consistency violation.
  MessageLedger l;
  l.record_send(0, 1, 1);
  l.record_delivery(0, 1, 1);
  l.note_rollback();
  l.record_send(0, 1, 1);
  l.record_delivery(0, 1, 1);
  l.record_delivery(0, 1, 1);  // delivered twice in epoch 1
  EXPECT_FALSE(l.check(true).consistent);
}

// ---------------------------------------------------------------------------
// Coordinated checkpointing end-to-end

/// A VC of `nodes` guests running bench::steady_ptrans (~10 all-to-all
/// iterations per second, so every rank always has traffic in flight
/// against every peer). No recovery policy: each test drives its own
/// coordinator.
tools::CellSpec lsc_cell(std::uint32_t nodes, std::uint64_t guest_ram,
                         net::ReliableConfig transport = {},
                         std::uint64_t seed = 42, double store_bps = 400e6,
                         bool abort_saves_on_failure = false) {
  test::TestBedOptions room;
  room.nodes_per_cluster = nodes;
  room.seed = seed;
  room.store.write_bps = store_bps;
  room.store.read_bps = 2 * store_bps;
  room.hv.abort_saves_on_failure = abort_saves_on_failure;
  return test::test_cell(room, "test-vc", guest_ram,
                         bench::steady_ptrans(nodes, 3000), transport);
}

TEST(QuiesceTest, RanksParkAtBoundariesAndResume) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  bool all_held = false;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    f.application->request_quiesce([&] { all_held = true; });
  });
  f.room.sim.run_until(30 * sim::kSecond);
  ASSERT_TRUE(all_held);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(f.application->rank(r).held());
  }
  // Parked ranks make no progress...
  const auto iter_held = f.application->rank(0).state().iter;
  f.room.sim.run_until(60 * sim::kSecond);
  EXPECT_EQ(f.application->rank(0).state().iter, iter_held);
  EXPECT_TRUE(f.application->mesh_drained());
  // ...until released.
  f.application->release_quiesce();
  f.room.sim.run_until(90 * sim::kSecond);
  EXPECT_GT(f.application->rank(0).state().iter, iter_held);
  EXPECT_FALSE(f.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(CocheckTest, UserLevelCheckpointWithoutFreezingGuests) {
  // Big guests: the VM path would be slow.
  tools::CellRig f(lsc_cell(6, 1ull << 30));
  CocheckCoordinator cocheck(f.room.sim);
  std::optional<CocheckCoordinator::Result> result;
  vm::GuestConfig guest;
  guest.ram_bytes = 1ull << 30;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    cocheck.checkpoint(*f.application, guest, f.room.images,
                       [&](CocheckCoordinator::Result r) { result = r; });
  });
  f.room.sim.run_until(120 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  // The quiesce costs about one application iteration (~0.1 s) + drain.
  EXPECT_LT(result->quiesce_time, 2 * sim::kSecond);
  // Process images, not guest images: far less than 6 x 1 GiB.
  EXPECT_LT(result->bytes_written, 6ull << 30);
  EXPECT_GT(result->bytes_written, 0u);
  // The guests themselves never froze.
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(f.vc->machine(i).pauses(), 0u);
  }
  // And the application keeps running afterwards.
  const auto iter_then = f.application->rank(0).state().iter;
  f.room.sim.run_until(180 * sim::kSecond);
  EXPECT_GT(f.application->rank(0).state().iter, iter_then);
  EXPECT_FALSE(f.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, CheckpointIsTransparentToTheApplication) {
  tools::CellRig f(lsc_cell(8, 512ull << 20));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(7));
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    f.room.dvc->checkpoint_vc(*f.vc, lsc,
                              [&](LscResult r) { result = std::move(r); });
  });
  // 8 x 512 MiB over 400 MB/s shared ~ 10.7 s of frozen time.
  f.room.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  // Skew bounded by clock error + timer jitter + local `xm save` latency:
  // tens of milliseconds, versus a >12 s transport retry budget.
  EXPECT_LT(result->pause_skew, 50 * sim::kMillisecond);
  EXPECT_GT(result->total_time, 5 * sim::kSecond);
  EXPECT_FALSE(f.application->failed());
  EXPECT_TRUE(f.vc->has_checkpoint());
  EXPECT_EQ(f.vc->generations().back().app_snapshots->size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(f.vc->machine(i).running());
    // The >10 s freeze trips each guest's software watchdog (§3.2).
    EXPECT_GE(f.vc->machine(i).watchdog_timeouts(), 1u);
  }
  // The application keeps making progress afterwards.
  const auto iter_then = f.application->rank(0).state().iter;
  f.room.sim.run_until(90 * sim::kSecond);
  EXPECT_GT(f.application->rank(0).state().iter, iter_then);
  EXPECT_FALSE(f.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, CoordinatorOwnsItsLiveRounds) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  // The round's `done` continuation holds the token while the round lives.
  const auto token = std::make_shared<int>(0);
  {
    NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(17));
    bool reported = false;
    lsc.checkpoint("owned", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [token, &reported](LscResult) { reported = true; });
    // Past the common save instant (2 s lead), before any image is durable.
    f.room.sim.run_until(f.room.sim.now() + 2200 * sim::kMillisecond);
    ASSERT_FALSE(reported);
    EXPECT_GT(token.use_count(), 1);
  }
  // A coordinator torn down mid-round frees the round it owns: neither the
  // queued events nor the hypervisors' pending saves keep it alive.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, RepeatedRoundsAllSucceed) {
  tools::CellRig f(lsc_cell(6, 64ull << 20));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(11));
  int ok_rounds = 0;
  // Five back-to-back checkpoint rounds, 20 s apart.
  for (int round = 0; round < 5; ++round) {
    f.room.sim.schedule_after((5 + 20 * round) * sim::kSecond, [&] {
      f.room.dvc->checkpoint_vc(*f.vc, lsc, [&](LscResult r) {
        if (r.ok) ++ok_rounds;
      });
    });
  }
  f.room.sim.run_until(150 * sim::kSecond);
  EXPECT_EQ(ok_rounds, 5);
  EXPECT_FALSE(f.application->failed());
  EXPECT_EQ(f.room.dvc->checkpoints_taken(), 5u);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, SaveAndHoldLeavesDomainsFrozen) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(13));
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint("hold", f.room.dvc->save_targets(*f.vc),
                   f.room.images, [&](LscResult r) { result = std::move(r); },
                   /*resume_after_save=*/false);
  });
  f.room.sim.run_until(40 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.vc->machine(i).state(), vm::DomainState::kSaved);
  }
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(LscValidationTest, EmptyTargetListsAreRejected) {
  tools::CellRig f(lsc_cell(2, 64ull << 20));
  NaiveLscCoordinator naive(f.room.sim, sim::Rng(1));
  NtpLscCoordinator ntp(f.room.sim, {}, sim::Rng(1));
  EXPECT_THROW(naive.checkpoint("x", {}, f.room.images, {}),
               std::invalid_argument);
  EXPECT_THROW(ntp.checkpoint("x", {}, f.room.images, {}),
               std::invalid_argument);
  // The NTP coordinator also insists on a clock per target.
  std::vector<SaveTarget> no_clock = f.room.dvc->save_targets(*f.vc);
  no_clock[0].clock = nullptr;
  EXPECT_THROW(ntp.checkpoint("x", std::move(no_clock), f.room.images, {}),
               std::invalid_argument);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NaiveLscTest, SaveAndHoldAlsoWorksNaively) {
  tools::CellRig f(lsc_cell(3, 64ull << 20));
  NaiveLscCoordinator lsc(f.room.sim, sim::Rng(9));
  std::optional<LscResult> result;
  f.room.sim.schedule_after(2 * sim::kSecond, [&] {
    lsc.checkpoint("hold", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [&](LscResult r) { result = std::move(r); },
                   /*resume_after_save=*/false);
  });
  f.room.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.vc->machine(i).state(), vm::DomainState::kSaved);
  }
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NaiveLscTest, RoundOpenedWhileAnotherFiresLeavesBothWhole) {
  // The coordinator holds its rounds by value, so opening round "b" moves
  // round "a" while a's save commands are still queued. Each firing and
  // save report finds its round by id, so both rounds complete.
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  NaiveLscCoordinator lsc(f.room.sim, sim::Rng(9));
  const std::vector<SaveTarget> all = f.room.dvc->save_targets(*f.vc);
  std::optional<LscResult> a;
  std::optional<LscResult> b;
  f.room.sim.schedule_after(2 * sim::kSecond, [&] {
    lsc.checkpoint("a", {all[0], all[1]}, f.room.images,
                   [&](LscResult r) { a = std::move(r); },
                   /*resume_after_save=*/false);
  });
  // Before a's first command lands: each costs at least 175 ms.
  f.room.sim.schedule_after(2100 * sim::kMillisecond, [&] {
    lsc.checkpoint("b", {all[2], all[3]}, f.room.images,
                   [&](LscResult r) { b = std::move(r); },
                   /*resume_after_save=*/false);
  });
  f.room.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(a->ok);
  EXPECT_TRUE(b->ok);
  EXPECT_NE(a->set, b->set);
  EXPECT_EQ(a->app_snapshots.size(), 2u);
  EXPECT_EQ(b->app_snapshots.size(), 2u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.vc->machine(i).state(), vm::DomainState::kSaved);
  }
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NaiveLscTest, SkewGrowsLinearlyWithNodeCount) {
  // The naive skew is a sum of per-terminal dispatch gaps, so its *mean*
  // grows linearly in the node count; average over seeds to see it.
  const auto mean_skew = [](std::uint32_t nodes) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      tools::CellRig f(lsc_cell(nodes, 64ull << 20, {}, seed));
      NaiveLscCoordinator lsc(f.room.sim, sim::Rng(seed));
      sim::Duration skew = 0;
      f.room.sim.schedule_after(5 * sim::kSecond, [&] {
        f.room.dvc->checkpoint_vc(
            *f.vc, lsc, [&](LscResult r) { skew = r.pause_skew; });
      });
      f.room.sim.run_until(90 * sim::kSecond);
      EXPECT_GT(skew, 0);
      total += sim::to_seconds(skew);
      EXPECT_TRUE(test::clean_end_of_run(f));
    }
    return total / 5.0;
  };
  const double small = mean_skew(2);
  const double large = mean_skew(8);
  EXPECT_GT(large, 3.0 * small);
  // 7 inter-dispatch gaps of >= 0.175 s each.
  EXPECT_GT(large, 1.2);
}

TEST(NaiveLscTest, SkewedSavesKillTheApplicationAtScale) {
  // Tight transport: retry budget = 0.2+0.4+0.8+1.6+3.2 (+6.4 final wait)
  // = 12.6 s. Twelve serial dispatches at ~1.4 s each push the skew well
  // past it: the still-running guests abort their connections to the
  // frozen ones — the paper's "12 nodes failing 90% of the time".
  // Paper-era substrate: 1 GiB guests against a ~100 MB/s NFS store, so
  // a save freezes its guest for minutes — far longer than the dispatch
  // skew — and the staggered saves also *finish* staggered, so resumed
  // guests exhaust their retry budget against still-frozen peers.
  net::ReliableConfig tight;
  tight.max_retries = 5;
  tools::CellRig f(
      lsc_cell(12, 1ull << 30, tight, /*seed=*/1, /*store_bps=*/100e6));
  NaiveLscCoordinator lsc(f.room.sim, sim::Rng(1));
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    f.room.dvc->checkpoint_vc(*f.vc, lsc,
                              [&](LscResult r) { result = std::move(r); });
  });
  f.room.sim.run_until(400 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  // Eleven serial dispatch gaps of ~0.35 s each: seconds of pause skew,
  // amplified further on the staggered resumes.
  EXPECT_GT(result->pause_skew, sim::from_seconds(2.0));
  EXPECT_TRUE(f.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, LoadedHostsWithoutHealthCheckKillTheApplication) {
  net::ReliableConfig tight;
  tight.max_retries = 5;
  tools::CellRig f(
      lsc_cell(8, 1ull << 30, tight, /*seed=*/5, /*store_bps=*/100e6));
  NtpLscCoordinator::Config cfg;
  cfg.stall_prob = 1.0;  // every agent starved (worst-case loaded hosts)
  NtpLscCoordinator lsc(f.room.sim, cfg, sim::Rng(5));
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    f.room.dvc->checkpoint_vc(*f.vc, lsc,
                              [&](LscResult r) { result = std::move(r); });
  });
  f.room.sim.run_until(600 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(f.application->failed());
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, HealthCheckAbortsCleanlyInsteadOfCrashing) {
  tools::CellRig f(lsc_cell(8, 64ull << 20, {}, /*seed=*/5));
  NtpLscCoordinator::Config cfg;
  cfg.stall_prob = 1.0;
  cfg.health_check = true;
  NtpLscCoordinator lsc(f.room.sim, cfg, sim::Rng(5));
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    f.room.dvc->checkpoint_vc(*f.vc, lsc,
                              [&](LscResult r) { result = std::move(r); });
  });
  f.room.sim.run_until(300 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_TRUE(result->aborted_cleanly);
  EXPECT_EQ(result->attempts, 3);
  // No guest ever froze: the application never noticed anything.
  EXPECT_FALSE(f.application->failed());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(f.vc->machine(i).running());
  }
  EXPECT_TRUE(test::clean_end_of_run(f));
}

// ---------------------------------------------------------------------------
// Round-outcome split: a save rejected before its guest froze is an
// *aborted* member (nothing disturbed), a save that froze the guest and
// then died is a *failed* member (work was lost). The two must never be
// conflated — recovery treats them differently.

TEST(NtpLscTest, PreFreezeRejectionsAreAbortedMembersNotFailures) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(3));
  lsc.set_metrics(&f.room.metrics);
  // Member 2's node dies before the round fires: its hypervisor rejects
  // the save outright, before any pause command reaches the guest.
  f.room.sim.schedule_after(4 * sim::kSecond, [&] {
    f.room.fabric.fail_node(f.vc->placement(2));
  });
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint("split", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [&](LscResult r) { result = std::move(r); });
  });
  f.room.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->members_aborted, 1);
  EXPECT_EQ(result->members_failed, 0);
  // The healthy members did freeze, so the round is not a clean abort.
  EXPECT_FALSE(result->aborted_cleanly);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.members_aborted"), 1u);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.members_failed"), 0u);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, WholeRoundRejectedPreFreezeIsACleanAbort) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(3));
  lsc.set_metrics(&f.room.metrics);
  f.room.sim.schedule_after(4 * sim::kSecond, [&] {
    for (std::uint32_t i = 0; i < 4; ++i) {
      f.room.fabric.fail_node(f.vc->placement(i));
    }
  });
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint("all-gone", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [&](LscResult r) { result = std::move(r); });
  });
  f.room.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->members_aborted, 4);
  EXPECT_EQ(result->members_failed, 0);
  // No guest froze at all: clean abort, no work disturbed by the round.
  EXPECT_TRUE(result->aborted_cleanly);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, MidSaveCrashIsAFailedMemberAndSurvivorsThaw) {
  // Slow store (4 x 128 MiB at 100 MB/s ~ 5.4 s of writes) so the crash
  // lands while images are streaming; in-flight saves abort on node death.
  tools::CellRig f(lsc_cell(4, 128ull << 20, {}, /*seed=*/42,
                            /*store_bps=*/100e6,
                            /*abort_saves_on_failure=*/true));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(3));
  lsc.set_metrics(&f.room.metrics);
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint("mid-save", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [&](LscResult r) { result = std::move(r); });
  });
  // The NTP lead is ~2 s, so guests freeze around t=7 s; kill member 1's
  // node two seconds into the write phase.
  f.room.sim.schedule_after(9 * sim::kSecond, [&] {
    f.room.fabric.fail_node(f.vc->placement(1));
  });
  f.room.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->members_failed, 1);
  EXPECT_EQ(result->members_aborted, 0);
  EXPECT_FALSE(result->aborted_cleanly);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.members_failed"), 1u);
  // The survivors' guests were resumed after their own saves completed —
  // a failed round must not leave live guests frozen forever.
  for (std::uint32_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(f.vc->machine(i).running()) << "member " << i;
  }
  EXPECT_EQ(f.vc->machine(1).state(), vm::DomainState::kDead);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, RoundTimeoutReportsStragglersAsLateCompletions) {
  // 4 x 128 MiB at 50 MB/s ~ 10.7 s of writes against a 6 s round budget.
  tools::CellRig f(
      lsc_cell(4, 128ull << 20, {}, /*seed=*/42, /*store_bps=*/50e6));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(3));
  lsc.set_metrics(&f.room.metrics);
  LscCoordinator::RetryPolicy retry;
  retry.round_timeout = 6 * sim::kSecond;
  lsc.set_retry_policy(retry);
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint("slow", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [&](LscResult r) { result = std::move(r); });
  });
  // The fixture has already run to 20 s; the round fires at 25 s and its
  // watchdog at 31 s, well before the ~35 s the writes need.
  f.room.sim.run_until(32 * sim::kSecond);
  ASSERT_TRUE(result.has_value());  // the watchdog fired, not the saves
  EXPECT_FALSE(result->ok);
  EXPECT_TRUE(result->timed_out);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.round_timeouts"), 1u);
  // The stragglers eventually finish; their completions are counted but
  // swallowed, and their guests are thawed.
  f.room.sim.run_until(60 * sim::kSecond);
  EXPECT_GE(f.room.metrics.counter_value("ckpt.lsc.late_completions"), 1u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(f.vc->machine(i).running()) << "member " << i;
  }
  EXPECT_TRUE(test::clean_end_of_run(f));
}

// ---------------------------------------------------------------------------
// One checkpoint() call, start to end: its retry asks Retarget, and an
// event of a round its watchdog settled finds nothing.

TEST(NtpLscTest, RetargetReturningNulloptAbandonsTheRetryCleanly) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  NtpLscCoordinator lsc(f.room.sim, {}, sim::Rng(3));
  lsc.set_metrics(&f.room.metrics);
  LscCoordinator::RetryPolicy retry;
  retry.max_round_retries = 2;
  lsc.set_retry_policy(retry);
  // Member 2's node dies before the round fires, so the round fails.
  f.room.sim.schedule_after(4 * sim::kSecond, [&] {
    f.room.fabric.fail_node(f.vc->placement(2));
  });
  int reports = 0;
  int asked = 0;
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint(
        "abandoned", f.room.dvc->save_targets(*f.vc), f.room.images,
        [&](LscResult r) {
          ++reports;
          result = std::move(r);
        },
        /*resume_after_save=*/true,
        [&]() -> std::optional<std::vector<SaveTarget>> {
          ++asked;
          return std::nullopt;
        });
  });
  f.room.sim.run_until(60 * sim::kSecond);
  EXPECT_EQ(asked, 1);
  EXPECT_EQ(reports, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_TRUE(result->aborted_cleanly);
  EXPECT_EQ(result->retries, 1);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.round_retries"), 1u);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.retries_abandoned"), 1u);
  EXPECT_TRUE(test::clean_end_of_run(f));
}

TEST(NtpLscTest, DeferralOfARoundTheWatchdogSettledIsDropped) {
  tools::CellRig f(lsc_cell(4, 64ull << 20));
  NtpLscCoordinator::Config cfg;
  cfg.stall_prob = 1.0;  // every attempt is deferred
  cfg.health_check = true;
  NtpLscCoordinator lsc(f.room.sim, cfg, sim::Rng(5));
  lsc.set_metrics(&f.room.metrics);
  // The watchdog expires before the health check's 1.5 s poll.
  LscCoordinator::RetryPolicy retry;
  retry.round_timeout = 1 * sim::kSecond;
  lsc.set_retry_policy(retry);
  int reports = 0;
  std::optional<LscResult> result;
  f.room.sim.schedule_after(5 * sim::kSecond, [&] {
    lsc.checkpoint("settled", f.room.dvc->save_targets(*f.vc), f.room.images,
                   [&](LscResult r) {
                     ++reports;
                     result = std::move(r);
                   });
  });
  f.room.sim.run_until(60 * sim::kSecond);
  EXPECT_EQ(reports, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->timed_out);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.round_timeouts"), 1u);
  // The deferred attempt never re-ran: no further health check, no
  // abandoned report, no round, and no guest froze.
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.health_check_retries"), 0u);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.rounds_aborted"), 0u);
  EXPECT_EQ(f.room.metrics.counter_value("ckpt.lsc.late_completions"), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.vc->machine(i).pauses(), 0u) << "member " << i;
  }
  EXPECT_TRUE(test::clean_end_of_run(f));
}

}  // namespace
}  // namespace dvc::ckpt
