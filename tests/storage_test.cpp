#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "storage/bandwidth_pool.hpp"
#include "storage/image_manager.hpp"
#include "storage/shared_store.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::storage {
namespace {

TEST(BandwidthPoolTest, SingleTransferTakesBytesOverRate) {
  sim::Simulation s;
  BandwidthPool pool(s, 100.0);  // 100 bytes/s
  bool done = false;
  pool.start(200, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim::to_seconds(s.now()), 2.0, 0.01);
  EXPECT_EQ(pool.completed(), 1u);
}

TEST(BandwidthPoolTest, ConcurrentTransfersShareFairly) {
  sim::Simulation s;
  BandwidthPool pool(s, 100.0);
  std::vector<double> finish(2, 0.0);
  pool.start(100, [&] { finish[0] = sim::to_seconds(s.now()); });
  pool.start(100, [&] { finish[1] = sim::to_seconds(s.now()); });
  s.run();
  // Two equal transfers at half rate each: both end at 2 s, not 1 s.
  EXPECT_NEAR(finish[0], 2.0, 0.01);
  EXPECT_NEAR(finish[1], 2.0, 0.01);
}

TEST(BandwidthPoolTest, ShortTransferLeavesLongOneToSpeedUp) {
  sim::Simulation s;
  BandwidthPool pool(s, 100.0);
  double short_done = 0.0;
  double long_done = 0.0;
  pool.start(50, [&] { short_done = sim::to_seconds(s.now()); });
  pool.start(150, [&] { long_done = sim::to_seconds(s.now()); });
  s.run();
  // Shared until t=1 (50 bytes each), then the long one gets full rate:
  // 100 remaining bytes at 100 B/s -> finishes at t=2.
  EXPECT_NEAR(short_done, 1.0, 0.01);
  EXPECT_NEAR(long_done, 2.0, 0.01);
}

TEST(BandwidthPoolTest, LateArrivalSlowsTheFirst) {
  sim::Simulation s;
  BandwidthPool pool(s, 100.0);
  double first_done = 0.0;
  pool.start(100, [&] { first_done = sim::to_seconds(s.now()); });
  s.schedule_after(sim::from_seconds(0.5), [&] {
    pool.start(1000, [] {});
  });
  s.run();
  // 50 bytes in the first 0.5 s alone, remaining 50 at half rate -> 1 s
  // more: finishes at 1.5 s.
  EXPECT_NEAR(first_done, 1.5, 0.01);
}

TEST(BandwidthPoolTest, CancelRemovesTransfer) {
  sim::Simulation s;
  BandwidthPool pool(s, 100.0);
  bool cancelled_fired = false;
  double other_done = 0.0;
  const TransferId id = pool.start(1000, [&] { cancelled_fired = true; });
  pool.start(100, [&] { other_done = sim::to_seconds(s.now()); });
  s.schedule_after(sim::from_seconds(0.1), [&] {
    EXPECT_TRUE(pool.cancel(id));
    EXPECT_FALSE(pool.cancel(id));
  });
  s.run();
  EXPECT_FALSE(cancelled_fired);
  // 5 bytes in the shared 0.1 s, then full rate: 95/100 -> done at 1.05 s.
  EXPECT_NEAR(other_done, 1.05, 0.01);
}

TEST(BandwidthPoolTest, NSaversContendLinearly) {
  sim::Simulation s;
  BandwidthPool pool(s, 1000.0);
  int done = 0;
  for (int i = 0; i < 26; ++i) {
    pool.start(1000, [&] { ++done; });
  }
  s.run();
  EXPECT_EQ(done, 26);
  // 26 x 1000 bytes through a 1000 B/s pipe: 26 s total.
  EXPECT_NEAR(sim::to_seconds(s.now()), 26.0, 0.1);
  EXPECT_NEAR(sim::to_seconds(pool.uncontended_time(1000)), 1.0, 1e-9);
}

TEST(BandwidthPoolTest, SimultaneousFinishersCompleteInStartOrder) {
  sim::Simulation s;
  BandwidthPool pool(s, 500.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.start(100, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_NEAR(sim::to_seconds(s.now()), 1.0, 1e-6);
  EXPECT_EQ(pool.completed(), 5u);
}

TEST(BandwidthPoolTest, CompletionMayStartOneTransferAndCancelAnother) {
  sim::Simulation s;
  BandwidthPool pool(s, 300.0);  // 100 B/s each while three share it
  std::vector<char> order;
  TransferId b = kInvalidTransfer;
  TransferId c = kInvalidTransfer;
  double d_done = 0.0;
  pool.start(100, [&] {
    order.push_back('A');
    // B finished in this same instant: already gone, its callback pending.
    EXPECT_FALSE(pool.cancel(b));
    EXPECT_TRUE(pool.cancel(c));
    pool.start(300, [&] {
      order.push_back('D');
      d_done = sim::to_seconds(s.now());
    });
  });
  b = pool.start(100, [&] { order.push_back('B'); });
  c = pool.start(1000, [&] { order.push_back('C'); });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'D'}));
  // D runs alone from t = 1 s: 300 bytes at 300 B/s.
  EXPECT_NEAR(d_done, 2.0, 1e-6);
  EXPECT_EQ(pool.completed(), 3u);
  EXPECT_EQ(pool.active(), 0u);
}

TEST(BandwidthPoolTest, CancellingAMiddleTransferKeepsTheOthersProgress) {
  sim::Simulation s;
  BandwidthPool pool(s, 400.0);  // 100 B/s each while four share it
  std::vector<char> order;
  double done_at = 0.0;
  const auto finish = [&](char name) {
    return [&order, &done_at, &s, name] {
      order.push_back(name);
      done_at = sim::to_seconds(s.now());
    };
  };
  pool.start(200, finish('A'));
  const TransferId b = pool.start(1000, finish('B'));
  pool.start(200, finish('C'));
  pool.start(200, finish('D'));
  s.schedule_after(sim::from_seconds(0.5),
                   [&] { EXPECT_TRUE(pool.cancel(b)); });
  s.run();
  // A, C and D each keep the 50 bytes they had at the cancel; their 150
  // remaining bytes at 400/3 B/s end together at 0.5 + 1.125 s, in start
  // order.
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'D'}));
  EXPECT_NEAR(done_at, 1.625, 1e-6);
  EXPECT_EQ(pool.completed(), 3u);
}

TEST(BandwidthPoolTest, ABurstOfStartsHoldsOneKernelEntry) {
  sim::Simulation s;
  BandwidthPool pool(s, 1200.0);  // 400 B/s each while three share it
  std::vector<sim::Time> done(3, 0);
  const auto finish = [&](int i) {
    return [&done, &s, i] { done[static_cast<std::size_t>(i)] = s.now(); };
  };
  pool.start(400, finish(0));
  pool.start(1000, finish(1));
  pool.start(1600, finish(2));
  // Three starts re-arm one timer: the pool's only entry in the kernel.
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.timer_arms(), 3u);
  EXPECT_EQ(s.timer_fallbacks(), 0u);
  s.run();
  // The fluid formula: 400 B at 400 B/s; then 600 B at 600 B/s; then the
  // last 600 B alone at 1200 B/s.
  EXPECT_EQ(done, (std::vector<sim::Time>{sim::kSecond, 2 * sim::kSecond,
                                          5 * sim::kSecond / 2}));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(pool.completed(), 3u);
}

TEST(BandwidthPoolTest, DestroyingABusyPoolLeavesNothingPending) {
  sim::Simulation s;
  bool done = false;
  {
    BandwidthPool pool(s, 100.0);
    pool.start(200, [&] { done = true; });
    EXPECT_EQ(s.pending(), 1u);
  }
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.pending_foreground(), 0u);
  EXPECT_EQ(s.run(), 0u);
  EXPECT_FALSE(done);
}

/// A completion that counts its lives and calls; not trivially copyable,
/// so a pool holds it behind an owning pointer.
struct Counted {
  int* live;
  int* calls;
  Counted(int* l, int* c) : live(l), calls(c) { ++*live; }
  Counted(const Counted& o) : Counted(o.live, o.calls) {}
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live; }
  void operator()() const { ++*calls; }
};
static_assert(!sim::Callback::stores_inline<Counted>);

TEST(BandwidthPoolTest, BoxedCompletionDiesExactlyOnce) {
  sim::Simulation s;
  int live = 0;
  int calls = 0;
  {
    BandwidthPool pool(s, 100.0);
    pool.start(100, Counted(&live, &calls));
    const TransferId cancelled = pool.start(300, Counted(&live, &calls));
    pool.start(500, Counted(&live, &calls));
    EXPECT_EQ(live, 3);
    EXPECT_TRUE(pool.cancel(cancelled));
    EXPECT_EQ(live, 2);  // a cancelled transfer's completion dies at once
    s.run_until(3 * sim::kSecond);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 1);  // a fired one after it runs
  }
  EXPECT_EQ(live, 0);  // a pending one with its pool
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(BandwidthPoolTest, MoveOnlyCompletionRuns) {
  sim::Simulation s;
  BandwidthPool pool(s, 100.0);
  int seen = 0;
  pool.start(100, [&seen, p = std::make_unique<int>(7)] { seen = *p; });
  s.run();
  EXPECT_EQ(seen, 7);
}

class PoolConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoolConservation, WorkConservingUnderRandomArrivals) {
  // Property: a processor-sharing pool is work-conserving — with no idle
  // gaps, the last completion lands exactly at total_bytes / capacity,
  // regardless of arrival pattern inside the busy period.
  sim::Simulation s;
  BandwidthPool pool(s, 1000.0);
  sim::Rng rng(GetParam());
  double total = 0.0;
  int done = 0;
  int started = 0;
  // First transfer at t=0 is big enough to keep the pool busy while the
  // others trickle in.
  const double first = 50000.0;
  total += first;
  pool.start(static_cast<std::uint64_t>(first), [&] { ++done; });
  ++started;
  for (int i = 0; i < 20; ++i) {
    const double bytes = 100.0 + rng.uniform() * 2000.0;
    const sim::Duration at = sim::from_seconds(rng.uniform() * 40.0);
    total += bytes;
    ++started;
    s.schedule_at(at, [&pool, bytes, &done] {
      pool.start(static_cast<std::uint64_t>(bytes), [&] { ++done; });
    });
  }
  s.run();
  EXPECT_EQ(done, started);
  EXPECT_NEAR(sim::to_seconds(s.now()), total / 1000.0, 0.05 * started);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolConservation,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

TEST(SharedStoreTest, WriteThenReadVerifiesChecksum) {
  sim::Simulation s;
  SharedStore store(s, {});
  ObjectId id = kInvalidObject;
  store.write_object("img", 1 << 20, synthetic_checksum(1, 2, 3),
                     [&](ObjectId oid) { id = oid; });
  s.run();
  ASSERT_NE(id, kInvalidObject);
  const auto info = store.info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->bytes, 1u << 20);
  ReadError err = ReadError::kNotFound;
  store.read_object(id, [&](ReadError r) { err = r; });
  s.run();
  EXPECT_EQ(err, ReadError::kOk);
}

TEST(SharedStoreTest, ReadOfMissingObjectFails) {
  sim::Simulation s;
  SharedStore store(s, {});
  ReadError err = ReadError::kOk;
  store.read_object(12345, [&](ReadError r) { err = r; });
  s.run();
  EXPECT_EQ(err, ReadError::kNotFound);
}

TEST(SharedStoreTest, CorruptionIsDetectedOnRead) {
  sim::Simulation s;
  SharedStore store(s, {});
  ObjectId id = kInvalidObject;
  store.write_object("img", 1 << 20, synthetic_checksum(7, 7, 7),
                     [&](ObjectId oid) { id = oid; });
  s.run();
  ASSERT_TRUE(store.corrupt_object(id));
  ReadError err = ReadError::kOk;
  store.read_object(id, [&](ReadError r) { err = r; });
  s.run();
  EXPECT_EQ(err, ReadError::kChecksumMismatch);
  // Corruption is silent at rest: the object still lists as present.
  EXPECT_TRUE(store.info(id).has_value());
}

TEST(SharedStoreTest, TornWriteCompletesSilentlyButFailsVerify) {
  sim::Simulation s;
  SharedStore store(s, {});
  ObjectId id = kInvalidObject;
  store.write_object("img", 8 << 20, synthetic_checksum(1, 1, 1),
                     [&](ObjectId oid) { id = oid; });
  // Kill the store mid-write: the writer still gets a completion (it
  // cannot know the fsync never landed) ...
  s.schedule_after(sim::from_seconds(0.01),
                   [&] { EXPECT_EQ(store.tear_inflight_writes(), 1u); });
  s.run();
  ASSERT_NE(id, kInvalidObject);
  ASSERT_TRUE(store.info(id).has_value());
  EXPECT_TRUE(store.info(id)->torn);
  // ... and the damage only surfaces at the next verified read.
  ReadError err = ReadError::kOk;
  store.read_object(id, [&](ReadError r) { err = r; });
  s.run();
  EXPECT_EQ(err, ReadError::kTorn);
}

TEST(SharedStoreTest, TearWithNothingInFlightIsANoOp) {
  sim::Simulation s;
  SharedStore store(s, {});
  store.write_object("img", 1000, 1, [](ObjectId) {});
  s.run();  // write completes cleanly first
  EXPECT_EQ(store.tear_inflight_writes(), 0u);
}

TEST(SharedStoreTest, NthNewestTargetsMostRecentWrites) {
  sim::Simulation s;
  SharedStore store(s, {});
  std::vector<ObjectId> ids;
  for (int i = 0; i < 3; ++i) {
    store.write_object("img", 1000, 1, [&](ObjectId oid) {
      ids.push_back(oid);
    });
    s.run();
  }
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(store.nth_newest_object(0), ids[2]);
  EXPECT_EQ(store.nth_newest_object(2), ids[0]);
  EXPECT_EQ(store.nth_newest_object(3), kInvalidObject);
}

TEST(SharedStoreTest, RemoveReclaimsBytes) {
  sim::Simulation s;
  SharedStore store(s, {});
  const ObjectId id = store.put_object("base", 500, 1);
  EXPECT_EQ(store.bytes_stored(), 500u);
  EXPECT_TRUE(store.remove_object(id));
  EXPECT_EQ(store.bytes_stored(), 0u);
  EXPECT_FALSE(store.remove_object(id));
  EXPECT_EQ(store.object_count(), 0u);
}

TEST(SharedStoreTest, WriteTimeReflectsBandwidthAndOverhead) {
  sim::Simulation s;
  SharedStore::Config cfg;
  cfg.write_bps = 1e6;
  cfg.op_overhead = 10 * sim::kMillisecond;
  SharedStore store(s, cfg);
  telemetry::MetricsRegistry metrics;
  store.set_metrics(&metrics);
  store.write_object("x", 1'000'000, 0, [](ObjectId) {});
  s.run();
  EXPECT_NEAR(sim::to_seconds(s.now()), 1.01, 0.02);
  const telemetry::Histogram* write_s =
      metrics.find_histogram("storage.store.write_s");
  ASSERT_NE(write_s, nullptr);
  EXPECT_EQ(write_s->count(), 1u);
  EXPECT_NEAR(write_s->summary().mean(), 1.01, 0.02);
}

TEST(SharedStoreTest, ThousandWriteRemoveCyclesKeepBookkeeping) {
  sim::Simulation s;
  SharedStore store(s, {});
  std::vector<ObjectId> live;  // oldest first
  std::vector<std::uint64_t> live_bytes;
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t bytes = 1000 + static_cast<std::uint64_t>(i);
    const std::string name = "a-name-too-long-for-the-small-buffer-" +
                             std::to_string(i);
    ObjectId id = kInvalidObject;
    store.write_object(name, bytes, synthetic_checksum(i, 0, 0),
                       [&](ObjectId oid) { id = oid; });
    s.run();
    ASSERT_NE(id, kInvalidObject);
    ASSERT_TRUE(store.info(id).has_value());
    EXPECT_EQ(store.info(id)->name, name);
    EXPECT_EQ(store.info(id)->bytes, bytes);
    live.push_back(id);
    live_bytes.push_back(bytes);
    expected_bytes += bytes;
    if (live.size() > 3) {
      const ObjectId gone = live.front();
      ASSERT_TRUE(store.remove_object(gone));
      EXPECT_FALSE(store.info(gone).has_value());
      EXPECT_FALSE(store.remove_object(gone));
      expected_bytes -= live_bytes.front();
      live.erase(live.begin());
      live_bytes.erase(live_bytes.begin());
    }
    ASSERT_EQ(store.object_count(), live.size());
    ASSERT_EQ(store.bytes_stored(), expected_bytes);
    for (std::size_t k = 0; k < live.size(); ++k) {
      ASSERT_EQ(store.nth_newest_object(k), live[live.size() - 1 - k]);
    }
    ASSERT_EQ(store.nth_newest_object(live.size()), kInvalidObject);
  }
  EXPECT_EQ(store.inflight_writes(), 0u);
}

TEST(SharedStoreTest, TearAfterReuseTearsInStartOrderOnce) {
  sim::Simulation s;
  SharedStore::Config cfg;
  cfg.write_bps = 1e6;
  cfg.op_overhead = 5 * sim::kMillisecond;
  SharedStore store(s, cfg);
  // Warm the store's recycled nodes with completed writes first.
  for (int i = 0; i < 20; ++i) {
    store.write_object("warm", 1000, 1, [](ObjectId) {});
  }
  s.run();
  std::vector<ObjectId> started;
  std::vector<ObjectId> fired;
  auto write = [&](std::uint64_t bytes) {
    store.write_object("victim", bytes, 2,
                       [&](ObjectId oid) { fired.push_back(oid); });
  };
  // Two writes streaming when the tear lands, two still in op overhead.
  const sim::Time t0 = s.now();
  write(1'000'000);
  write(2'000'000);
  s.run_until(t0 + 8 * sim::kMillisecond);
  write(3'000'000);
  s.run_until(t0 + 9 * sim::kMillisecond);
  write(4'000'000);
  ASSERT_EQ(store.inflight_writes(), 4u);
  s.run_until(t0 + 10 * sim::kMillisecond);
  EXPECT_EQ(store.tear_inflight_writes(), 4u);
  ASSERT_EQ(fired.size(), 4u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]) << "torn out of start order";
  }
  for (const ObjectId id : fired) {
    ASSERT_TRUE(store.info(id).has_value());
    EXPECT_TRUE(store.info(id)->torn);
  }
  s.run();  // the torn writes' pending events must stay silent
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(store.inflight_writes(), 0u);
  // The store keeps working after the tear.
  write(1000);
  s.run();
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_FALSE(store.info(fired.back())->torn);
}

TEST(SharedStoreTest, ChecksumIsDeterministicAndDiscriminates) {
  EXPECT_EQ(synthetic_checksum(1, 2, 3), synthetic_checksum(1, 2, 3));
  EXPECT_NE(synthetic_checksum(1, 2, 3), synthetic_checksum(1, 2, 4));
  EXPECT_NE(synthetic_checksum(1, 2, 3), synthetic_checksum(3, 2, 1));
}

TEST(ImageManagerTest, SetSealsWhenAllMembersDurable) {
  sim::Simulation s;
  SharedStore store(s, {});
  ImageManager mgr(store);
  const CheckpointSetId set = mgr.open_set("vc1", 3);
  // The last member's completion finds the set sealed.
  bool sealed = false;
  const auto member_done = [&] { sealed = mgr.find_set(set)->sealed; };
  for (std::uint64_t m = 0; m < 3; ++m) {
    mgr.add_member(set, m, 1000, member_done);
  }
  s.run();
  EXPECT_TRUE(sealed);
  const CheckpointSet* cs = mgr.find_set(set);
  ASSERT_NE(cs, nullptr);
  EXPECT_TRUE(cs->sealed);
  EXPECT_EQ(cs->members.size(), 3u);
  EXPECT_EQ(cs->total_bytes(), 3000u);
}

TEST(ImageManagerTest, PartialSetNeverSeals) {
  sim::Simulation s;
  SharedStore store(s, {});
  ImageManager mgr(store);
  const CheckpointSetId set = mgr.open_set("vc1", 3);
  mgr.add_member(set, 0, 1000);
  mgr.add_member(set, 1, 1000);
  s.run();
  EXPECT_FALSE(mgr.find_set(set)->sealed);
  EXPECT_EQ(mgr.latest_sealed("vc1"), nullptr);
}

TEST(ImageManagerTest, AbortGarbageCollectsMembers) {
  sim::Simulation s;
  SharedStore store(s, {});
  ImageManager mgr(store);
  const CheckpointSetId set = mgr.open_set("vc1", 2);
  mgr.add_member(set, 0, 1000);
  s.run();
  mgr.abort_set(set);
  EXPECT_TRUE(mgr.find_set(set)->aborted);
  EXPECT_EQ(store.bytes_stored(), 0u);
  // A member landing after the abort is dropped too.
  mgr.add_member(set, 1, 1000);
  s.run();
  EXPECT_EQ(store.bytes_stored(), 0u);
  EXPECT_FALSE(mgr.find_set(set)->sealed);
}

TEST(ImageManagerTest, LatestSealedPicksNewest) {
  sim::Simulation s;
  SharedStore store(s, {});
  ImageManager mgr(store);
  const auto s1 = mgr.open_set("vc", 1);
  const auto s2 = mgr.open_set("vc", 1);
  const auto other = mgr.open_set("other", 1);
  mgr.add_member(s1, 0, 10);
  mgr.add_member(s2, 0, 20);
  mgr.add_member(other, 0, 30);
  s.run();
  ASSERT_NE(mgr.latest_sealed("vc"), nullptr);
  EXPECT_EQ(mgr.latest_sealed("vc")->id, s2);
  EXPECT_EQ(mgr.latest_sealed("other")->id, other);
}

TEST(ImageManagerTest, StageSetReadsEveryMember) {
  sim::Simulation s;
  SharedStore store(s, {});
  ImageManager mgr(store);
  const auto set = mgr.open_set("vc", 4);
  for (std::uint64_t m = 0; m < 4; ++m) mgr.add_member(set, m, 1 << 20);
  s.run();
  bool staged = false;
  bool ok = false;
  mgr.stage_set(set, [&](bool r) {
    staged = true;
    ok = r;
  });
  s.run();
  EXPECT_TRUE(staged);
  EXPECT_TRUE(ok);
}

TEST(ImageManagerTest, StageOfUnsealedSetFails) {
  sim::Simulation s;
  SharedStore store(s, {});
  ImageManager mgr(store);
  const auto set = mgr.open_set("vc", 2);
  mgr.add_member(set, 0, 100);
  s.run();
  bool ok = true;
  mgr.stage_set(set, [&](bool r) { ok = r; });
  s.run();
  EXPECT_FALSE(ok);
}

TEST(ImageManagerTest, ReplicationCopiesMembersWithoutGatingSeal) {
  sim::Simulation s;
  SharedStore store(s, {});
  SharedStore replica(s, {});
  ImageManager mgr(store);
  mgr.add_replica(replica);
  ASSERT_EQ(mgr.replica_count(), 1u);
  const auto set = mgr.open_set("vc", 2);
  // The set seals when the primary copies land, replicas still streaming.
  bool sealed = false;
  const auto member_done = [&] { sealed = mgr.find_set(set)->sealed; };
  mgr.add_member(set, 0, 1 << 20, member_done);
  mgr.add_member(set, 1, 1 << 20, member_done);
  s.run();
  EXPECT_TRUE(sealed);
  // Both the primary and the replica hold every member's bytes.
  EXPECT_EQ(store.bytes_stored(), 2u << 20);
  EXPECT_EQ(replica.bytes_stored(), 2u << 20);
  for (const auto& m : mgr.find_set(set)->members) {
    ASSERT_EQ(m.replicas.size(), 1u);
    EXPECT_NE(m.replicas[0], kInvalidObject);
  }
}

TEST(ImageManagerTest, ReadMemberFailsOverToReplicaOnPrimaryDamage) {
  sim::Simulation s;
  SharedStore store(s, {});
  SharedStore replica(s, {});
  ImageManager mgr(store);
  mgr.add_replica(replica);
  const auto set = mgr.open_set("vc", 1);
  mgr.add_member(set, 0, 1 << 20);
  s.run();  // primary write + async replica copy both land
  ASSERT_TRUE(store.corrupt_object(mgr.find_set(set)->members[0].object));
  bool ok = false;
  mgr.read_member(set, 0, [&](bool r) { ok = r; });
  s.run();
  EXPECT_TRUE(ok);  // the replica masked the bit rot
  EXPECT_FALSE(mgr.find_set(set)->damaged);
}

TEST(ImageManagerTest, SetDamagedWhenEveryCopyFailsVerification) {
  sim::Simulation s;
  SharedStore store(s, {});
  SharedStore replica(s, {});
  ImageManager mgr(store);
  mgr.add_replica(replica);
  const auto set = mgr.open_set("vc", 1);
  mgr.add_member(set, 0, 1 << 20);
  s.run();
  const MemberImage& m = mgr.find_set(set)->members[0];
  ASSERT_TRUE(store.corrupt_object(m.object));
  ASSERT_TRUE(replica.corrupt_object(m.replicas[0]));
  bool ok = true;
  mgr.read_member(set, 0, [&](bool r) { ok = r; });
  s.run();
  EXPECT_FALSE(ok);
  EXPECT_TRUE(mgr.find_set(set)->damaged);
}

TEST(ImageManagerTest, DiscardReclaimsReplicaObjectsToo) {
  sim::Simulation s;
  SharedStore store(s, {});
  SharedStore replica(s, {});
  ImageManager mgr(store);
  mgr.add_replica(replica);
  const auto set = mgr.open_set("vc", 2);
  mgr.add_member(set, 0, 1000);
  mgr.add_member(set, 1, 1000);
  s.run();
  ASSERT_GT(replica.bytes_stored(), 0u);
  mgr.discard_set(set);
  EXPECT_EQ(store.bytes_stored(), 0u);
  EXPECT_EQ(replica.bytes_stored(), 0u);
}

TEST(ImageManagerTest, ReplicaLandingAfterDiscardIsRemoved) {
  sim::Simulation s;
  SharedStore store(s, {});
  SharedStore::Config slow;
  slow.write_bps = 1e6;  // the replica copy outlives its set
  SharedStore replica(s, slow);
  ImageManager mgr(store);
  mgr.add_replica(replica);
  const auto doomed = mgr.open_set("vc", 1);
  mgr.add_member(doomed, 0, 10'000'000);
  while (!mgr.find_set(doomed)->sealed) s.step();
  ASSERT_EQ(replica.inflight_writes(), 1u);
  // A second set takes the copy slot the doomed set's primary write gave
  // back; then the doomed set is discarded while its replica still streams.
  const auto kept = mgr.open_set("vc", 1);
  mgr.add_member(kept, 0, 1000);
  while (!mgr.find_set(kept)->sealed) s.step();
  EXPECT_EQ(mgr.discard_set(doomed), 10'000'000u);
  s.run();
  EXPECT_EQ(mgr.find_set(doomed), nullptr);
  const MemberImage& m = mgr.find_set(kept)->members[0];
  ASSERT_NE(m.replicas[0], kInvalidObject);
  ASSERT_TRUE(replica.info(m.replicas[0]).has_value());
  EXPECT_EQ(replica.info(m.replicas[0])->bytes, 1000u);
  EXPECT_EQ(replica.object_count(), 1u);
  EXPECT_EQ(replica.bytes_stored(), 1000u);
}

TEST(ImageManagerTest, ReusedCopySlotsRouteEveryCopyToItsMember) {
  sim::Simulation s;
  SharedStore store(s, {});
  SharedStore::Config slow;
  slow.write_bps = 50e6;
  SharedStore fast_replica(s, {});
  SharedStore slow_replica(s, slow);
  ImageManager mgr(store);
  mgr.add_replica(fast_replica);
  mgr.add_replica(slow_replica);
  sim::Rng rng(99);
  // Overlapping rounds of uneven members, cut back to the two newest
  // sealed sets as each member lands (so at every seal): copies land out
  // of slot order and after their set died.
  const auto keep_two = [&] {
    std::vector<CheckpointSetId> sealed;
    for (const CheckpointSet* cs : mgr.sets_with_label("vc")) {
      if (cs->sealed) sealed.push_back(cs->id);
    }
    for (std::size_t i = 0; i + 2 < sealed.size(); ++i) {
      mgr.discard_set(sealed[i]);
    }
  };
  for (int round = 0; round < 40; ++round) {
    const auto set = mgr.open_set("vc", 3);
    for (std::uint64_t member = 0; member < 3; ++member) {
      mgr.add_member(set, member, 1000 + rng.below(4'000'000), keep_two);
    }
    s.run_until(s.now() + sim::from_seconds(0.05));
  }
  s.run();
  const std::vector<const CheckpointSet*> sets = mgr.sets_with_label("vc");
  ASSERT_EQ(sets.size(), 2u);
  std::uint64_t members = 0;
  for (const CheckpointSet* cs : sets) {
    ASSERT_TRUE(cs->sealed);
    for (const MemberImage& m : cs->members) {
      ++members;
      ASSERT_EQ(m.replicas.size(), 2u);
      for (std::size_t r = 0; r < 2; ++r) {
        SharedStore& rs = r == 0 ? fast_replica : slow_replica;
        ASSERT_TRUE(rs.info(m.replicas[r]).has_value());
        EXPECT_EQ(rs.info(m.replicas[r])->bytes, m.bytes);
        EXPECT_EQ(rs.info(m.replicas[r])->checksum,
                  synthetic_checksum(cs->id, m.member, m.bytes));
      }
    }
  }
  EXPECT_EQ(members, 6u);
  EXPECT_EQ(store.object_count(), members);
  EXPECT_EQ(fast_replica.object_count(), members);
  EXPECT_EQ(slow_replica.object_count(), members);
}

}  // namespace
}  // namespace dvc::storage
