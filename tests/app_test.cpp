#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/mpi_job.hpp"
#include "app/workload.hpp"
#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/virtual_machine.hpp"

namespace dvc::app {
namespace {

/// Boots `n` tiny VMs directly (no hypervisor: placement + resume).
struct AppFixture {
  explicit AppFixture(std::uint32_t n) {
    fabric.add_cluster("a", n);
    vm::GuestConfig cfg;
    cfg.ram_bytes = 1 << 20;
    for (std::uint32_t i = 0; i < n; ++i) {
      vms.push_back(std::make_unique<vm::VirtualMachine>(
          sim, fabric.network(), i + 1, cfg));
      vms.back()->place_on(fabric.node(i));
      vms.back()->resume();
      contexts.push_back(vms.back().get());
    }
  }

  sim::Simulation sim;
  hw::Fabric fabric{sim, {}};
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms;
  std::vector<vm::ExecutionContext*> contexts;
};

/// Records what an MpiJob hands its application.
struct Recorder final : MpiJob::Receiver {
  struct Delivery {
    RankId to;
    RankId from;
    net::Message m;
  };
  void on_message(RankId to, RankId from, const net::Message& m) override {
    delivered.push_back({to, from, m});
  }
  void on_abort(RankId rank, std::string_view why) override {
    aborts.emplace_back(rank, why);
  }

  std::vector<Delivery> delivered;
  std::vector<std::pair<RankId, std::string>> aborts;
};

TEST(WorkloadSpecTest, HplIsComputeDominatedAndCheckpointable) {
  const WorkloadSpec s = make_hpl(4096, 8);
  EXPECT_EQ(s.ranks, 8u);
  EXPECT_EQ(s.pattern, Pattern::kBroadcast);
  EXPECT_TRUE(s.supports_app_checkpoint);
  EXPECT_NEAR(s.total_flops(), (2.0 / 3.0) * 4096.0 * 4096.0 * 4096.0,
              1e6);
  EXPECT_EQ(s.working_set_bytes_per_rank, 4096ull * 4096 * 8 / 8);
}

TEST(WorkloadSpecTest, PtransIsCommunicationHeavy) {
  const WorkloadSpec s = make_ptrans(4096, 8);
  EXPECT_EQ(s.pattern, Pattern::kAllToAll);
  EXPECT_FALSE(s.supports_app_checkpoint);
  EXPECT_EQ(s.bytes_per_msg, 4096u * 4096 * 8 / 64);
  // Far fewer flops than HPL at the same order.
  EXPECT_LT(s.total_flops(), make_hpl(4096, 8).total_flops() / 100);
}

TEST(WorkloadSpecTest, SequentialIsSingleRank) {
  const WorkloadSpec s = make_sequential(1e12);
  EXPECT_EQ(s.ranks, 1u);
  EXPECT_EQ(s.pattern, Pattern::kNone);
  EXPECT_NEAR(s.total_flops(), 1e12, 1.0);
}

TEST(ParallelAppTest, SequentialJobCompletes) {
  AppFixture f(1);
  ParallelApp app(f.sim, f.fabric.network(), f.contexts,
                  make_sequential(1e10, 5));
  app.start();
  f.sim.run();
  EXPECT_TRUE(app.completed());
  EXPECT_FALSE(app.failed());
  // 1e10 flops at 0.97e10 flop/s -> ~1.03 s.
  EXPECT_NEAR(app.stats().makespan_s, 1.0 / 0.97, 0.01);
}

TEST(ParallelAppTest, HplCompletesWithBroadcasts) {
  AppFixture f(4);
  ParallelApp app(f.sim, f.fabric.network(), f.contexts,
                  make_hpl(512, 4, 4));
  bool completed_cb = false;
  app.set_on_complete([&] { completed_cb = true; });
  app.start();
  f.sim.run();
  EXPECT_TRUE(app.completed());
  EXPECT_TRUE(completed_cb);
  const JobStats st = app.stats();
  // Each of 4 iterations: root broadcasts to 3 peers.
  EXPECT_EQ(st.messages, 4u * 3u);
  EXPECT_EQ(st.retransmissions, 0u);
  EXPECT_GT(st.reported_gflops, 0.0);
}

TEST(ParallelAppTest, PtransCompletesWithAllToAll) {
  AppFixture f(6);
  ParallelApp app(f.sim, f.fabric.network(), f.contexts,
                  make_ptrans(256, 6, 5));
  app.start();
  f.sim.run();
  EXPECT_TRUE(app.completed());
  EXPECT_EQ(app.stats().messages, 5u * 6u * 5u);  // iters * P * (P-1)
}

TEST(TreeTopologyTest, RootZeroBinomialShape) {
  // Classic binomial tree over 8 ranks rooted at 0.
  EXPECT_EQ(tree_children(0, 0, 8), (std::vector<RankId>{1, 2, 4}));
  EXPECT_EQ(tree_children(1, 0, 8), (std::vector<RankId>{}));
  EXPECT_EQ(tree_children(2, 0, 8), (std::vector<RankId>{3}));
  EXPECT_EQ(tree_children(4, 0, 8), (std::vector<RankId>{5, 6}));
  EXPECT_EQ(tree_children(6, 0, 8), (std::vector<RankId>{7}));
  EXPECT_EQ(tree_parent(3, 0, 8), 2u);
  EXPECT_EQ(tree_parent(7, 0, 8), 6u);
  EXPECT_EQ(tree_parent(4, 0, 8), 0u);
  EXPECT_EQ(tree_parent(0, 0, 8), 0u);  // the root has no parent
}

class TreeProperty
    : public ::testing::TestWithParam<std::tuple<RankId, RankId>> {};

TEST_P(TreeProperty, EveryRankReachableExactlyOnce) {
  const auto [p, root] = GetParam();
  // parent/children are mutually consistent and the tree spans all ranks.
  std::vector<int> indegree(p, 0);
  for (RankId r = 0; r < p; ++r) {
    for (const RankId c : tree_children(r, root, p)) {
      ASSERT_LT(c, p);
      ++indegree[c];
      EXPECT_EQ(tree_parent(c, root, p), r);
    }
  }
  for (RankId r = 0; r < p; ++r) {
    EXPECT_EQ(indegree[r], r == root ? 0 : 1) << "rank " << r;
  }
  // Depth is logarithmic: every rank reaches the root in <= ceil(log2 p)+1
  // parent hops.
  for (RankId r = 0; r < p; ++r) {
    RankId cur = r;
    int hops = 0;
    while (cur != root && hops <= 34) {
      cur = tree_parent(cur, root, p);
      ++hops;
    }
    EXPECT_EQ(cur, root);
    int log2p = 0;
    while ((1u << log2p) < p) ++log2p;
    EXPECT_LE(hops, log2p + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeProperty,
    ::testing::Values(std::make_tuple<RankId, RankId>(1, 0),
                      std::make_tuple<RankId, RankId>(2, 0),
                      std::make_tuple<RankId, RankId>(2, 1),
                      std::make_tuple<RankId, RankId>(5, 3),
                      std::make_tuple<RankId, RankId>(8, 0),
                      std::make_tuple<RankId, RankId>(8, 5),
                      std::make_tuple<RankId, RankId>(13, 7),
                      std::make_tuple<RankId, RankId>(26, 11),
                      std::make_tuple<RankId, RankId>(32, 31),
                      std::make_tuple<RankId, RankId>(33, 16)));

TEST(ParallelAppTest, TreeBroadcastCompletes) {
  AppFixture f(13);
  WorkloadSpec s;
  s.ranks = 13;
  s.iterations = 9;
  s.flops_per_rank_iter = 1e8;
  s.pattern = Pattern::kTreeBroadcast;
  s.bytes_per_msg = 8192;
  ParallelApp app(f.sim, f.fabric.network(), f.contexts, s);
  app.start();
  f.sim.run();
  EXPECT_TRUE(app.completed());
  // Every iteration moves exactly P-1 panel copies, just like flat bcast.
  EXPECT_EQ(app.stats().messages, 9u * 12u);
}

TEST(ParallelAppTest, TreeBroadcastBeatsFlatForLargePanels) {
  // With per-host egress serialisation, a flat broadcast pays P-1 panel
  // serialisations on the root's link; the binomial tree pays ~log2(P).
  // One iteration isolates the collective (rotating roots would otherwise
  // pipeline consecutive flat broadcasts across different links).
  const auto run = [](Pattern pattern) {
    AppFixture f(32);
    WorkloadSpec s;
    s.ranks = 32;
    s.iterations = 1;
    s.flops_per_rank_iter = 1e6;  // negligible compute
    s.pattern = pattern;
    s.bytes_per_msg = 8 << 20;  // 8 MiB panels: serialisation dominates
    ParallelApp app(f.sim, f.fabric.network(), f.contexts, s);
    app.start();
    f.sim.run();
    EXPECT_TRUE(app.completed());
    return app.stats().makespan_s;
  };
  const double flat = run(Pattern::kBroadcast);
  const double tree = run(Pattern::kTreeBroadcast);
  EXPECT_LT(tree, flat / 2.0);
}

TEST(ParallelAppTest, RingPatternCompletes) {
  AppFixture f(5);
  WorkloadSpec s;
  s.ranks = 5;
  s.iterations = 7;
  s.flops_per_rank_iter = 1e8;
  s.pattern = Pattern::kRing;
  s.bytes_per_msg = 4096;
  ParallelApp app(f.sim, f.fabric.network(), f.contexts, s);
  app.start();
  f.sim.run();
  EXPECT_TRUE(app.completed());
  EXPECT_EQ(app.stats().messages, 7u * 5u);
}

TEST(ParallelAppTest, RanksProgressInLockstepPlusMinusOneIteration) {
  AppFixture f(4);
  ParallelApp app(f.sim, f.fabric.network(), f.contexts,
                  make_ptrans(128, 4, 50));
  app.start();
  // Sample midway: in an all-to-all workload no rank can run ahead of a
  // peer by more than one iteration. Sampling points are spread across
  // the whole run, whose makespan is ~12 ms here.
  std::uint32_t max_spread = 0;
  bool sampled_midway = false;
  for (int ms = 1; ms <= 10; ++ms) {
    f.sim.schedule_at(ms * sim::kMillisecond, [&] {
      std::uint32_t lo = 0xffffffff;
      std::uint32_t hi = 0;
      for (RankId r = 0; r < 4; ++r) {
        lo = std::min(lo, app.rank(r).state().iter);
        hi = std::max(hi, app.rank(r).state().iter);
      }
      max_spread = std::max(max_spread, hi - lo);
      if (lo > 0 && !app.completed()) sampled_midway = true;
    });
  }
  f.sim.run();
  EXPECT_TRUE(app.completed());
  EXPECT_TRUE(sampled_midway);
  EXPECT_LE(max_spread, 1u);
}

TEST(ParallelAppTest, WallClockInflationAcrossPause) {
  // A mid-run freeze inflates the app's own elapsed-time report but not
  // its true compute time (the paper's HPL observation, T6's mechanism).
  AppFixture f(2);
  WorkloadSpec s;
  s.ranks = 2;
  s.iterations = 10;
  s.flops_per_rank_iter = 1e9;  // ~0.1 s per iteration
  s.pattern = Pattern::kRing;
  s.bytes_per_msg = 1024;
  ParallelApp app(f.sim, f.fabric.network(), f.contexts, s);
  app.start();
  // Freeze both VMs for 30 s mid-run (coordinated, so no transport abort).
  f.sim.schedule_at(sim::from_seconds(0.35), [&] {
    f.vms[0]->pause();
    f.vms[1]->pause();
  });
  f.sim.schedule_at(sim::from_seconds(30.35), [&] {
    f.vms[0]->resume();
    f.vms[1]->resume();
  });
  f.sim.run();
  ASSERT_TRUE(app.completed());
  const JobStats st = app.stats();
  EXPECT_GT(st.reported_elapsed_s, 30.0);      // the jump is visible
  EXPECT_LT(st.compute_done_s, 1.5);           // real work is ~1 s
  EXPECT_NEAR(st.makespan_s, st.reported_elapsed_s, 0.2);
}

TEST(ParallelAppTest, KilledRankEventuallyFailsTheJob) {
  AppFixture f(3);
  WorkloadSpec s;
  s.ranks = 3;
  s.iterations = 1000;
  s.flops_per_rank_iter = 1e8;
  s.pattern = Pattern::kAllToAll;
  s.bytes_per_msg = 512;
  ParallelApp app(f.sim, f.fabric.network(), f.contexts, s);
  std::string why;
  app.set_on_failure([&](std::string w) { why = std::move(w); });
  app.start();
  f.sim.schedule_at(sim::kSecond, [&] { f.vms[1]->kill(); });
  f.sim.run();
  EXPECT_TRUE(app.failed());
  EXPECT_FALSE(app.completed());
  EXPECT_FALSE(why.empty());
}

TEST(ParallelAppTest, MismatchedContextCountThrows) {
  AppFixture f(2);
  EXPECT_THROW(ParallelApp(f.sim, f.fabric.network(), f.contexts,
                           make_hpl(256, 4)),
               std::invalid_argument);
}

TEST(ParallelAppTest, OutlivesItsGuestVms) {
  // Fleet's teardown order: the job's guest VMs are destroyed first, the
  // app after them, while traffic and retransmission timers are live.
  AppFixture f(3);
  WorkloadSpec s;
  s.ranks = 3;
  s.iterations = 1000;
  s.flops_per_rank_iter = 1e8;
  s.pattern = Pattern::kAllToAll;
  s.bytes_per_msg = 512;
  auto app = std::make_unique<ParallelApp>(f.sim, f.fabric.network(),
                                           f.contexts, s);
  app->start();
  f.sim.run_until(sim::kSecond);
  ASSERT_GT(app->mesh().messages_sent(), 0u);
  std::vector<net::HostId> hosts;
  for (const auto& vm : f.vms) hosts.push_back(vm->host());
  f.vms.clear();
  f.contexts.clear();
  app.reset();
  // No sink of the dead job is left bound on the guests' hosts, and no
  // event of it is left in the queue.
  for (const net::HostId h : hosts) {
    f.fabric.network().set_host_up(h, false);
    f.fabric.network().set_host_up(h, true);
  }
  f.sim.run();
}

TEST(MpiJobTest, AggregateCountersTrackTraffic) {
  AppFixture f(3);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  EXPECT_TRUE(job.send(0, 2, 64, 0));
  f.sim.run();
  ASSERT_EQ(rx.delivered.size(), 1u);
  EXPECT_EQ(rx.delivered[0].to, 2u);
  EXPECT_EQ(rx.delivered[0].from, 0u);
  EXPECT_EQ(rx.delivered[0].m.bytes, 64u);
  EXPECT_EQ(job.messages_sent(), 1u);
  EXPECT_EQ(job.messages_delivered(), 1u);
  EXPECT_EQ(job.bytes_sent(), 64u);
}

TEST(MpiJobTest, TransportSnapshotRoundTrip) {
  AppFixture f(2);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  f.vms[1]->pause();  // peer frozen: message stays unacked
  job.send(0, 1, 128, 3);
  f.sim.run_until(sim::kSecond);
  f.vms[0]->pause();
  const RankTransportSnapshot snap = job.snapshot_transport(0);
  ASSERT_TRUE(snap.to_peer.contains(1));
  EXPECT_EQ(snap.to_peer.at(1).unacked.size(), 1u);

  ASSERT_TRUE(rx.delivered.empty());
  f.vms[0]->resume();
  f.vms[1]->resume();
  job.restore_transport(0, snap, 1);
  job.restore_transport(1, job.snapshot_transport(1), 1);
  f.sim.run();
  ASSERT_EQ(rx.delivered.size(), 1u);
  EXPECT_EQ(rx.delivered[0].to, 1u);
}

TEST(MpiJobTest, SnapshotOmitsNeverUsedPeers) {
  AppFixture f(3);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  for (RankId r = 0; r < 3; ++r) {
    EXPECT_TRUE(job.snapshot_transport(r).to_peer.empty()) << "rank " << r;
  }
  // One message 0 -> 1 touches exactly that pair's two endpoints.
  job.send(0, 1, 64, 0);
  f.sim.run();
  const RankTransportSnapshot s0 = job.snapshot_transport(0);
  const RankTransportSnapshot s1 = job.snapshot_transport(1);
  ASSERT_EQ(s0.to_peer.size(), 1u);
  EXPECT_EQ(s0.to_peer.at(1).next_seq, 1u);
  ASSERT_EQ(s1.to_peer.size(), 1u);
  EXPECT_EQ(s1.to_peer.at(0).expected, 1u);
  EXPECT_TRUE(job.snapshot_transport(2).to_peer.empty());
}

TEST(MpiJobTest, RestoreResetsAPeerFirstUsedAfterTheCut) {
  AppFixture f(3);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  const RankTransportSnapshot cut = job.snapshot_transport(0);
  ASSERT_TRUE(cut.to_peer.empty());

  f.vms[2]->pause();  // peer frozen: the message stays unacked
  job.send(0, 2, 128, 0);
  f.sim.run_until(sim::kSecond);
  ASSERT_EQ(job.snapshot_transport(0).to_peer.at(2).unacked.size(), 1u);
  ASSERT_GT(f.sim.pending_foreground(), 0u);  // its retransmission timer

  job.restore_transport(0, cut, 1);
  // Back to next_seq = 0 with nothing unacked, i.e. the empty snapshot,
  // and the timer is cancelled, not re-armed.
  EXPECT_TRUE(job.snapshot_transport(0).to_peer.empty());
  EXPECT_EQ(f.sim.pending_foreground(), 0u);
  const std::uint64_t retransmitted = job.retransmissions();
  f.sim.run();
  EXPECT_EQ(job.retransmissions(), retransmitted);
}

TEST(MpiJobTest, PairOpenedAfterRollbackUsesTheJobEpoch) {
  AppFixture f(3);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  const auto check_at2 = [&rx](std::size_t n) {
    std::size_t at2 = 0;
    for (const Recorder::Delivery& d : rx.delivered) {
      if (d.to != 2) continue;
      ++at2;
      EXPECT_EQ(d.from, 0u);
      EXPECT_EQ(d.m.tag, 7u);
    }
    EXPECT_EQ(at2, n);
  };
  job.send(0, 1, 64, 0);
  job.send(1, 0, 64, 0);
  f.sim.run();

  // The cut: every guest frozen and imaged, then the whole job restored
  // into a new incarnation.
  for (const auto& vm : f.vms) vm->pause();
  std::vector<RankTransportSnapshot> cut;
  for (RankId r = 0; r < 3; ++r) cut.push_back(job.snapshot_transport(r));
  ASSERT_TRUE(cut[2].to_peer.empty());
  constexpr std::uint32_t kEpoch = 3;
  for (RankId r = 0; r < 3; ++r) job.restore_transport(r, cut[r], kEpoch);
  for (const auto& vm : f.vms) vm->resume();

  // 0 -> 2 never carried traffic: its pair opens now, in the new epoch.
  EXPECT_TRUE(job.send(0, 2, 128, 7));
  f.sim.run();
  check_at2(1);
  EXPECT_FALSE(job.failed());
  EXPECT_EQ(job.retransmissions(), 0u);
  EXPECT_EQ(job.duplicates_discarded(), 0u);
  EXPECT_TRUE(job.drained());

  // Rank 0 alone is restored in place at the job's epoch. Its end of the
  // new pair lands in that epoch, so rank 2's end must already be there.
  f.vms[0]->pause();
  const RankTransportSnapshot s0 = job.snapshot_transport(0);
  ASSERT_TRUE(s0.to_peer.contains(2));
  job.restore_transport(0, s0, kEpoch);
  f.vms[0]->resume();
  EXPECT_TRUE(job.send(0, 2, 128, 7));
  f.sim.run();
  check_at2(2);
  EXPECT_FALSE(job.failed());
  EXPECT_EQ(job.retransmissions(), 0u);
  EXPECT_TRUE(job.drained());
}

TEST(MpiJobTest, ThawReachesPeersInRankOrder) {
  AppFixture f(4);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  const auto arrivals = [&rx] {
    std::vector<RankId> to;
    for (const Recorder::Delivery& d : rx.delivered) to.push_back(d.to);
    return to;
  };
  // The peers are dark, so the first transmissions are lost. A 1 MiB
  // message holds rank 0's egress link for ~8 ms, far longer than the
  // latency jitter, so arrivals keep the order of departures.
  for (RankId q = 1; q < 4; ++q) f.vms[q]->pause();
  constexpr std::uint32_t kBytes = 1u << 20;
  for (const RankId q : {3u, 1u, 2u}) job.send(0, q, kBytes, 0);
  f.sim.run_until(50 * sim::kMillisecond);

  // Rank 0 freezes before anything is ACKed; its retransmission timers
  // come due while it is frozen and park.
  f.vms[0]->pause();
  for (RankId q = 1; q < 4; ++q) f.vms[q]->resume();
  f.sim.run_until(sim::kSecond);
  ASSERT_TRUE(arrivals().empty());
  ASSERT_EQ(job.retransmissions(), 0u);

  // On thaw every parked timer restarts at the same instant; they fire in
  // the order the endpoints were told, which must be peer order (not the
  // order the pairs were opened in).
  f.vms[0]->resume();
  f.sim.run();
  EXPECT_EQ(arrivals(), (std::vector<RankId>{1, 2, 3}));
  EXPECT_EQ(job.retransmissions(), 3u);
  EXPECT_FALSE(job.failed());
}

TEST(MpiJobTest, AbortReachesTheReceiverOnce) {
  telemetry::MetricsRegistry metrics;
  AppFixture f(3);
  f.fabric.network().set_metrics(&metrics);
  Recorder rx;
  MpiJob job(f.sim, f.fabric.network(), f.contexts, rx);
  // Both of rank 0's peers stay frozen, so both of its endpoints run out
  // of retries.
  f.vms[1]->pause();
  f.vms[2]->pause();
  EXPECT_TRUE(job.send(0, 1, 64, 0));
  EXPECT_TRUE(job.send(0, 2, 64, 0));
  f.sim.run();
  EXPECT_EQ(metrics.counter_value("net.endpoint.aborts"), 2u);
  ASSERT_EQ(rx.aborts.size(), 1u);
  EXPECT_EQ(rx.aborts[0].first, 0u);
  EXPECT_FALSE(rx.aborts[0].second.empty());
  EXPECT_TRUE(job.failed());
  EXPECT_FALSE(job.send(0, 1, 64, 0));
  EXPECT_TRUE(rx.delivered.empty());
}

}  // namespace
}  // namespace dvc::app
