#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/reliable_channel.hpp"
#include "sim/simulation.hpp"

namespace dvc::net {
namespace {

/// Records what one endpoint hands up: each message with its arrival
/// instant, and the abort reason.
struct Inbox final : MessageSink {
  Inbox(ReliableEndpoint& ep, const sim::Simulation& clock) : sim(&clock) {
    ep.set_sink(this);
  }
  void on_message(const ReliableEndpoint& /*ep*/, const Message& m) override {
    got.push_back(m);
    at.push_back(sim->now());
  }
  void on_abort(const ReliableEndpoint& /*ep*/, std::string_view why) override {
    reason = why;
  }

  const sim::Simulation* sim;
  std::vector<Message> got;
  std::vector<sim::Time> at;
  std::string reason;
};

struct ChannelFixture {
  explicit ChannelFixture(double loss = 0.0, ReliableConfig cfg = {},
                          std::uint64_t seed = 1)
      : link(std::make_shared<FlatLinkModel>(FlatLinkModel::Config{
            100 * sim::kMicrosecond, 20 * sim::kMicrosecond, loss, 1e9})),
        net(sim, link, sim::Rng(seed)),
        a_host(net.new_host()),
        b_host(net.new_host()),
        conn(sim, net, {a_host, 1}, {b_host, 1}, cfg),
        a(conn.end_a()),
        b(conn.end_b()) {}

  sim::Simulation sim;
  std::shared_ptr<FlatLinkModel> link;
  Network net;
  HostId a_host;
  HostId b_host;
  ReliableConnection conn;
  ReliableEndpoint& a;
  ReliableEndpoint& b;
};

TEST(ReliableConfigTest, RetryBudgetSumsBackedOffSchedule) {
  ReliableConfig cfg;
  cfg.initial_rto = 200 * sim::kMillisecond;
  cfg.backoff = 2.0;
  cfg.max_retries = 6;
  // 0.2 + 0.4 + 0.8 + 1.6 + 3.2 + 6.4 + 12.8 = 25.4 s
  EXPECT_NEAR(sim::to_seconds(cfg.retry_budget()), 25.4, 1e-6);
}

TEST(ReliableChannelTest, DeliversInOrderWithIds) {
  ChannelFixture f;
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_NE(f.a.send(100 + i, /*tag=*/i), 0u);
  }
  f.sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i].id, i + 1);
    EXPECT_EQ(got[i].bytes, 100 + i);
    EXPECT_EQ(got[i].tag, i);
  }
  EXPECT_EQ(f.a.unacked(), 0u);
  EXPECT_EQ(f.a.retransmissions(), 0u);
  EXPECT_FALSE(f.a.failed());
}

TEST(ReliableChannelTest, BidirectionalTrafficIsIndependent) {
  ChannelFixture f;
  Inbox in_a(f.a, f.sim);
  Inbox in_b(f.b, f.sim);
  const std::vector<Message>& at_a = in_a.got;
  const std::vector<Message>& at_b = in_b.got;
  f.a.send(1);
  f.b.send(2);
  f.a.send(3);
  f.sim.run();
  EXPECT_EQ(at_b.size(), 2u);
  EXPECT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].bytes, 2u);
}

TEST(ReliableChannelTest, RetransmitsThroughLossExactlyOnce) {
  ReliableConfig cfg;
  cfg.max_retries = 12;
  ChannelFixture f(/*loss=*/0.3, cfg, /*seed=*/7);
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  for (int i = 0; i < 50; ++i) f.a.send(64, i);
  f.sim.run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[i].tag, static_cast<unsigned>(i));
  EXPECT_GT(f.a.retransmissions(), 0u);
  EXPECT_FALSE(f.a.failed());
  EXPECT_EQ(f.a.unacked(), 0u);
}

TEST(ReliableChannelTest, AbortsAfterRetryBudgetAgainstDeadPeer) {
  ChannelFixture f;
  Inbox inbox(f.a, f.sim);
  const std::string& reason = inbox.reason;
  f.net.set_host_up(f.b_host, false);  // peer frozen forever
  f.a.send(100);
  f.sim.run();
  EXPECT_TRUE(f.a.failed());
  EXPECT_FALSE(reason.empty());
  // Abort lands one retry-budget after the send.
  const ReliableConfig cfg;
  EXPECT_NEAR(sim::to_seconds(f.sim.now()),
              sim::to_seconds(cfg.retry_budget()), 0.2);
  // A failed endpoint refuses further sends.
  EXPECT_EQ(f.a.send(1), 0u);
}

TEST(ReliableChannelTest, FrozenSenderConsumesNoRetries) {
  ChannelFixture f;
  f.net.set_host_up(f.b_host, false);
  f.a.send(100);
  // Freeze the sender before its budget runs out; keep both frozen a long
  // time; then thaw both. The transfer must complete, not abort.
  f.sim.schedule_after(3 * sim::kSecond,
                       [&] { f.net.set_host_up(f.a_host, false); });
  f.sim.schedule_after(10 * sim::kMinute, [&] {
    f.net.set_host_up(f.a_host, true);
    f.net.set_host_up(f.b_host, true);
  });
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  f.sim.run();
  EXPECT_FALSE(f.a.failed());
  EXPECT_EQ(got.size(), 1u);
}

TEST(ReliableChannelTest, PaperScenario1_DataLostAcrossCut) {
  // A message is in flight when the receiver freezes; it is dropped, never
  // ACKed, and retransmitted after both guests thaw (paper §3 scenario 1).
  ChannelFixture f;
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  f.a.send(100);
  // Freeze the receiver before the packet lands (latency ~100 us).
  f.net.set_host_up(f.b_host, false);
  // Freeze the "sender guest" a moment later (coordinated checkpoint).
  f.sim.schedule_after(5 * sim::kMillisecond,
                       [&] { f.net.set_host_up(f.a_host, false); });
  // Restore both much later.
  f.sim.schedule_after(2 * sim::kMinute, [&] {
    f.net.set_host_up(f.a_host, true);
    f.net.set_host_up(f.b_host, true);
  });
  f.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_FALSE(f.a.failed());
  EXPECT_GE(f.a.retransmissions(), 1u);
}

TEST(ReliableChannelTest, PaperScenario2_AckLostAcrossCut) {
  // The receiver delivers and ACKs, but the ACK dies on the wire before
  // the cut. After restore the sender retransmits; the receiver re-ACKs
  // the duplicate without redelivering (paper §3 scenario 2).
  ChannelFixture f;
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  f.a.send(100);
  // The data packet is already on the wire; freezing the sender now means
  // the receiver's ACK will find the sender's NIC dark and be lost.
  f.net.set_host_up(f.a_host, false);
  f.sim.schedule_after(5 * sim::kMillisecond, [&] {
    EXPECT_EQ(got.size(), 1u);  // receiver delivered before its own freeze
    f.net.set_host_up(f.b_host, false);
  });
  f.sim.schedule_after(2 * sim::kMinute, [&] {
    f.net.set_host_up(f.a_host, true);
    f.net.set_host_up(f.b_host, true);
  });
  f.sim.run();
  EXPECT_EQ(got.size(), 1u);           // exactly once: no redelivery
  EXPECT_EQ(f.b.duplicates_discarded(), 1u);
  EXPECT_FALSE(f.a.failed());
  EXPECT_EQ(f.a.unacked(), 0u);        // the re-ACK completed the exchange
}

TEST(ReliableChannelTest, RetransmissionMasksOneWayLossWindow) {
  // A one-way cut (dying transceiver): data packets a -> b vanish while
  // the reverse path stays perfect. As long as the window is shorter than
  // the retry budget (~25.4 s), retransmission masks it completely.
  sim::Simulation sim;
  auto link = std::make_shared<ClusterLinkModel>(ClusterLinkModel::Config{});
  Network net(sim, link, sim::Rng(5));
  const HostId a_host = net.new_host();  // cluster 0 (default)
  const HostId b_host = net.new_host();
  link->set_cluster(b_host, 1);
  ReliableConnection conn(sim, net, {a_host, 1}, {b_host, 1});
  ReliableEndpoint& a = conn.end_a();
  ReliableEndpoint& b = conn.end_b();
  Inbox inbox(b, sim);
  const std::vector<Message>& got = inbox.got;

  ClusterLinkModel::PairOverride cut;
  cut.cut = true;
  link->set_directed_override(0, 1, cut);
  a.send(100, 7);
  // Every transmission inside the window dies on the forward path; the
  // cut lifts at 12 s, well inside the budget.
  sim.schedule_after(12 * sim::kSecond,
                     [&] { link->clear_directed_override(0, 1); });
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].tag, 7u);
  EXPECT_FALSE(a.failed());
  EXPECT_GE(a.retransmissions(), 1u);
  EXPECT_EQ(a.unacked(), 0u);
}

TEST(ReliableChannelTest, SnapshotRestoreRoundTripsState) {
  ChannelFixture f;
  f.net.set_host_up(f.b_host, false);
  f.a.send(100, 5);
  f.a.send(200, 6);
  f.sim.run_until(sim::kSecond);
  const TransportSnapshot snap = f.a.snapshot();
  EXPECT_EQ(snap.next_seq, 2u);
  EXPECT_EQ(snap.acked, 0u);
  EXPECT_EQ(snap.unacked.size(), 2u);
  EXPECT_EQ(snap.unacked.at(0).first, 100u);
  EXPECT_EQ(snap.unacked.at(1).second, 6u);
}

TEST(ReliableChannelTest, RollbackRestoreRedeliversUnacked) {
  ChannelFixture f;
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;

  // Freeze both sides with a message unACKed; snapshot; then simulate a
  // crash-and-rollback: both endpoints restore with a bumped epoch.
  f.net.set_host_up(f.b_host, false);
  f.a.send(123, 9);
  f.sim.run_until(10 * sim::kMillisecond);
  f.net.set_host_up(f.a_host, false);
  const TransportSnapshot sa = f.a.snapshot();
  const TransportSnapshot sb = f.b.snapshot();

  f.sim.run_until(sim::kMinute);
  f.net.set_host_up(f.a_host, true);
  f.net.set_host_up(f.b_host, true);
  f.a.restore(sa, /*epoch=*/1);
  f.b.restore(sb, /*epoch=*/1);
  f.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].bytes, 123u);
  EXPECT_EQ(got[0].tag, 9u);
  EXPECT_EQ(f.a.unacked(), 0u);
}

TEST(ReliableChannelTest, StaleEpochPacketsAreIgnored) {
  ChannelFixture f;
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  // b rolls forward to epoch 1; a (still epoch 0) sends — ignored.
  f.b.restore(TransportSnapshot{}, /*epoch=*/1);
  f.a.send(55);
  f.sim.run_until(sim::kSecond);
  EXPECT_TRUE(got.empty());
  // Once a is also restored into epoch 1, traffic flows again.
  TransportSnapshot sa = f.a.snapshot();
  f.a.restore(sa, /*epoch=*/1);
  f.sim.run();
  ASSERT_EQ(got.size(), 1u);
}

TEST(ReliableChannelTest, RestoreReopensFailedEndpoint) {
  ChannelFixture f;
  f.net.set_host_up(f.b_host, false);
  f.a.send(100);
  f.sim.run();  // aborts
  ASSERT_TRUE(f.a.failed());
  TransportSnapshot sa;
  sa.next_seq = 1;  // pretend the checkpoint saw the message queued
  sa.unacked.emplace(0, std::make_pair(100u, 0u));
  f.net.set_host_up(f.b_host, true);
  f.a.restore(sa, 1);
  f.b.restore(TransportSnapshot{}, 1);
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  f.sim.run();
  EXPECT_FALSE(f.a.failed());
  EXPECT_EQ(got.size(), 1u);
}

// Both receive paths: in-order segments with nothing buffered go straight
// to the handler, the rest wait in the reorder buffer. Jitter reorders
// back-to-back bursts and loss opens gaps that retransmits fill.
TEST(ReliableConnectionTest, JitterAndLossDeliverExactlyOnceOnBothPaths) {
  sim::Simulation sim;
  auto link = std::make_shared<FlatLinkModel>(FlatLinkModel::Config{
      50 * sim::kMicrosecond, 20 * sim::kMicrosecond, 0.05, 1e9});
  Network net(sim, link, sim::Rng(2024));
  const HostId h1 = net.new_host();
  const HostId h2 = net.new_host();
  ReliableConfig cfg;
  cfg.initial_rto = 5 * sim::kMillisecond;  // gaps close between bursts
  cfg.max_retries = 14;
  ReliableConnection conn(sim, net, {h1, 3}, {h2, 4}, cfg);
  ReliableEndpoint& rx = conn.end_b();
  // Counters already include a message when the sink hears of it.
  struct Checked final : MessageSink {
    void on_message(const ReliableEndpoint& ep, const Message& m) override {
      EXPECT_EQ(ep.messages_delivered(), m.id);
      EXPECT_EQ(ep.snapshot().expected, m.id);
      got.push_back(m);
    }
    void on_abort(const ReliableEndpoint& /*ep*/,
                  std::string_view /*why*/) override {}
    std::vector<Message> got;
  } checked;
  rx.set_sink(&checked);
  const std::vector<Message>& got = checked.got;
  constexpr std::uint32_t kBursts = 100;
  constexpr std::uint32_t kPerBurst = 4;
  for (std::uint32_t b = 0; b < kBursts; ++b) {
    sim.schedule_at(b * 2 * sim::kMillisecond, [&conn, b] {
      for (std::uint32_t i = 0; i < kPerBurst; ++i) {
        conn.end_a().send(100 + i, b * kPerBurst + i);
      }
    });
  }
  sim.run();
  ASSERT_FALSE(conn.failed());
  ASSERT_EQ(got.size(), std::size_t{kBursts} * kPerBurst);
  for (std::uint32_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, i + 1u);
    EXPECT_EQ(got[i].tag, i);
    EXPECT_EQ(got[i].bytes, 100 + i % kPerBurst);
  }
  EXPECT_GT(conn.end_a().retransmissions(), 0u);
  EXPECT_GT(rx.buffered(), 0u);           // the reorder path
  EXPECT_LT(rx.buffered(), got.size());  // the direct path
  EXPECT_EQ(rx.messages_delivered(), got.size());
  EXPECT_EQ(conn.end_a().unacked(), 0u);
}

// Leaves a with three unacked messages and b with two buffered behind the
// first, which was dropped at b's frozen NIC.
void open_gap(ChannelFixture& f) {
  f.net.set_host_up(f.b_host, false);
  f.a.send(10, 1);
  f.sim.run_until(f.sim.now() + sim::kMillisecond);
  f.net.set_host_up(f.b_host, true);
  f.a.send(20, 2);
  f.a.send(30, 3);
  f.sim.run_until(f.sim.now() + sim::kMillisecond);
}

TEST(ReliableChannelTest, SnapshotRestoreSnapshotRoundTrips) {
  ChannelFixture f;
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  open_gap(f);
  const TransportSnapshot sa = f.a.snapshot();
  const TransportSnapshot sb = f.b.snapshot();
  ASSERT_EQ(sa.unacked.size(), 3u);
  ASSERT_EQ(sb.reorder.size(), 2u);
  EXPECT_TRUE(got.empty());
  f.a.restore(sa, /*epoch=*/1);
  f.b.restore(sb, /*epoch=*/1);
  EXPECT_EQ(f.a.snapshot(), sa);
  EXPECT_EQ(f.b.snapshot(), sb);
  f.sim.run();
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(got[i].tag, i + 1);
  EXPECT_EQ(f.a.unacked(), 0u);
}

TEST(ReliableChannelTest, RestoreRejectsNonContiguousUnacked) {
  ChannelFixture f;
  open_gap(f);
  const TransportSnapshot before = f.a.snapshot();
  const std::pair<std::uint32_t, std::uint32_t> m{64, 0};
  TransportSnapshot gap;  // seq 1 missing
  gap.next_seq = 3;
  gap.unacked = {{0, m}, {2, m}};
  TransportSnapshot short_run;  // does not reach next_seq - 1
  short_run.next_seq = 3;
  short_run.unacked = {{0, m}, {1, m}};
  TransportSnapshot overfull;  // more unacked than ever sent
  overfull.next_seq = 1;
  overfull.unacked = {{0, m}, {1, m}};
  for (const TransportSnapshot* bad : {&gap, &short_run, &overfull}) {
    EXPECT_THROW(f.a.restore(*bad, /*epoch=*/5), std::invalid_argument);
    // Rejected before any state changed.
    EXPECT_EQ(f.a.snapshot(), before);
    EXPECT_EQ(f.a.epoch(), 0u);
  }
}

TEST(ReliableConnectionTest, WrapsTwoEndpoints) {
  sim::Simulation sim;
  auto link = std::make_shared<FlatLinkModel>(FlatLinkModel::Config{});
  Network net(sim, link, sim::Rng(3));
  const HostId h1 = net.new_host();
  const HostId h2 = net.new_host();
  ReliableConnection conn(sim, net, {h1, 9}, {h2, 9});
  Inbox inbox(conn.end_b(), sim);
  conn.end_a().send(10);
  sim.run();
  EXPECT_EQ(inbox.got.size(), 1u);
  EXPECT_FALSE(conn.failed());
}

TEST(ReliableConnectionTest, RetransmitTimersFireAtExactInstants) {
  // Connection x's sender retries against a dead peer, so its backed-off
  // RTOs (400 ms, then 800 ms) sit at the tail of the kernel's timer list.
  // Connection y's fresh 200 ms RTO falls due before that tail, which has
  // no predecessor, so x's 1400 ms RTO is demoted to the heap and y's arm
  // joins the list; y's 10 ms thaw re-arm then finds the list empty and
  // joins it too. Every timer must still fire at its exact instant.
  using sim::kMillisecond;
  sim::Simulation sim;
  auto link = std::make_shared<FlatLinkModel>(
      FlatLinkModel::Config{100 * sim::kMicrosecond, 0, 0.0, 1e9});
  Network net(sim, link, sim::Rng(5));
  const HostId xa = net.new_host();
  const HostId xb = net.new_host();
  const HostId ya = net.new_host();
  const HostId yb = net.new_host();
  ReliableConnection x(sim, net, {xa, 1}, {xb, 1});
  ReliableConnection y(sim, net, {ya, 1}, {yb, 1});
  Inbox y_inbox(y.end_b(), sim);
  const std::vector<sim::Time>& y_delivered = y_inbox.at;
  net.set_host_up(xb, false);  // x's peer stays dead
  net.set_host_up(yb, false);
  x.end_a().send(100);  // RTOs fire at 200, 600 and 1400 ms
  sim.schedule_at(700 * kMillisecond, [&] { y.end_a().send(100); });
  // y's sender freezes before its 900 ms RTO, which parks; the thaw at
  // 1000 ms re-arms for 1010 ms, by when y's peer is back to ACK it.
  sim.schedule_at(800 * kMillisecond, [&] { net.set_host_up(ya, false); });
  sim.schedule_at(1000 * kMillisecond, [&] { net.set_host_up(ya, true); });
  sim.schedule_at(1005 * kMillisecond, [&] { net.set_host_up(yb, true); });

  // Each retransmission must land exactly at its instant, not a tick early.
  const auto retransmits_by = [&](sim::Time at, const ReliableEndpoint& e) {
    sim.run_until(at);
    return e.retransmissions();
  };
  EXPECT_EQ(retransmits_by(200 * kMillisecond - 1, x.end_a()), 0u);
  EXPECT_EQ(retransmits_by(200 * kMillisecond, x.end_a()), 1u);
  EXPECT_EQ(retransmits_by(600 * kMillisecond - 1, x.end_a()), 1u);
  EXPECT_EQ(retransmits_by(600 * kMillisecond, x.end_a()), 2u);
  EXPECT_EQ(sim.timer_fallbacks(), 0u);
  EXPECT_EQ(retransmits_by(900 * kMillisecond, y.end_a()), 0u);  // parked
  EXPECT_EQ(sim.timer_fallbacks(), 1u);  // x's 1400 ms RTO, demoted
  EXPECT_EQ(retransmits_by(1010 * kMillisecond - 1, y.end_a()), 0u);
  EXPECT_EQ(sim.timer_fallbacks(), 1u);  // y's thaw re-arm joins the list
  EXPECT_EQ(retransmits_by(1010 * kMillisecond, y.end_a()), 1u);
  EXPECT_EQ(retransmits_by(1400 * kMillisecond - 1, x.end_a()), 2u);
  EXPECT_EQ(retransmits_by(1400 * kMillisecond, x.end_a()), 3u);
  // Latency plus 140 bytes on the wire at 1 GB/s.
  EXPECT_EQ(y_delivered,
            (std::vector<sim::Time>{1010 * kMillisecond +
                                    100 * sim::kMicrosecond + 140}));
  EXPECT_EQ(y.end_a().unacked(), 0u);
  EXPECT_EQ(sim.timer_fallbacks(), 1u);
  EXPECT_EQ(sim.timer_arms(), 7u);  // x: 4; y: 900, 1010 and 1410 ms
}

// Property sweep: exactly-once in-order delivery under loss x seed.
class LossSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(LossSweep, ExactlyOnceInOrderUnderLoss) {
  const auto [loss, seed] = GetParam();
  ReliableConfig cfg;
  cfg.max_retries = 14;
  ChannelFixture f(loss, cfg, seed);
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;
  constexpr int kMessages = 120;
  // Spread sends over time so reordering between retransmits can happen.
  for (int i = 0; i < kMessages; ++i) {
    f.sim.schedule_after(i * 3 * sim::kMillisecond,
                         [&f, i] { f.a.send(32, i); });
  }
  f.sim.run();
  ASSERT_FALSE(f.a.failed()) << "loss=" << loss << " seed=" << seed;
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[i].tag, static_cast<std::uint32_t>(i));
    EXPECT_EQ(got[i].id, static_cast<std::uint64_t>(i) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, LossSweep,
    ::testing::Combine(::testing::Values(0.0, 0.02, 0.1, 0.3),
                       ::testing::Values(1ull, 17ull, 4242ull)));

// Property sweep: exactly-once in-order delivery survives arbitrary
// freeze/thaw patterns on both hosts (checkpoint cuts at random times),
// as long as the transport's retry budget is generous enough.
class FreezeChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FreezeChaos, ExactlyOnceThroughRandomCuts) {
  ReliableConfig cfg;
  cfg.max_retries = 30;  // patience >> any freeze in this test
  ChannelFixture f(/*loss=*/0.05, cfg, GetParam());
  sim::Rng rng(GetParam() ^ 0xF5EE);
  Inbox inbox(f.b, f.sim);
  const std::vector<Message>& got = inbox.got;

  constexpr int kMessages = 80;
  for (int i = 0; i < kMessages; ++i) {
    f.sim.schedule_after(i * 50 * sim::kMillisecond,
                         [&f, i] { f.a.send(64, i); });
  }
  // Random freeze/thaw pulses on both hosts over the send window.
  sim::Time t = 0;
  for (int pulse = 0; pulse < 12; ++pulse) {
    t += rng.exponential_duration(400 * sim::kMillisecond);
    const net::HostId victim = rng.chance(0.5) ? f.a_host : f.b_host;
    const sim::Duration down =
        rng.exponential_duration(500 * sim::kMillisecond);
    f.sim.schedule_at(t, [&f, victim] { f.net.set_host_up(victim, false); });
    f.sim.schedule_at(t + down,
                      [&f, victim] { f.net.set_host_up(victim, true); });
    t += down;
  }
  f.sim.run();
  ASSERT_FALSE(f.a.failed()) << "seed=" << GetParam();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[i].tag, static_cast<std::uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreezeChaos,
                         ::testing::Values(1, 7, 23, 77, 123, 999, 5150,
                                           31337));

}  // namespace
}  // namespace dvc::net
