#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::net {
namespace {

/// Test link with per-direction loss overrides and zero jitter, so
/// individual packets can be targeted deterministically.
class ScriptedLink final : public LinkModel {
 public:
  sim::Duration base_latency = 100 * sim::kMicrosecond;
  double bandwidth = 1e9;
  std::map<std::pair<HostId, HostId>, double> loss;

  sim::Duration latency(HostId, HostId, sim::Rng&) override {
    return base_latency;
  }
  double loss_probability(HostId s, HostId d) override {
    const auto it = loss.find({s, d});
    return it == loss.end() ? 0.0 : it->second;
  }
  double bandwidth_bps(HostId, HostId) override { return bandwidth; }
};

class Collector final : public PacketSink {
 public:
  std::vector<Packet> packets;
  void on_packet(const Packet& p) override { packets.push_back(p); }
};

struct NetFixture {
  NetFixture() { net.set_metrics(&metrics); }

  /// The fabric's packet counts, read off its registry.
  [[nodiscard]] std::uint64_t sent() const {
    return metrics.counter_value("net.network.packets_sent");
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return metrics.counter_value("net.network.packets_delivered");
  }
  /// Sent but never handed to a sink: lost on the wire, dark or unbound.
  [[nodiscard]] std::uint64_t dropped() const { return sent() - delivered(); }

  telemetry::MetricsRegistry metrics;
  sim::Simulation sim;
  std::shared_ptr<ScriptedLink> link = std::make_shared<ScriptedLink>();
  Network net{sim, link, sim::Rng(1)};
  HostId a = net.new_host();
  HostId b = net.new_host();
};

TEST(NetworkTest, DeliversDatagramToAttachedSink) {
  NetFixture f;
  Collector sink;
  f.net.attach({f.b, 7}, &sink);
  Packet p;
  p.src = {f.a, 1};
  p.dst = {f.b, 7};
  p.size_bytes = 100;
  EXPECT_TRUE(f.net.send(p));
  f.sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].size_bytes, 100u);
  EXPECT_EQ(f.delivered(), 1u);
}

TEST(NetworkTest, DeliveryDelayIsLatencyPlusSerialisation) {
  NetFixture f;
  f.link->base_latency = 1 * sim::kMillisecond;
  f.link->bandwidth = 1e6;  // bytes/s
  Collector sink;
  f.net.attach({f.b, 0}, &sink);
  Packet p;
  p.src = {f.a, 0};
  p.dst = {f.b, 0};
  p.size_bytes = 5000;  // 5 ms of serialisation at 1 MB/s
  f.net.send(p);
  f.sim.run();
  EXPECT_EQ(f.sim.now(), 6 * sim::kMillisecond);
}

TEST(NetworkTest, DownSourceCannotSend) {
  NetFixture f;
  Collector sink;
  f.net.attach({f.b, 0}, &sink);
  f.net.set_host_up(f.a, false);
  Packet p;
  p.src = {f.a, 0};
  p.dst = {f.b, 0};
  EXPECT_FALSE(f.net.send(p));
  f.sim.run();
  EXPECT_TRUE(sink.packets.empty());
}

TEST(NetworkTest, PacketToDownHostIsDropped) {
  NetFixture f;
  Collector sink;
  f.net.attach({f.b, 0}, &sink);
  Packet p;
  p.src = {f.a, 0};
  p.dst = {f.b, 0};
  f.net.send(p);
  f.net.set_host_up(f.b, false);  // goes down while the packet flies
  f.sim.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(f.dropped(), 1u);
}

TEST(NetworkTest, InFlightPacketFromNowDownSourceStillArrives) {
  // Once on the wire, a packet does not care what happens to its sender.
  NetFixture f;
  Collector sink;
  f.net.attach({f.b, 0}, &sink);
  Packet p;
  p.src = {f.a, 0};
  p.dst = {f.b, 0};
  f.net.send(p);
  f.net.set_host_up(f.a, false);
  f.sim.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(NetworkTest, LossDropsFraction) {
  NetFixture f;
  f.link->loss[{f.a, f.b}] = 0.5;
  Collector sink;
  f.net.attach({f.b, 0}, &sink);
  for (int i = 0; i < 2000; ++i) {
    Packet p;
    p.src = {f.a, 0};
    p.dst = {f.b, 0};
    f.net.send(p);
  }
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(sink.packets.size()), 1000.0, 80.0);
}

/// Logs its name when its host comes up, then runs `also` if set.
class ThawLog final : public PacketSink {
 public:
  ThawLog(std::vector<int>& log, int name) : log_(&log), name_(name) {}
  void on_packet(const Packet& /*p*/) override {}
  void on_host_up() override {
    log_->push_back(name_);
    if (also) also();
  }

  std::function<void()> also;

 private:
  std::vector<int>* log_;
  int name_;
};

TEST(NetworkTest, HostStateObserversFireOnTransitionOnly) {
  // A bound sink hears its host come up on a real down -> up transition
  // only: not when already up, not when going down.
  NetFixture f;
  std::vector<int> heard;
  ThawLog sink(heard, 1);
  f.net.attach({f.a, 0}, &sink);
  f.net.set_host_up(f.a, true);  // already up: no transition
  EXPECT_TRUE(heard.empty());
  f.net.set_host_up(f.a, false);
  f.net.set_host_up(f.a, false);  // going down tells no sink
  EXPECT_TRUE(heard.empty());
  f.net.set_host_up(f.a, true);
  EXPECT_EQ(heard, (std::vector<int>{1}));
  f.net.set_host_up(f.a, true);  // no transition
  EXPECT_EQ(heard, (std::vector<int>{1}));
}

TEST(NetworkTest, UnsubscribeStopsNotifications) {
  // A detached sink no longer hears its host come up.
  NetFixture f;
  std::vector<int> heard;
  ThawLog kept(heard, 1);
  ThawLog gone(heard, 2);
  f.net.attach({f.a, 1}, &kept);
  f.net.attach({f.a, 2}, &gone);
  f.net.set_host_up(f.a, false);
  f.net.set_host_up(f.a, true);
  EXPECT_EQ(heard, (std::vector<int>{1, 2}));
  heard.clear();
  f.net.detach({f.a, 2});
  f.net.set_host_up(f.a, false);
  f.net.set_host_up(f.a, true);
  EXPECT_EQ(heard, (std::vector<int>{1}));
}

TEST(NetworkTest, ObserversChangedDuringANotification) {
  // A sink may bind another while it hears: the row grows under the walk,
  // and a sink bound at a later port hears the same transition.
  NetFixture f;
  std::vector<int> heard;
  ThawLog p2(heard, 2);
  ThawLog p9(heard, 9);
  ThawLog p40(heard, 40);
  f.net.attach({f.a, 2}, &p2);
  f.net.attach({f.a, 9}, &p9);
  p2.also = [&] { f.net.attach({f.a, 40}, &p40); };
  f.net.set_host_up(f.a, false);
  f.net.set_host_up(f.a, true);
  EXPECT_EQ(heard, (std::vector<int>{2, 9, 40}));
  heard.clear();
  p2.also = nullptr;
  f.net.set_host_up(f.a, false);
  f.net.set_host_up(f.a, true);
  EXPECT_EQ(heard, (std::vector<int>{2, 9, 40}));
}

TEST(NetworkTest, SinksHearTheirHostComingUpInPortOrder) {
  NetFixture f;
  std::vector<int> heard;
  // Named by port, bound out of port order with unbound ports between.
  ThawLog p5(heard, 5);
  ThawLog p2(heard, 2);
  ThawLog p9(heard, 9);
  ThawLog on_b(heard, 100);
  f.net.attach({f.a, 5}, &p5);
  f.net.attach({f.a, 2}, &p2);
  f.net.attach({f.a, 9}, &p9);
  f.net.attach({f.b, 0}, &on_b);

  f.net.set_host_up(f.a, false);
  f.net.set_host_up(f.a, true);
  EXPECT_EQ(heard, (std::vector<int>{2, 5, 9}));

  // b's thaw reaches only b's sink.
  heard.clear();
  f.net.set_host_up(f.b, false);
  f.net.set_host_up(f.b, true);
  EXPECT_EQ(heard, (std::vector<int>{100}));
}

TEST(NetworkTest, UnknownHostThrows) {
  NetFixture f;
  EXPECT_THROW(f.net.set_host_up(999, false), std::out_of_range);
  Collector sink;
  EXPECT_THROW(f.net.attach({999, 0}, &sink), std::out_of_range);
  EXPECT_THROW(f.net.attach({f.a, 0}, nullptr), std::invalid_argument);
}

TEST(NetworkTest, DeliveryAfterDetachIsAClosedPortDrop) {
  NetFixture f;
  Collector sink;
  f.net.attach({f.b, 7}, &sink);
  Packet p;
  p.src = {f.a, 1};
  p.dst = {f.b, 7};
  ASSERT_TRUE(f.net.send(p));
  f.net.detach({f.b, 7});  // the packet is already on the wire
  f.sim.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(f.delivered(), 0u);
  EXPECT_EQ(f.dropped(), 1u);
  f.net.detach({f.b, 7});   // detaching twice is harmless
  f.net.detach({f.b, 900});  // as is a port that was never bound
}

TEST(NetworkTest, ReattachReplacesTheSink) {
  NetFixture f;
  Collector first;
  Collector second;
  f.net.attach({f.b, 3}, &first);
  f.net.attach({f.b, 3}, &second);
  Packet p;
  p.src = {f.a, 1};
  p.dst = {f.b, 3};
  ASSERT_TRUE(f.net.send(p));
  f.sim.run();
  EXPECT_TRUE(first.packets.empty());
  EXPECT_EQ(second.packets.size(), 1u);
}

TEST(NetworkTest, PortBeyondTheTableIsDropped) {
  NetFixture f;
  Collector sink;
  f.net.attach({f.b, 2}, &sink);
  Packet p;
  p.src = {f.a, 1};
  for (const std::uint16_t port : {3, 9, 65535}) {
    p.dst = {f.b, port};
    ASSERT_TRUE(f.net.send(p));
  }
  p.dst = {f.a, 2};  // a host with no sinks at all
  ASSERT_TRUE(f.net.send(p));
  f.sim.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(f.delivered(), 0u);
  EXPECT_EQ(f.dropped(), 4u);
  // The highest port still binds and delivers.
  f.net.attach({f.b, 65535}, &sink);
  p.dst = {f.b, 65535};
  ASSERT_TRUE(f.net.send(p));
  f.sim.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

/// Records every packet and echoes it back to its source from inside
/// on_packet, so deliveries reuse in-flight pool slots mid-delivery.
class Echo final : public PacketSink {
 public:
  Network* net = nullptr;
  std::vector<Packet> packets;
  void on_packet(const Packet& p) override {
    packets.push_back(p);
    Packet back = p;
    back.src = p.dst;
    back.dst = p.src;
    back.kind = Packet::Kind::kAck;
    back.ack = p.seq;
    net->send(back);
  }
};

Packet numbered(HostId src, HostId dst, std::uint64_t i) {
  Packet p;
  p.src = {src, 1};
  p.dst = {dst, 2};
  p.kind = Packet::Kind::kData;
  p.seq = i;
  p.size_bytes = 1000;
  p.msg_id = 1'000'000'000'000ull + i;
  p.tag = static_cast<std::uint32_t>(i * 3);
  p.epoch = static_cast<std::uint32_t>(i % 7);
  return p;
}

TEST(NetworkTest, InFlightPoolReuseKeepsEveryFieldAndOrder) {
  NetFixture f;
  const HostId dark = f.net.new_host();
  Echo echo;
  echo.net = &f.net;
  Collector acks;
  f.net.attach({f.b, 2}, &echo);
  f.net.attach({f.a, 1}, &acks);
  f.net.attach({dark, 2}, &acks);

  // Two waves; the second is sent while the first is half delivered, so
  // its packets land in recycled pool slots alongside live ones.
  constexpr std::uint64_t kWave = 500;
  for (std::uint64_t i = 0; i < kWave; ++i) {
    ASSERT_TRUE(f.net.send(numbered(f.a, f.b, i)));
  }
  f.sim.run_until(300 * sim::kMicrosecond);
  EXPECT_GT(echo.packets.size(), 0u);
  EXPECT_LT(echo.packets.size(), kWave);
  for (std::uint64_t i = kWave; i < 2 * kWave; ++i) {
    ASSERT_TRUE(f.net.send(numbered(f.a, f.b, i)));
  }
  f.net.set_host_up(dark, false);
  for (std::uint64_t i = 0; i < 50; ++i) {
    f.net.send(numbered(f.a, dark, i));
  }
  f.sim.run();

  ASSERT_EQ(echo.packets.size(), 2 * kWave);
  ASSERT_EQ(acks.packets.size(), 2 * kWave);
  for (std::uint64_t i = 0; i < 2 * kWave; ++i) {
    const Packet want = numbered(f.a, f.b, i);
    const Packet& got = echo.packets[i];
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.size_bytes, want.size_bytes);
    EXPECT_EQ(got.msg_id, want.msg_id);
    EXPECT_EQ(got.tag, want.tag);
    EXPECT_EQ(got.epoch, want.epoch);
    const Packet& ack = acks.packets[i];
    EXPECT_EQ(ack.kind, Packet::Kind::kAck);
    EXPECT_EQ(ack.ack, i);
    EXPECT_EQ(ack.msg_id, want.msg_id);
    EXPECT_EQ(ack.tag, want.tag);
    EXPECT_EQ(ack.epoch, want.epoch);
  }
  EXPECT_EQ(f.metrics.counter_value("net.network.packets_dropped_dark"), 50u);
  EXPECT_EQ(f.delivered(), 4 * kWave);
  EXPECT_EQ(f.dropped(), 50u);
}

TEST(ClusterLinkModelTest, IntraVsInterClusterTiers) {
  ClusterLinkModel::Config cfg;
  cfg.intra = {10 * sim::kMicrosecond, 0, 0.0, 1e9};
  cfg.inter = {2 * sim::kMillisecond, 0, 0.01, 1e7};
  ClusterLinkModel m(cfg);
  m.set_cluster(0, 0);
  m.set_cluster(1, 0);
  m.set_cluster(2, 1);
  sim::Rng rng(1);
  EXPECT_EQ(m.latency(0, 1, rng), 10 * sim::kMicrosecond);
  EXPECT_EQ(m.latency(0, 2, rng), 2 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(m.loss_probability(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.loss_probability(1, 2), 0.01);
  EXPECT_DOUBLE_EQ(m.bandwidth_bps(0, 2), 1e7);
  // Unmapped hosts default to cluster 0.
  EXPECT_EQ(m.latency(0, 99, rng), 10 * sim::kMicrosecond);
}

}  // namespace
}  // namespace dvc::net
