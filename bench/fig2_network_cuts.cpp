// F2 — the paper's figure 2 and §3 scenarios: which cuts of the network
// state are consistent? A message (scenario 1) or its ACK (scenario 2) is
// in flight when the guests freeze. With a reliable transport the cut is
// always recoverable (retransmit / re-ACK); with an unreliable transport
// the same cuts lose the message — the inconsistent case of figure 2.

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "bench_util.hpp"
#include "ckpt/ledger.hpp"
#include "net/network.hpp"
#include "net/reliable_channel.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace dvc;          // NOLINT
using namespace dvc::bench;   // NOLINT

struct CutOutcome {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  bool consistent = false;
};

/// Simple unreliable messenger: one datagram per message, no retransmit.
class Datagrams final : public net::PacketSink {
 public:
  Datagrams(net::Network& net, net::Address local, net::Address peer)
      : net_(&net), local_(local), peer_(peer) {
    net.attach(local, this);
  }
  ~Datagrams() override { net_->detach(local_); }

  void send(std::uint64_t msg_id) {
    net::Packet p;
    p.src = local_;
    p.dst = peer_;
    p.kind = net::Packet::Kind::kDatagram;
    p.msg_id = msg_id;
    p.size_bytes = 1024;
    net_->send(p);
  }

  std::uint64_t received = 0;
  std::uint64_t last_msg = 0;

 private:
  void on_packet(const net::Packet& p) override {
    ++received;
    last_msg = p.msg_id;
  }

  net::Network* net_;
  net::Address local_;
  net::Address peer_;
};

/// The receiving side of a reliable connection: books every message its
/// endpoint delivers as 0 -> 1 in a ledger the sender's sends also go to.
struct LedgerSink final : net::MessageSink {
  void on_message(const net::ReliableEndpoint& /*ep*/,
                  const net::Message& m) override {
    ledger.record_delivery(0, 1, m.id);
  }
  void on_abort(const net::ReliableEndpoint& /*ep*/,
                std::string_view /*why*/) override {}

  ckpt::MessageLedger ledger;
};

/// Runs one cut scenario. `cut_after_delivery` false = scenario 1 (data in
/// flight across the cut), true = scenario 2 (delivered; ACK in flight).
CutOutcome run_reliable(bool cut_after_delivery) {
  sim::Simulation sim;
  auto link = std::make_shared<net::FlatLinkModel>(
      net::FlatLinkModel::Config{100 * sim::kMicrosecond, 0, 0.0, 1e9});
  net::Network net(sim, link, sim::Rng(1));
  const net::HostId ha = net.new_host();
  const net::HostId hb = net.new_host();
  net::ReliableConnection conn(sim, net, {ha, 1}, {hb, 1});
  net::ReliableEndpoint& a = conn.end_a();
  net::ReliableEndpoint& b = conn.end_b();
  LedgerSink rx;
  b.set_sink(&rx);
  ckpt::MessageLedger& ledger = rx.ledger;

  const std::uint64_t id = a.send(1024);
  ledger.record_send(0, 1, id);
  if (cut_after_delivery) {
    // Scenario 2: the data is on the wire; freezing the sender NOW means
    // the receiver's ACK finds a dark NIC and is lost across the cut.
    net.set_host_up(ha, false);
    sim.schedule_after(5 * sim::kMillisecond,
                       [&] { net.set_host_up(hb, false); });
  } else {
    // Scenario 1: freeze the receiver before the packet lands; freeze the
    // sender a few ms later (coordinated checkpoint).
    net.set_host_up(hb, false);
    sim.schedule_after(5 * sim::kMillisecond,
                       [&] { net.set_host_up(ha, false); });
  }
  // Restore both sides of the cut much later.
  sim.schedule_after(2 * sim::kMinute, [&] {
    net.set_host_up(ha, true);
    net.set_host_up(hb, true);
  });
  sim.run();

  CutOutcome out;
  out.sent = ledger.total_sent();
  out.delivered = ledger.total_delivered();
  out.duplicates = b.duplicates_discarded();
  out.consistent = ledger.check().consistent && !a.failed() && !b.failed();
  return out;
}

CutOutcome run_unreliable(bool cut_after_delivery) {
  sim::Simulation sim;
  auto link = std::make_shared<net::FlatLinkModel>(
      net::FlatLinkModel::Config{100 * sim::kMicrosecond, 0, 0.0, 1e9});
  net::Network net(sim, link, sim::Rng(1));
  const net::HostId ha = net.new_host();
  const net::HostId hb = net.new_host();
  Datagrams a(net, {ha, 1}, {hb, 1});
  Datagrams b(net, {hb, 1}, {ha, 1});

  a.send(1);
  if (!cut_after_delivery) {
    net.set_host_up(hb, false);  // the datagram dies with the dark NIC
  }
  sim.schedule_after(5 * sim::kMillisecond, [&] {
    net.set_host_up(ha, false);
    net.set_host_up(hb, false);
  });
  sim.schedule_after(2 * sim::kMinute, [&] {
    net.set_host_up(ha, true);
    net.set_host_up(hb, true);
  });
  sim.run();

  CutOutcome out;
  out.sent = 1;
  out.delivered = b.received;
  out.duplicates = 0;
  out.consistent = b.received == 1;  // nothing retransmits a lost datagram
  return out;
}

/// Scenario 3 (partition fault class): the inter-cluster link partitions
/// with the message in flight. No NIC goes dark — the packet dies on the
/// wire. The partition heals 10 s later, inside the transport retry
/// budget, so the reliable transport masks it by retransmitting across
/// the healed link; the datagram is simply gone.
CutOutcome run_partition(bool reliable_transport) {
  sim::Simulation sim;
  auto link = std::make_shared<net::ClusterLinkModel>(
      net::ClusterLinkModel::Config{});
  net::Network net(sim, link, sim::Rng(1));
  const net::HostId ha = net.new_host();
  const net::HostId hb = net.new_host();
  link->set_cluster(hb, 1);

  link->set_pair_override(0, 1, {.cut = true});
  sim.schedule_after(10 * sim::kSecond,
                     [&] { link->clear_pair_override(0, 1); });

  CutOutcome out;
  if (reliable_transport) {
    net::ReliableConnection conn(sim, net, {ha, 1}, {hb, 1});
    net::ReliableEndpoint& a = conn.end_a();
    net::ReliableEndpoint& b = conn.end_b();
    LedgerSink rx;
    b.set_sink(&rx);
    ckpt::MessageLedger& ledger = rx.ledger;
    const std::uint64_t id = a.send(1024);
    ledger.record_send(0, 1, id);
    sim.run();
    out.sent = ledger.total_sent();
    out.delivered = ledger.total_delivered();
    out.duplicates = b.duplicates_discarded();
    out.consistent = ledger.check().consistent && !a.failed() && !b.failed();
  } else {
    Datagrams a(net, {ha, 1}, {hb, 1});
    Datagrams b(net, {hb, 1}, {ha, 1});
    a.send(1);
    sim.run();
    out.sent = 1;
    out.delivered = b.received;
    out.consistent = b.received == 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  reject_arguments(argc, argv);
  std::printf("F2: consistent vs. inconsistent cuts of network state\n");
  std::printf("    (paper fig. 2 + the two §3 recovery scenarios)\n");

  TextTable table({"cut scenario", "transport", "sent", "delivered",
                   "dup discarded", "cut consistent"});

  struct Case {
    const char* scenario;
    bool after_delivery;
    bool reliable;
  };
  const Case cases[] = {
      {"1: data in flight", false, true},
      {"1: data in flight", false, false},
      {"2: ACK in flight", true, true},
      {"2: ACK in flight", true, false},
  };
  const auto add = [&](const char* scenario, bool reliable,
                       const CutOutcome& out) {
    table.add_row({scenario, reliable ? "reliable (TCP)" : "datagram",
                   std::to_string(out.sent), std::to_string(out.delivered),
                   std::to_string(out.duplicates),
                   out.consistent ? "yes" : "NO (lost)"});
  };
  for (const Case& c : cases) {
    add(c.scenario, c.reliable,
        c.reliable ? run_reliable(c.after_delivery)
                   : run_unreliable(c.after_delivery));
  }
  // Scenario 3 exercises the partition fault class instead of dark NICs.
  for (const bool reliable : {true, false}) {
    add("3: 10 s partition", reliable, run_partition(reliable));
  }
  table.print("F2  cut consistency by transport");

  return 0;
}
