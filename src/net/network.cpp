#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dvc::net {

HostId Network::new_host() {
  const HostId id = static_cast<HostId>(up_.size());
  up_.push_back(true);
  egress_free_.push_back(0);
  sinks_.emplace_back();
  return id;
}

void Network::set_host_up(HostId host, bool up) {
  if (host >= up_.size()) throw std::out_of_range("unknown host");
  if (up_[host] == up) return;
  up_[host] = up;
  if (!up) return;
  // By index, re-reading the row: a sink may attach or detach meanwhile.
  for (std::size_t port = 0; port < sinks_[host].size(); ++port) {
    if (PacketSink* const sink = sinks_[host][port]) sink->on_host_up();
  }
}

bool Network::host_up(HostId host) const {
  return host < up_.size() && up_[host];
}

void Network::attach(const Address& addr, PacketSink* sink) {
  if (addr.host >= up_.size()) throw std::out_of_range("unknown host");
  if (sink == nullptr) throw std::invalid_argument("null sink");
  std::vector<PacketSink*>& row = sinks_[addr.host];
  if (addr.port >= row.size()) row.resize(addr.port + std::size_t{1});
  row[addr.port] = sink;
}

void Network::detach(const Address& addr) {
  if (addr.host >= sinks_.size()) return;
  std::vector<PacketSink*>& row = sinks_[addr.host];
  if (addr.port < row.size()) row[addr.port] = nullptr;
}

void Network::set_metrics(telemetry::MetricsRegistry* m) {
  metrics_ = m;
  if (m == nullptr) {
    packets_sent_c_ = bytes_sent_c_ = packets_delivered_c_ =
        packets_lost_c_ = packets_dark_c_ = nullptr;
    return;
  }
  packets_sent_c_ = &m->counter("net.network.packets_sent");
  bytes_sent_c_ = &m->counter("net.network.bytes_sent");
  packets_delivered_c_ = &m->counter("net.network.packets_delivered");
  packets_lost_c_ = &m->counter("net.network.packets_lost_wire");
  packets_dark_c_ = &m->counter("net.network.packets_dropped_dark");
}

bool Network::send(const Packet& p) {
  if (!host_up(p.src.host)) return false;
  if (packets_sent_c_ != nullptr) {
    packets_sent_c_->add();
    bytes_sent_c_->add(p.size_bytes);
  }
  const double bw = link_->bandwidth_bps(p.src.host, p.dst.host);
  const auto serialisation = static_cast<sim::Duration>(
      static_cast<double>(p.size_bytes) / bw * sim::kSecond);
  // Serialise on the sender's egress link: back-to-back departures.
  const sim::Time depart =
      std::max(sim_->now(), egress_free_[p.src.host]) + serialisation;
  egress_free_[p.src.host] = depart;
  if (rng_.chance(link_->loss_probability(p.src.host, p.dst.host))) {
    if (packets_lost_c_ != nullptr) packets_lost_c_->add();
    return true;  // occupied the wire, then died on it
  }
  const sim::Time arrive =
      depart + link_->latency(p.src.host, p.dst.host, rng_);
  if (free_in_flight_.empty()) {
    free_in_flight_.push_back(static_cast<std::uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const std::uint32_t slot = free_in_flight_.back();
  free_in_flight_.pop_back();
  in_flight_[slot] = p;
  const auto delivery = [this, slot] { deliver(slot); };
  static_assert(sim::Simulation::stores_inline<decltype(delivery)>);
  sim_->schedule_at(arrive, delivery);
  return true;
}

void Network::deliver(std::uint32_t slot) {
  // Copy out and free the slot first: on_packet may send (and so grow or
  // reuse the pool) before it returns.
  const Packet p = in_flight_[slot];
  free_in_flight_.push_back(slot);
  // A packet reaching a paused/saved/failed host is lost: the virtual NIC
  // is not consuming its ring, so nothing is ACKed (paper §3, scenario 1).
  if (!host_up(p.dst.host)) {
    if (packets_dark_c_ != nullptr) packets_dark_c_->add();
    return;
  }
  // host_up() implies the host exists, so its row does too.
  const std::vector<PacketSink*>& row = sinks_[p.dst.host];
  PacketSink* const sink = p.dst.port < row.size() ? row[p.dst.port] : nullptr;
  if (sink == nullptr) return;  // no listener: dropped like a closed port
  if (packets_delivered_c_ != nullptr) packets_delivered_c_->add();
  sink->on_packet(p);
}

}  // namespace dvc::net
