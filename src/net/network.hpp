#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::net {

/// Identifier of a network attachment point (a physical node's NIC or a
/// virtual machine's virtual NIC — the fabric does not care which).
using HostId = std::uint32_t;

inline constexpr HostId kInvalidHost = 0xffffffffu;

/// A (host, port) endpoint address.
struct Address {
  HostId host = kInvalidHost;
  std::uint16_t port = 0;

  friend bool operator==(const Address&, const Address&) = default;
};

/// Wire packet. The simulator is metadata-only: packets carry sizes and
/// protocol fields, never real payload bytes.
struct Packet {
  enum class Kind : std::uint8_t {
    kData,      ///< reliable-channel data segment
    kAck,       ///< reliable-channel cumulative acknowledgement
    kDatagram,  ///< fire-and-forget control datagram
  };

  Address src;
  Address dst;
  Kind kind = Kind::kDatagram;
  std::uint64_t seq = 0;       ///< data: segment sequence number
  std::uint64_t ack = 0;       ///< ack: cumulative acknowledged sequence
  std::uint32_t size_bytes = 0;
  std::uint64_t msg_id = 0;    ///< application message identity
  std::uint32_t tag = 0;       ///< application tag (MPI-style)
  /// Incarnation of the sending endpoint. Bumped on every whole-cluster
  /// rollback (the restored VC gets a fresh virtual network namespace), so
  /// packets still in flight from a pre-rollback incarnation are ignored
  /// by restored endpoints instead of corrupting their sequence space.
  std::uint32_t epoch = 0;
};

/// Per-pair delay/loss/bandwidth model. Implementations must be
/// deterministic given the supplied Rng.
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// Propagation + queueing latency for one packet (excluding serialisation).
  [[nodiscard]] virtual sim::Duration latency(HostId src, HostId dst,
                                              sim::Rng& rng) = 0;

  /// Independent drop probability for one packet.
  [[nodiscard]] virtual double loss_probability(HostId src, HostId dst) = 0;

  /// Link bandwidth in bytes per second (serialisation delay component).
  [[nodiscard]] virtual double bandwidth_bps(HostId src, HostId dst) = 0;

  /// Declares which physical cluster a host belongs to. Topology-blind
  /// models ignore this; tiered models use it to pick the right tier (and
  /// to apply fault-injector pair overrides) for guest vNICs, which are
  /// allocated after the physical hosts and follow their VM around.
  virtual void set_cluster(HostId /*host*/, std::uint32_t /*cluster*/) {}
};

/// Uniform fabric: every pair of hosts sees the same base latency, jitter,
/// loss rate and bandwidth. Good enough for single-switch clusters.
class FlatLinkModel final : public LinkModel {
 public:
  struct Config {
    sim::Duration base_latency = 50 * sim::kMicrosecond;
    sim::Duration jitter = 20 * sim::kMicrosecond;  ///< exponential mean
    double loss = 0.0;
    double bandwidth_bps = 125e6;  ///< 1 Gbit/s in bytes/s
  };

  explicit FlatLinkModel(Config cfg) noexcept : cfg_(cfg) {}

  [[nodiscard]] sim::Duration latency(HostId, HostId,
                                      sim::Rng& rng) override {
    return cfg_.base_latency + rng.exponential_duration(cfg_.jitter);
  }
  [[nodiscard]] double loss_probability(HostId, HostId) override {
    return cfg_.loss;
  }
  [[nodiscard]] double bandwidth_bps(HostId, HostId) override {
    return cfg_.bandwidth_bps;
  }

 private:
  Config cfg_;
};

/// Two-tier fabric: hosts belong to clusters; intra-cluster pairs see LAN
/// parameters, inter-cluster pairs see WAN parameters. This models the
/// paper's multi-cluster campus fabric.
class ClusterLinkModel final : public LinkModel {
 public:
  struct Tier {
    sim::Duration base_latency;
    sim::Duration jitter;
    double loss;
    double bandwidth_bps;
  };
  struct Config {
    Tier intra{50 * sim::kMicrosecond, 20 * sim::kMicrosecond, 0.0, 125e6};
    Tier inter{1 * sim::kMillisecond, 300 * sim::kMicrosecond, 0.0, 12.5e6};
  };

  /// Transient fault state for one cluster pair (set by the fault
  /// injector): a cut link drops everything; a degraded one adds loss and
  /// inflates latency. Cleared when the fault lifts.
  struct PairOverride {
    bool cut = false;
    double extra_loss = 0.0;
    double latency_factor = 1.0;
  };

  explicit ClusterLinkModel(Config cfg) noexcept : cfg_(cfg) {}

  /// Declares which cluster a host belongs to (default: cluster 0).
  void set_cluster(HostId host, std::uint32_t cluster) override {
    if (host >= cluster_of_.size()) cluster_of_.resize(host + 1, 0);
    cluster_of_[host] = cluster;
  }
  [[nodiscard]] std::uint32_t cluster_of(HostId host) const {
    return host < cluster_of_.size() ? cluster_of_[host] : 0;
  }

  /// Symmetric override: applies to traffic in both directions between the
  /// two clusters (the common whole-link fault).
  void set_pair_override(std::uint32_t cluster_a, std::uint32_t cluster_b,
                         PairOverride o) {
    overrides_[directed_key(cluster_a, cluster_b)] = o;
    overrides_[directed_key(cluster_b, cluster_a)] = o;
  }
  void clear_pair_override(std::uint32_t cluster_a, std::uint32_t cluster_b) {
    overrides_.erase(directed_key(cluster_a, cluster_b));
    overrides_.erase(directed_key(cluster_b, cluster_a));
  }

  /// Directional override: applies only to traffic flowing `from` -> `to`.
  /// Models one-way faults (a dying transceiver, asymmetric routing loss);
  /// the reverse direction keeps its own independent state.
  void set_directed_override(std::uint32_t from, std::uint32_t to,
                             PairOverride o) {
    overrides_[directed_key(from, to)] = o;
  }
  void clear_directed_override(std::uint32_t from, std::uint32_t to) {
    overrides_.erase(directed_key(from, to));
  }

  [[nodiscard]] sim::Duration latency(HostId src, HostId dst,
                                      sim::Rng& rng) override {
    const Tier& t = tier(src, dst);
    sim::Duration d = t.base_latency + rng.exponential_duration(t.jitter);
    if (const PairOverride* o = find_override(src, dst)) {
      d = static_cast<sim::Duration>(static_cast<double>(d) *
                                     o->latency_factor);
    }
    return d;
  }
  [[nodiscard]] double loss_probability(HostId src, HostId dst) override {
    double loss = tier(src, dst).loss;
    if (const PairOverride* o = find_override(src, dst)) {
      if (o->cut) return 1.0;
      loss = loss + o->extra_loss;
      if (loss > 1.0) loss = 1.0;
    }
    return loss;
  }
  [[nodiscard]] double bandwidth_bps(HostId src, HostId dst) override {
    return tier(src, dst).bandwidth_bps;
  }

 private:
  [[nodiscard]] static std::uint64_t directed_key(std::uint32_t from,
                                                  std::uint32_t to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  [[nodiscard]] const Tier& tier(HostId src, HostId dst) const {
    return cluster_of(src) == cluster_of(dst) ? cfg_.intra : cfg_.inter;
  }

  [[nodiscard]] const PairOverride* find_override(HostId src,
                                                  HostId dst) const {
    if (overrides_.empty()) return nullptr;
    const auto it =
        overrides_.find(directed_key(cluster_of(src), cluster_of(dst)));
    return it == overrides_.end() ? nullptr : &it->second;
  }

  Config cfg_;
  /// Indexed by HostId (hosts are allocated densely by Network).
  std::vector<std::uint32_t> cluster_of_;
  std::unordered_map<std::uint64_t, PairOverride> overrides_;
};

/// Receives packets addressed to an attached endpoint, and hears its host
/// come back up: Network::set_host_up calls on_host_up() on every sink
/// bound to the host, in port order, when the host goes from down to up.
/// That is how a thawed guest's transport resumes retransmission the moment
/// the guest runs again, without polling.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(const Packet& p) = 0;
  virtual void on_host_up() {}
};

/// The simulated fabric: attaches endpoints, applies the link model, and
/// enforces host liveness — packets to or from a down host are dropped,
/// which is exactly how a suspended Xen domain behaves on the wire.
class Network final {
 public:
  Network(sim::Simulation& sim, std::shared_ptr<LinkModel> link,
          sim::Rng rng)
      : sim_(&sim), link_(std::move(link)), rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Allocates a new attachment point, initially up.
  [[nodiscard]] HostId new_host();

  /// Marks a host up (running) or down (paused / saved / failed). A
  /// down -> up transition calls on_host_up() on each sink bound to the
  /// host, in port order; a sink may attach or detach while it runs.
  void set_host_up(HostId host, bool up);
  [[nodiscard]] bool host_up(HostId host) const;

  /// Binds a sink to an address. The address's host must exist.
  void attach(const Address& addr, PacketSink* sink);
  void detach(const Address& addr);

  /// Injects a packet. Returns false if the source host is down (the packet
  /// is silently not sent, as a frozen guest cannot transmit).
  ///
  /// Each host's egress link serialises its packets: a burst of sends from
  /// one host departs back-to-back at the link bandwidth instead of in
  /// parallel. This is what makes a flat broadcast cost O(P x bytes/bw)
  /// and a binomial tree O(log P x bytes/bw).
  bool send(const Packet& p);

  [[nodiscard]] LinkModel& link_model() noexcept { return *link_; }

  /// Attaches an optional metrics registry (null to detach). The fabric-
  /// level packet/byte counters are cached as raw instrument pointers so
  /// the per-packet cost is one branch + increment.
  void set_metrics(telemetry::MetricsRegistry* m);
  [[nodiscard]] telemetry::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

  /// The `net.endpoint.*` counters, shared by every ReliableEndpoint on
  /// this fabric and resolved against metrics() on first use.
  struct EndpointInstruments {
    telemetry::CounterHandle stalls{"net.endpoint.stalls"};
    telemetry::CounterHandle retransmissions{"net.endpoint.retransmissions"};
    telemetry::CounterHandle aborts{"net.endpoint.aborts"};
    telemetry::CounterHandle duplicates{"net.endpoint.duplicates"};
  };
  [[nodiscard]] EndpointInstruments& endpoint_instruments() noexcept {
    return endpoint_instruments_;
  }

 private:
  /// Delivers the in-flight packet parked in pool slot `slot`.
  void deliver(std::uint32_t slot);

  sim::Simulation* sim_;
  std::shared_ptr<LinkModel> link_;
  sim::Rng rng_;
  std::vector<bool> up_;
  std::vector<sim::Time> egress_free_;  ///< per-host link-idle instant
  /// Bound sinks, indexed [host][port]; a row grows to its highest bound
  /// port (MpiJob binds port = peer rank, so rows stay short and dense).
  /// Null, or a port past the row's end, is a closed port.
  std::vector<std::vector<PacketSink*>> sinks_;
  // In-flight packets, so the delivery event captures a pool index (and
  // fits the kernel's inline closure store) instead of a whole Packet.
  std::vector<Packet> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* packets_sent_c_ = nullptr;
  telemetry::Counter* bytes_sent_c_ = nullptr;
  telemetry::Counter* packets_delivered_c_ = nullptr;
  telemetry::Counter* packets_lost_c_ = nullptr;
  telemetry::Counter* packets_dark_c_ = nullptr;
  EndpointInstruments endpoint_instruments_;
};

}  // namespace dvc::net
