#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace dvc::hw {

/// Identifier of a physical node within a Fabric.
using NodeId = std::uint32_t;
/// Identifier of a physical cluster within a Fabric.
using ClusterId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Static capability of a physical node.
struct NodeSpec {
  double flops = 10e9;                       ///< sustained FLOP/s per node
  std::uint64_t ram_bytes = 4ull << 30;      ///< 4 GiB
};

/// The layer holding a node: rm::Scheduler's job or a DvcManager VC.
enum class Holder : std::uint8_t { kJob, kVc };

/// A physical compute node: a capability spec, a network attachment point,
/// a liveness bit, and its row of the node ledger (who holds it). Node
/// failure is permanent until repaired. Only Fabric writes the row.
class PhysicalNode final {
 public:
  PhysicalNode(NodeId id, ClusterId cluster, NodeSpec spec,
               net::HostId host) noexcept
      : id_(id), cluster_(cluster), spec_(spec), host_(host) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] ClusterId cluster() const noexcept { return cluster_; }
  [[nodiscard]] const NodeSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] net::HostId host() const noexcept { return host_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// A failure prediction is pending: up, but nothing should move here.
  [[nodiscard]] bool condemned() const noexcept { return condemned_; }
  /// The job the scheduler allocated this node to (0 = none).
  [[nodiscard]] std::uint64_t job() const noexcept { return job_; }
  /// The VC whose member DvcManager placed here (0 = none).
  [[nodiscard]] std::uint64_t vc() const noexcept { return vc_; }
  /// Held by either layer: the scheduler allocates only unheld nodes.
  [[nodiscard]] bool held() const noexcept { return job_ != 0 || vc_ != 0; }

 private:
  friend class Fabric;
  std::uint64_t& holder(Holder h) noexcept {
    return h == Holder::kJob ? job_ : vc_;
  }
  NodeId id_;
  ClusterId cluster_;
  NodeSpec spec_;
  net::HostId host_;
  bool failed_ = false;
  bool condemned_ = false;
  std::uint64_t job_ = 0;
  std::uint64_t vc_ = 0;
};

/// A named group of nodes behind one switch.
struct PhysicalCluster {
  ClusterId id = 0;
  std::string name;
  std::vector<NodeId> nodes;
};

/// The machine room: clusters of physical nodes joined by a two-tier
/// network fabric, plus failure injection. This substitutes for the paper's
/// ASU multi-cluster testbed.
class Fabric final {
 public:
  struct Config {
    net::ClusterLinkModel::Config links;
    std::uint64_t seed = 1;
  };

  Fabric(sim::Simulation& sim, Config cfg);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Adds a cluster of `count` identical nodes. Returns its id.
  ClusterId add_cluster(std::string name, std::size_t count,
                        NodeSpec spec = {});

  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return clusters_.size();
  }
  [[nodiscard]] const PhysicalCluster& cluster(ClusterId c) const {
    return clusters_.at(c);
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const PhysicalNode& node(NodeId n) const {
    return *nodes_.at(n);
  }

  /// All currently healthy node ids, optionally restricted to one cluster.
  [[nodiscard]] std::vector<NodeId> healthy_nodes() const;
  [[nodiscard]] std::vector<NodeId> healthy_nodes(ClusterId c) const;

  /// Chooses `count` healthy nodes that satisfy `usable` — the remapping
  /// decision of figure 1. All come from the first cluster with enough,
  /// trying `home` first and then the others in id order; failing that,
  /// and if `allow_span`, the first `count` across clusters in that same
  /// order. Nullopt if none fits.
  [[nodiscard]] std::optional<std::vector<NodeId>> place(
      std::uint32_t count, const std::function<bool(NodeId)>& usable,
      ClusterId home = 0, bool allow_span = true) const;

  /// True if `nodes` come from more than one physical cluster (unplaced
  /// kInvalidNode slots are ignored after the first).
  [[nodiscard]] bool spans_clusters(const std::vector<NodeId>& nodes) const;

  /// The node ledger's only writer: `holder` `id` (non-zero) takes every
  /// valid node of `nodes`, displacing any previous holder of that layer.
  void hold(Holder holder, const std::vector<NodeId>& nodes, std::uint64_t id);
  /// Gives back those of `nodes` that `holder` `id` holds; a node another
  /// id holds is left alone.
  void release(Holder holder, const std::vector<NodeId>& nodes,
               std::uint64_t id);

  /// Marks a node failed: its NIC goes dark and observers are notified
  /// (hypervisor kills resident VMs, scheduler stops placing work on it).
  void fail_node(NodeId n);
  /// Returns a failed node to service.
  void repair_node(NodeId n);

  /// Registers an observer called with the id of every node that fails.
  void subscribe_failures(std::function<void(NodeId)> fn) {
    failure_observers_.push_back(std::move(fn));
  }

  /// Registers an observer of failure *predictions*: called with the node
  /// and the warning lead time before the fault actually strikes. This
  /// models ECC/SMART/fan-speed style health monitoring — the paper's §1
  /// "avoidance of job failure when hardware faults can be predicted".
  void subscribe_predictions(
      std::function<void(NodeId, sim::Duration lead)> fn) {
    prediction_observers_.push_back(std::move(fn));
  }

  /// Announces that `node` will fail in `lead` from now (observers fire
  /// immediately; the failure itself is scheduled). Until it dies, the
  /// node is `condemned()` — still up, but nothing should move onto it.
  /// A no-op on a node that has already failed.
  void predict_failure(NodeId node, sim::Duration lead);

  /// Arms an exponential (memoryless) failure process on every node with
  /// the given mean time between failures. Each firing fails one node; the
  /// process re-arms, so multiple failures can occur over a long run.
  ///
  /// A fraction `predicted_fraction` of faults announce themselves
  /// `prediction_lead` ahead of time through the prediction feed.
  void arm_random_failures(sim::Duration mtbf_per_node,
                           double predicted_fraction = 0.0,
                           sim::Duration prediction_lead = 0);

  [[nodiscard]] sim::Simulation& simulation() noexcept { return *sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] net::ClusterLinkModel& links() noexcept { return *links_; }

  /// Attaches an optional structured trace sink (null to detach).
  void set_trace(sim::TraceLog* log) noexcept { trace_ = log; }

  [[nodiscard]] std::uint64_t failures_injected() const noexcept {
    return failures_injected_;
  }
  [[nodiscard]] std::uint64_t failures_predicted() const noexcept {
    return failures_predicted_;
  }

 private:
  void arm_node_failure(NodeId n, sim::Duration mtbf,
                        double predicted_fraction,
                        sim::Duration prediction_lead);

  sim::Simulation* sim_;
  sim::Rng rng_;
  std::shared_ptr<net::ClusterLinkModel> links_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<PhysicalNode>> nodes_;
  std::vector<PhysicalCluster> clusters_;
  std::vector<std::function<void(NodeId)>> failure_observers_;
  std::vector<std::function<void(NodeId, sim::Duration)>>
      prediction_observers_;
  std::uint64_t failures_injected_ = 0;
  std::uint64_t failures_predicted_ = 0;
  sim::TraceLog* trace_ = nullptr;
};

}  // namespace dvc::hw
