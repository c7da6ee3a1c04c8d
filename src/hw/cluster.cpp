#include "hw/cluster.hpp"

#include <stdexcept>
#include <utility>

namespace dvc::hw {

Fabric::Fabric(sim::Simulation& sim, Config cfg)
    : sim_(&sim),
      rng_(cfg.seed),
      links_(std::make_shared<net::ClusterLinkModel>(cfg.links)),
      network_(std::make_unique<net::Network>(sim, links_,
                                              rng_.fork(0xFAB))) {}

ClusterId Fabric::add_cluster(std::string name, std::size_t count,
                              NodeSpec spec) {
  const auto cid = static_cast<ClusterId>(clusters_.size());
  PhysicalCluster c;
  c.id = cid;
  c.name = std::move(name);
  c.nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto nid = static_cast<NodeId>(nodes_.size());
    const net::HostId host = network_->new_host();
    links_->set_cluster(host, cid);
    nodes_.push_back(std::make_unique<PhysicalNode>(nid, cid, spec, host));
    c.nodes.push_back(nid);
  }
  clusters_.push_back(std::move(c));
  return cid;
}

std::vector<NodeId> Fabric::healthy_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (!n->failed()) out.push_back(n->id());
  }
  return out;
}

std::vector<NodeId> Fabric::healthy_nodes(ClusterId c) const {
  std::vector<NodeId> out;
  for (const NodeId n : clusters_.at(c).nodes) {
    if (!nodes_[n]->failed()) out.push_back(n);
  }
  return out;
}

std::optional<std::vector<NodeId>> Fabric::place(
    std::uint32_t count, const std::function<bool(NodeId)>& usable,
    ClusterId home, bool allow_span) const {
  std::vector<ClusterId> order;
  if (!clusters_.empty()) order.push_back(home);
  for (ClusterId c = 0; c < clusters_.size(); ++c) {
    if (c != home) order.push_back(c);
  }
  std::vector<std::vector<NodeId>> avail;
  avail.reserve(order.size());
  for (const ClusterId c : order) {
    std::vector<NodeId> in_c;
    for (const NodeId n : clusters_.at(c).nodes) {
      if (!nodes_[n]->failed() && usable(n)) in_c.push_back(n);
    }
    if (in_c.size() >= count) {
      in_c.resize(count);
      return in_c;
    }
    avail.push_back(std::move(in_c));
  }
  if (!allow_span) return std::nullopt;
  std::vector<NodeId> spanned;
  for (const auto& in_c : avail) {
    for (const NodeId n : in_c) {
      if (spanned.size() == count) return spanned;
      spanned.push_back(n);
    }
  }
  if (spanned.size() < count) return std::nullopt;
  return spanned;
}

bool Fabric::spans_clusters(const std::vector<NodeId>& nodes) const {
  if (nodes.empty() || nodes.front() == kInvalidNode) return false;
  const ClusterId first = node(nodes.front()).cluster();
  for (const NodeId n : nodes) {
    if (n != kInvalidNode && node(n).cluster() != first) return true;
  }
  return false;
}

void Fabric::hold(Holder holder, const std::vector<NodeId>& nodes,
                  std::uint64_t id) {
  for (const NodeId n : nodes) {
    if (n != kInvalidNode) nodes_.at(n)->holder(holder) = id;
  }
}

void Fabric::release(Holder holder, const std::vector<NodeId>& nodes,
                     std::uint64_t id) {
  for (const NodeId n : nodes) {
    if (n == kInvalidNode) continue;
    std::uint64_t& held_by = nodes_.at(n)->holder(holder);
    if (held_by == id) held_by = 0;
  }
}

void Fabric::fail_node(NodeId n) {
  PhysicalNode& node = *nodes_.at(n);
  if (node.failed_) return;
  node.failed_ = true;
  node.condemned_ = false;  // the sentence has been carried out
  network_->set_host_up(node.host(), false);
  ++failures_injected_;
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kError, "fabric",
             "node" + std::to_string(n) + " failed");
  // Copy: an observer may subscribe further observers while running.
  const auto observers = failure_observers_;
  for (const auto& fn : observers) fn(n);
}

void Fabric::repair_node(NodeId n) {
  PhysicalNode& node = *nodes_.at(n);
  if (!node.failed_) return;
  node.failed_ = false;
  network_->set_host_up(node.host(), true);
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kInfo, "fabric",
             "node" + std::to_string(n) + " repaired");
}

void Fabric::predict_failure(NodeId node, sim::Duration lead) {
  // A dead node has nothing left to predict; condemning it would outlive
  // its repair, and the delayed fail_node could kill the repaired node.
  if (nodes_.at(node)->failed()) return;
  ++failures_predicted_;
  nodes_.at(node)->condemned_ = true;
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "fabric",
             "node" + std::to_string(node) + " predicted to fail in " +
                 std::to_string(lead / sim::kSecond) + "s");
  const auto observers = prediction_observers_;
  for (const auto& fn : observers) fn(node, lead);
  sim_->schedule_after(lead, [this, node] {
    if (!nodes_.at(node)->failed()) fail_node(node);
  });
}

void Fabric::arm_random_failures(sim::Duration mtbf_per_node,
                                 double predicted_fraction,
                                 sim::Duration prediction_lead) {
  if (mtbf_per_node <= 0) throw std::invalid_argument("mtbf must be > 0");
  for (const auto& n : nodes_) {
    arm_node_failure(n->id(), mtbf_per_node, predicted_fraction,
                     prediction_lead);
  }
}

void Fabric::arm_node_failure(NodeId n, sim::Duration mtbf,
                              double predicted_fraction,
                              sim::Duration prediction_lead) {
  const sim::Duration dt = rng_.exponential_duration(mtbf);
  // The failure process is background housekeeping (daemon): it must not
  // keep an otherwise-finished simulation running forever.
  sim_->schedule_daemon_after(dt, [this, n, mtbf, predicted_fraction,
                                   prediction_lead] {
    if (!nodes_.at(n)->failed()) {
      if (predicted_fraction > 0.0 && prediction_lead > 0 &&
          rng_.chance(predicted_fraction)) {
        predict_failure(n, prediction_lead);
      } else {
        fail_node(n);
      }
    }
    arm_node_failure(n, mtbf, predicted_fraction, prediction_lead);
  });
}

}  // namespace dvc::hw
