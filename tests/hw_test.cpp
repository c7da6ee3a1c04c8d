#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "hw/cluster.hpp"
#include "sim/simulation.hpp"

namespace dvc::hw {
namespace {

TEST(FabricTest, BuildsClustersWithSequentialNodeIds) {
  sim::Simulation s;
  Fabric f(s, {});
  const ClusterId c0 = f.add_cluster("alpha", 3);
  const ClusterId c1 = f.add_cluster("beta", 2);
  EXPECT_EQ(c0, 0u);
  EXPECT_EQ(c1, 1u);
  EXPECT_EQ(f.node_count(), 5u);
  EXPECT_EQ(f.cluster(c0).nodes, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(f.cluster(c1).nodes, (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(f.cluster(c1).name, "beta");
  EXPECT_EQ(f.node(3).cluster(), c1);
}

TEST(FabricTest, NodeSpecIsApplied) {
  sim::Simulation s;
  Fabric f(s, {});
  NodeSpec spec;
  spec.flops = 5e9;
  spec.ram_bytes = 8ull << 30;
  f.add_cluster("a", 1, spec);
  EXPECT_DOUBLE_EQ(f.node(0).spec().flops, 5e9);
  EXPECT_EQ(f.node(0).spec().ram_bytes, 8ull << 30);
}

TEST(FabricTest, EachNodeHasDistinctNetworkHost) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 4);
  EXPECT_NE(f.node(0).host(), f.node(1).host());
  EXPECT_TRUE(f.network().host_up(f.node(3).host()));
}

TEST(FabricTest, FailTakesNodeOffFabricAndNotifies) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 3);
  std::vector<NodeId> failures;
  f.subscribe_failures([&](NodeId n) { failures.push_back(n); });
  f.fail_node(1);
  EXPECT_TRUE(f.node(1).failed());
  EXPECT_FALSE(f.network().host_up(f.node(1).host()));
  EXPECT_EQ(failures, (std::vector<NodeId>{1}));
  EXPECT_EQ(f.healthy_nodes(), (std::vector<NodeId>{0, 2}));
  // Double-fail is idempotent.
  f.fail_node(1);
  EXPECT_EQ(failures.size(), 1u);
  EXPECT_EQ(f.failures_injected(), 1u);
}

TEST(FabricTest, RepairRestoresNode) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 2);
  f.fail_node(0);
  f.repair_node(0);
  EXPECT_FALSE(f.node(0).failed());
  EXPECT_TRUE(f.network().host_up(f.node(0).host()));
  EXPECT_EQ(f.healthy_nodes().size(), 2u);
}

TEST(FabricTest, LedgerReleasesOnlyForTheHolder) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 3);
  f.hold(Holder::kJob, {0, 1, kInvalidNode}, 7);
  f.hold(Holder::kVc, {1, 2}, 3);
  EXPECT_EQ(f.node(0).job(), 7u);
  EXPECT_EQ(f.node(1).vc(), 3u);
  // A release by a non-holder is a no-op, on either layer.
  f.release(Holder::kJob, {0, 1}, 8);
  f.release(Holder::kVc, {0, 1, 2}, 4);
  EXPECT_EQ(f.node(0).job(), 7u);
  EXPECT_EQ(f.node(1).job(), 7u);
  EXPECT_EQ(f.node(1).vc(), 3u);
  EXPECT_EQ(f.node(2).vc(), 3u);
  // A node is free to the scheduler only once neither field is set.
  f.release(Holder::kJob, {0, 1}, 7);
  EXPECT_FALSE(f.node(0).held());
  EXPECT_TRUE(f.node(1).held());  // its VC still holds it
  EXPECT_TRUE(f.node(2).held());  // a VC with no job
  f.release(Holder::kVc, {1, 2}, 3);
  EXPECT_FALSE(f.node(1).held());
  EXPECT_FALSE(f.node(2).held());
}

TEST(FabricTest, HealthyNodesPerCluster) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 2);
  f.add_cluster("b", 2);
  f.fail_node(2);
  EXPECT_EQ(f.healthy_nodes(0).size(), 2u);
  EXPECT_EQ(f.healthy_nodes(1), (std::vector<NodeId>{3}));
}

TEST(FabricTest, PlacePacksHomeFirstThenSpansInTheSameOrder) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 3);  // nodes 0..2
  f.add_cluster("b", 3);  // nodes 3..5
  f.add_cluster("c", 3);  // nodes 6..8
  f.fail_node(7);
  const auto any = [](NodeId) { return true; };
  const auto not_3_or_4 = [](NodeId n) { return n != 3 && n != 4; };
  // Packs into the home cluster, else the first other cluster with room.
  EXPECT_EQ(f.place(3, any, 1), (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(f.place(3, not_3_or_4, 1), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(f.place(2, any, 2), (std::vector<NodeId>{6, 8}));
  // Spans home first, then the others in id order; never a failed node.
  EXPECT_EQ(f.place(4, not_3_or_4, 2), (std::vector<NodeId>{6, 8, 0, 1}));
  EXPECT_EQ(f.place(4, not_3_or_4, 2, /*allow_span=*/false), std::nullopt);
  EXPECT_EQ(f.place(9, any), std::nullopt);
}

TEST(FabricTest, SpansClustersIgnoresUnplacedSlots) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 2);
  f.add_cluster("b", 2);
  EXPECT_FALSE(f.spans_clusters({}));
  EXPECT_FALSE(f.spans_clusters({0, kInvalidNode, 1}));
  EXPECT_TRUE(f.spans_clusters({0, kInvalidNode, 2}));
}

TEST(FabricTest, RandomFailuresFollowMtbf) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 50);
  f.arm_random_failures(100 * sim::kHour);
  s.run_until(10 * sim::kHour);
  // Expected failures ~ 50 nodes * 10h / 100h = 5.
  EXPECT_GT(f.failures_injected(), 0u);
  EXPECT_LT(f.failures_injected(), 20u);
  EXPECT_THROW(f.arm_random_failures(0), std::invalid_argument);
}

TEST(FabricTest, PredictionsFireBeforeTheFault) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 3);
  std::vector<std::pair<NodeId, sim::Duration>> predictions;
  f.subscribe_predictions([&](NodeId n, sim::Duration lead) {
    predictions.push_back({n, lead});
  });
  f.predict_failure(1, 30 * sim::kSecond);
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(predictions[0].first, 1u);
  EXPECT_EQ(predictions[0].second, 30 * sim::kSecond);
  EXPECT_FALSE(f.node(1).failed());  // warning only, so far
  s.run_until(29 * sim::kSecond);
  EXPECT_FALSE(f.node(1).failed());
  s.run_until(31 * sim::kSecond);
  EXPECT_TRUE(f.node(1).failed());
  EXPECT_EQ(f.failures_predicted(), 1u);
}

TEST(FabricTest, PredictingADeadNodeIsANoOp) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 3);
  int predictions = 0;
  f.subscribe_predictions([&](NodeId, sim::Duration) { ++predictions; });
  f.fail_node(1);
  f.predict_failure(1, 30 * sim::kSecond);
  s.run_until(10 * sim::kSecond);
  f.repair_node(1);
  EXPECT_FALSE(f.node(1).condemned());
  s.run_until(60 * sim::kSecond);
  EXPECT_FALSE(f.node(1).failed());  // no delayed failure was scheduled
  EXPECT_FALSE(f.node(1).condemned());
  EXPECT_EQ(predictions, 0);
  EXPECT_EQ(f.failures_predicted(), 0u);
  EXPECT_EQ(f.failures_injected(), 1u);
}

TEST(FabricTest, RandomFailuresCanBePartiallyPredicted) {
  sim::Simulation s;
  Fabric f(s, {});
  f.add_cluster("a", 40);
  int predictions = 0;
  f.subscribe_predictions([&](NodeId, sim::Duration) { ++predictions; });
  f.arm_random_failures(50 * sim::kHour, /*predicted_fraction=*/0.5,
                        /*prediction_lead=*/60 * sim::kSecond);
  s.run_until(20 * sim::kHour);
  EXPECT_GT(f.failures_injected(), 0u);
  EXPECT_GT(predictions, 0);
  EXPECT_LT(static_cast<std::uint64_t>(predictions),
            f.failures_injected() + 1);
}

TEST(FabricTest, LinkModelRoutesIntraVsInterCluster) {
  sim::Simulation s;
  Fabric::Config cfg;
  cfg.links.intra = {10 * sim::kMicrosecond, 0, 0.0, 1e9};
  cfg.links.inter = {5 * sim::kMillisecond, 0, 0.0, 1e7};
  Fabric f(s, cfg);
  f.add_cluster("a", 2);
  f.add_cluster("b", 1);
  sim::Rng rng(1);
  EXPECT_EQ(f.links().latency(f.node(0).host(), f.node(1).host(), rng),
            10 * sim::kMicrosecond);
  EXPECT_EQ(f.links().latency(f.node(0).host(), f.node(2).host(), rng),
            5 * sim::kMillisecond);
}

}  // namespace
}  // namespace dvc::hw
