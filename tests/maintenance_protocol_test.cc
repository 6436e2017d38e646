// Tests for the distributed Section-6 maintenance protocol: behavior on
// hand-built scenarios, invariant under random replay, and agreement with
// the centralized MaintenanceSession accounting model.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/elink.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "data/plume.h"
#include "data/synthetic.h"
#include "sim/topology.h"

namespace elink {
namespace {

std::shared_ptr<const DistanceMetric> OneDim() {
  return std::make_shared<WeightedEuclidean>(WeightedEuclidean::Euclidean(1));
}

/// 1x4 path, clusters {0,1} (root 0) and {2,3} (root 2).
struct PathFixture {
  Topology topology = MakeGridTopology(1, 4);
  Clustering clustering;
  std::vector<Feature> features = {{0.0}, {0.0}, {10.0}, {10.0}};

  PathFixture() { clustering.root_of = {0, 0, 2, 2}; }

  DistributedMaintenance Make(double delta, double slack) {
    MaintenanceConfig cfg;
    cfg.delta = delta;
    cfg.slack = slack;
    return DistributedMaintenance(topology, clustering, features, OneDim(),
                                  cfg);
  }
};

TEST(MaintenanceProtocolTest, SilentUpdateSendsNothing) {
  PathFixture fx;
  DistributedMaintenance m = fx.Make(4.0, 1.0);
  m.ApplyUpdate(1, {0.5});  // A1 holds.
  EXPECT_EQ(m.stats().total_units(), 0u);
  EXPECT_EQ(m.CurrentClustering().root_of, fx.clustering.root_of);
}

TEST(MaintenanceProtocolTest, EscalationFetchesRootAndStays) {
  PathFixture fx;
  DistributedMaintenance m = fx.Make(4.0, 1.0);
  m.ApplyUpdate(1, {3.5});  // A1-A3 fail; live root still fits.
  EXPECT_GT(m.stats().units("update_escalate"), 0u);
  EXPECT_EQ(m.CurrentClustering().root_of[1], 0);
}

TEST(MaintenanceProtocolTest, DetachMergesWithNeighborCluster) {
  PathFixture fx;
  DistributedMaintenance m = fx.Make(4.0, 1.0);
  m.ApplyUpdate(1, {9.0});  // Too far from root 0; neighbor 2's cluster fits.
  EXPECT_EQ(m.CurrentClustering().root_of[1], 2);
  EXPECT_GT(m.stats().units("update_merge_probe"), 0u);
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(4.0 + 2.0).ok());
}

TEST(MaintenanceProtocolTest, DetachBecomesSingletonWhenNothingFits) {
  PathFixture fx;
  DistributedMaintenance m = fx.Make(4.0, 1.0);
  m.ApplyUpdate(1, {100.0});
  EXPECT_EQ(m.CurrentClustering().root_of[1], 1);
  EXPECT_EQ(m.CurrentClustering().num_clusters(), 3);
}

TEST(MaintenanceProtocolTest, RootPushEvictsFarMembers) {
  PathFixture fx;
  DistributedMaintenance m = fx.Make(4.0, 1.0);
  m.ApplyUpdate(0, {6.0});  // Root drifts; member 1 (at 0) is evicted.
  EXPECT_GT(m.stats().units("update_root_push"), 0u);
  const Clustering after = m.CurrentClustering();
  EXPECT_EQ(after.root_of[0], 0);
  EXPECT_EQ(after.root_of[1], 1);  // Singleton: no compatible neighbor.
}

TEST(MaintenanceProtocolTest, ArticulationDetachReattachesSubtree) {
  // Path 0-1-2, all one cluster rooted at 0; the middle node leaves.  Node 2
  // is orphaned and cannot reach the old cluster: it promotes itself.
  Topology t = MakeGridTopology(1, 3);
  Clustering c;
  c.root_of = {0, 0, 0};
  std::vector<Feature> f = {{0.0}, {0.0}, {0.0}};
  MaintenanceConfig cfg;
  cfg.delta = 2.0;
  cfg.slack = 0.5;
  DistributedMaintenance m(t, c, f, OneDim(), cfg);
  m.ApplyUpdate(1, {50.0});
  const Clustering after = m.CurrentClustering();
  EXPECT_EQ(after.root_of[1], 1);
  // Node 2's only route to root 0 went through node 1; it either reattached
  // through node 1's new cluster (incompatible here) or promoted itself.
  EXPECT_EQ(after.root_of[2], 2);
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(2.0 + 1.0).ok());
}

TEST(MaintenanceProtocolTest, InvariantUnderRandomReplay) {
  SyntheticConfig scfg;
  scfg.num_nodes = 80;
  scfg.seed = 301;
  const SensorDataset ds = std::move(MakeSyntheticDataset(scfg)).value();
  const double delta = 0.35 * FeatureDiameter(ds);
  const double slack = 0.1 * delta;
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.slack = slack;
  ecfg.seed = 5;
  const ElinkResult base =
      std::move(RunElink(ds, ecfg, ElinkMode::kImplicit)).value();

  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = slack;
  DistributedMaintenance protocol(ds.topology, base.clustering, ds.features,
                                  ds.metric, mcfg);
  Rng rng(909);
  std::vector<Feature> current = ds.features;
  for (int round = 0; round < 15; ++round) {
    for (int i = 0; i < 80; ++i) {
      current[i][0] += rng.Normal(0.0, 0.03 * delta);
      protocol.ApplyUpdate(i, current[i]);
    }
  }
  EXPECT_TRUE(protocol.ValidateRootDistanceInvariant(delta + 2 * slack).ok());
  EXPECT_EQ(protocol.CurrentFeatures(), current);
}

TEST(MaintenanceProtocolTest, TracksCentralizedModelOnSameReplay) {
  // Same update stream through the protocol and the accounting session:
  // cluster counts must stay close and costs within a small factor (the
  // protocol pays extra attach/orphan traffic; the session charges ideal
  // tree hops).
  SyntheticConfig scfg;
  scfg.num_nodes = 100;
  scfg.seed = 302;
  const SensorDataset ds = std::move(MakeSyntheticDataset(scfg)).value();
  const double delta = 0.35 * FeatureDiameter(ds);
  const double slack = 0.08 * delta;
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.slack = slack;
  ecfg.seed = 6;
  const ElinkResult base =
      std::move(RunElink(ds, ecfg, ElinkMode::kImplicit)).value();

  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = slack;
  DistributedMaintenance protocol(ds.topology, base.clustering, ds.features,
                                  ds.metric, mcfg);
  MaintenanceSession session(ds.topology, base.clustering, ds.features,
                             ds.metric, mcfg);
  Rng rng(911);
  std::vector<Feature> current = ds.features;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 100; ++i) {
      current[i][0] += rng.Normal(0.0, 0.04 * delta);
      protocol.ApplyUpdate(i, current[i]);
      session.UpdateFeature(i, current[i]);
    }
  }
  const int protocol_clusters = protocol.CurrentClustering().num_clusters();
  const int session_clusters = session.clustering().num_clusters();
  EXPECT_LE(std::abs(protocol_clusters - session_clusters),
            std::max(3, session_clusters / 3));
  const double ratio =
      static_cast<double>(protocol.stats().total_units() + 1) /
      static_cast<double>(session.stats().total_units() + 1);
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
}

TEST(MaintenanceProtocolTest, PlumeEpisodeKeepsInvariant) {
  // The moving-plume workload drives heavy membership churn; the protocol
  // must hold the invariant throughout.
  PlumeConfig pcfg;
  pcfg.num_nodes = 120;
  pcfg.radio_range_fraction = 0.14;
  const SensorDataset ds = std::move(MakePlumeDataset(pcfg)).value();
  const double delta = 0.3 * FeatureDiameter(ds);
  const double slack = 0.1 * delta;
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.slack = slack;
  ecfg.seed = 8;
  const ElinkResult base =
      std::move(RunElink(ds, ecfg, ElinkMode::kImplicit)).value();
  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = slack;
  DistributedMaintenance protocol(ds.topology, base.clustering, ds.features,
                                  ds.metric, mcfg);
  for (int step = 0; step < 20; ++step) {
    for (int i = 0; i < 120; ++i) {
      protocol.ApplyUpdate(i, {ds.streams[i][step]});
    }
    ASSERT_TRUE(
        protocol.ValidateRootDistanceInvariant(delta + 2 * slack).ok())
        << "step " << step;
  }
}

// -- Churn-aware self-healing -----------------------------------------------

TEST(MaintenanceChurnTest, CrashRepairRejoinsAndBumpsEpochs) {
  // Path 0-1-2-3, clusters {0,1} and {2,3}.  Node 3 crashes and is later
  // repaired: it must rejoin a valid cluster with its restart counted, the
  // membership change must bump a cluster epoch, and every transmission
  // lost along the way must be accounted as a churn drop.
  PathFixture fx;
  MaintenanceConfig cfg;
  cfg.delta = 4.0;
  cfg.slack = 1.0;
  ChurnPlan churn;
  churn.crashes.push_back({3, 5.0, 20.0});
  DistributedMaintenance m(fx.topology, fx.clustering, fx.features, OneDim(),
                           cfg, /*synchronous=*/true, /*seed=*/1, FaultPlan{},
                           churn);
  m.RunToQuiescence();
  EXPECT_TRUE(m.NodeLive(3));
  EXPECT_EQ(m.node_epoch(3), 1);
  EXPECT_GE(m.cluster_epoch(3), 1);
  // Back with its old peer (either side may end up the root: the repair is
  // a mutual-probe race settled by the staggered retry).
  const Clustering after = m.CurrentClustering();
  EXPECT_EQ(after.root_of[3], after.root_of[2]);
  EXPECT_TRUE(after.root_of[3] == 2 || after.root_of[3] == 3);
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(4.0 + 2.0).ok());
  EXPECT_EQ(m.stats().dropped_sends(), m.churn_drops());
}

TEST(MaintenanceChurnTest, ParentLeaveOrphansAndPromotes) {
  // Path 0-1-2, one cluster rooted at 0.  The middle node leaves for good:
  // node 2 loses its only route to the root and must promote itself.
  Topology t = MakeGridTopology(1, 3);
  Clustering c;
  c.root_of = {0, 0, 0};
  std::vector<Feature> f = {{0.0}, {0.0}, {0.0}};
  MaintenanceConfig cfg;
  cfg.delta = 2.0;
  ChurnPlan churn;
  churn.leaves.push_back({1, 5.0});
  DistributedMaintenance m(t, c, f, OneDim(), cfg, /*synchronous=*/true,
                           /*seed=*/1, FaultPlan{}, churn);
  m.RunToQuiescence();
  EXPECT_FALSE(m.NodeLive(1));
  const Clustering after = m.CurrentClustering();
  EXPECT_EQ(after.root_of[0], 0);
  EXPECT_EQ(after.root_of[2], 2);
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(2.0).ok());
}

TEST(MaintenanceChurnTest, LinkCutSplitsCluster) {
  // Path 0-1-2-3, one cluster rooted at 0.  Churn severs the 1-2 edge: the
  // far half can no longer reach the root and must re-cluster on its own,
  // while the near half keeps its tree.
  Topology t = MakeGridTopology(1, 4);
  Clustering c;
  c.root_of = {0, 0, 0, 0};
  std::vector<Feature> f = {{0.0}, {0.0}, {0.0}, {0.0}};
  MaintenanceConfig cfg;
  cfg.delta = 2.0;
  ChurnPlan churn;
  churn.link_changes.push_back({1, 2, 5.0, /*add=*/false});
  DistributedMaintenance m(t, c, f, OneDim(), cfg, /*synchronous=*/true,
                           /*seed=*/1, FaultPlan{}, churn);
  m.RunToQuiescence();
  const Clustering after = m.CurrentClustering();
  EXPECT_EQ(after.root_of[0], 0);
  EXPECT_EQ(after.root_of[1], 0);
  EXPECT_EQ(after.root_of[2], after.root_of[3]);
  EXPECT_TRUE(after.root_of[2] == 2 || after.root_of[2] == 3);
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(2.0).ok());
  const auto live_adj = m.LiveAdjacency();
  EXPECT_EQ(live_adj[1], std::vector<int>{0});
  EXPECT_EQ(live_adj[2], std::vector<int>{3});
}

TEST(MaintenanceChurnTest, LateJoinFindsAHome) {
  // Node 3 is absent from the start and joins at t = 5 with a compatible
  // feature: it must probe its way into the adjacent cluster.
  PathFixture fx;
  MaintenanceConfig cfg;
  cfg.delta = 4.0;
  ChurnPlan churn;
  churn.joins.push_back({3, 5.0});
  DistributedMaintenance m(fx.topology, fx.clustering, fx.features, OneDim(),
                           cfg, /*synchronous=*/true, /*seed=*/1, FaultPlan{},
                           churn);
  m.RunToQuiescence();
  EXPECT_TRUE(m.NodeLive(3));
  const Clustering after = m.CurrentClustering();
  EXPECT_EQ(after.root_of[3], after.root_of[2]);
  EXPECT_TRUE(after.root_of[3] == 2 || after.root_of[3] == 3);
  EXPECT_EQ(m.node_epoch(3), 1);
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(4.0).ok());
}

TEST(MaintenanceChurnTest, InertPlanMatchesChurnFreeRun) {
  // A default ChurnPlan must leave the protocol bit-identical to a session
  // built without one: same messages, same outcome.
  PathFixture fx;
  DistributedMaintenance plain = fx.Make(4.0, 1.0);
  MaintenanceConfig cfg;
  cfg.delta = 4.0;
  cfg.slack = 1.0;
  DistributedMaintenance inert(fx.topology, fx.clustering, fx.features,
                               OneDim(), cfg, /*synchronous=*/true, /*seed=*/1,
                               FaultPlan{}, ChurnPlan{});
  for (DistributedMaintenance* m : {&plain, &inert}) {
    m->ApplyUpdate(1, {9.0});
    m->ApplyUpdate(0, {6.0});
  }
  EXPECT_EQ(plain.CurrentClustering().root_of, inert.CurrentClustering().root_of);
  EXPECT_EQ(plain.stats().total_units(), inert.stats().total_units());
  EXPECT_EQ(inert.churn_drops(), 0u);
}

TEST(MaintenanceChurnTest, CappedDrainIsAnErrorAndResumes) {
  // The crash at t = 5 is the first event; the repair at t = 20 is still
  // queued when a one-event drain stops, so the drain must fail, not
  // return as if the session had gone quiet.
  PathFixture fx;
  MaintenanceConfig cfg;
  cfg.delta = 4.0;
  cfg.slack = 1.0;
  ChurnPlan churn;
  churn.crashes.push_back({3, 5.0, 20.0});
  DistributedMaintenance m(fx.topology, fx.clustering, fx.features, OneDim(),
                           cfg, /*synchronous=*/true, /*seed=*/1, FaultPlan{},
                           churn);
  const Status capped = m.RunToQuiescence(/*max_events=*/1);
  EXPECT_EQ(capped.code(), StatusCode::kInternal);
  EXPECT_FALSE(m.NodeLive(3));
  // The session stays usable: an uncapped drain finishes the repair.
  EXPECT_TRUE(m.RunToQuiescence().ok());
  EXPECT_TRUE(m.NodeLive(3));
  EXPECT_EQ(m.CurrentClustering().root_of[3], m.CurrentClustering().root_of[2]);
  EXPECT_TRUE(m.ApplyUpdate(1, {0.5}).ok());
  EXPECT_TRUE(m.ValidateRootDistanceInvariant(4.0 + 2.0).ok());
}

}  // namespace
}  // namespace elink
