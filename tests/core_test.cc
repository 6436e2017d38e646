// Tests for the ClusteredSensorNetwork facade: end-to-end build, query
// exactness, maintenance behavior, and ledger consistency.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/synthetic.h"
#include "data/terrain.h"

namespace elink {
namespace {

SensorDataset TerrainDs() {
  TerrainConfig cfg;
  cfg.num_nodes = 200;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 3;
  return std::move(MakeTerrainDataset(cfg)).value();
}

ClusteredSensorNetwork::Options DefaultOptions(const SensorDataset& ds,
                                               double frac = 0.25) {
  ClusteredSensorNetwork::Options opts;
  opts.delta = frac * FeatureDiameter(ds);
  opts.slack = 0.1 * opts.delta;
  opts.seed = 5;
  return opts;
}

TEST(ClusteredNetworkTest, BuildProducesValidClustering) {
  const SensorDataset ds = TerrainDs();
  auto opts = DefaultOptions(ds);
  auto net = ClusteredSensorNetwork::Build(ds, opts);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  EXPECT_EQ(net.value()->num_nodes(), 200);
  EXPECT_GE(net.value()->num_clusters(), 1);
  EXPECT_TRUE(ValidateDeltaClustering(net.value()->clustering(),
                                      ds.topology.adjacency, ds.features,
                                      *ds.metric, opts.delta)
                  .ok());
  EXPECT_GT(net.value()->clustering_cost_units(), 0u);
}

TEST(ClusteredNetworkTest, RangeQueriesMatchScan) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Feature q = {rng.Uniform(175.0, 1996.0)};
    const double r = rng.Uniform(0.2, 1.0) * net.delta();
    const RangeQueryResult res =
        net.RangeQuery(static_cast<int>(rng.UniformInt(200)), q, r).value();
    std::vector<int> expected;
    for (int i = 0; i < 200; ++i) {
      if (ds.metric->Distance(ds.features[i], q) <= r + 1e-12) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(res.matches, expected);
  }
}

TEST(ClusteredNetworkTest, UpdatesKeepInvariantAndQueriesFollow) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(11);
  std::vector<Feature> current = ds.features;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      current[i][0] += rng.Normal(0.0, 3.0);
      net.UpdateFeature(i, current[i]);
    }
  }
  EXPECT_TRUE(net.ValidateInvariant().ok());
  // Queries now answer against the *updated* features.
  const Feature q = current[42];
  const RangeQueryResult res =
      net.RangeQuery(0, q, 0.5 * net.delta()).value();
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    if (ds.metric->Distance(current[i], q) <= 0.5 * net.delta() + 1e-12) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(res.matches, expected);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(net.feature(i), current[i]);
  }
}

TEST(ClusteredNetworkTest, SafePathAgreesWithSafety) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int src = static_cast<int>(rng.UniformInt(200));
    const int dst = static_cast<int>(rng.UniformInt(200));
    const Feature danger = {rng.Uniform(175.0, 1996.0)};
    const double gamma = rng.Uniform(0.05, 0.3) * FeatureDiameter(ds);
    const PathQueryResult res =
        net.SafePath(src, dst, danger, gamma).value();
    if (res.found) {
      EXPECT_EQ(res.path.front(), src);
      EXPECT_EQ(res.path.back(), dst);
      for (int node : res.path) {
        EXPECT_GE(ds.metric->Distance(ds.features[node], danger),
                  gamma - 1e-9);
      }
    }
  }
}

TEST(ClusteredNetworkTest, DistributedQueriesMatchEngines) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  Rng rng(19);
  for (int trial = 0; trial < 5; ++trial) {
    const Feature q = {rng.Uniform(175.0, 1996.0)};
    const double r = rng.Uniform(0.2, 1.0) * net.delta();
    const int initiator = static_cast<int>(rng.UniformInt(200));
    const RangeQueryResult engine = net.RangeQuery(initiator, q, r).value();
    auto dist = net.RangeQueryDistributed(initiator, q, r);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(dist.value().match_count,
              static_cast<long long>(engine.matches.size()));
  }
  for (int trial = 0; trial < 5; ++trial) {
    const int src = static_cast<int>(rng.UniformInt(200));
    const int dst = static_cast<int>(rng.UniformInt(200));
    const Feature danger = {rng.Uniform(175.0, 1996.0)};
    const double gamma = rng.Uniform(0.05, 0.3) * FeatureDiameter(ds);
    const PathQueryResult engine =
        net.SafePath(src, dst, danger, gamma).value();
    auto dist = net.SafePathDistributed(src, dst, danger, gamma);
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(dist.value().found, engine.found);
    EXPECT_EQ(dist.value().path, engine.path);
  }
}

TEST(ClusteredNetworkTest, LedgerAccumulatesAcrossPhases) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  const uint64_t after_build = net.total_stats().total_units();
  EXPECT_GE(after_build, net.clustering_cost_units());
  ASSERT_TRUE(net.RangeQuery(0, ds.features[0], 0.5 * net.delta()).ok());
  EXPECT_GT(net.total_stats().total_units(), after_build);
}

TEST(ClusteredNetworkTest, ExplicitAsynchronousBuild) {
  SyntheticConfig scfg;
  scfg.num_nodes = 120;
  scfg.seed = 17;
  const SensorDataset ds = std::move(MakeSyntheticDataset(scfg)).value();
  ClusteredSensorNetwork::Options opts;
  opts.delta = 0.3 * FeatureDiameter(ds);
  opts.mode = ElinkMode::kExplicit;
  opts.synchronous = false;
  auto net = ClusteredSensorNetwork::Build(ds, opts);
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(ValidateDeltaClustering(net.value()->clustering(),
                                      ds.topology.adjacency, ds.features,
                                      *ds.metric, opts.delta)
                  .ok());
}

TEST(ClusteredNetworkTest, EngineQueriesRejectWhatTheProtocolsReject) {
  const SensorDataset ds = TerrainDs();
  auto net_r = ClusteredSensorNetwork::Build(ds, DefaultOptions(ds));
  ASSERT_TRUE(net_r.ok());
  auto& net = *net_r.value();
  const Feature q = ds.features[0];
  const Feature wrong_dim = {1.0, 2.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Feature nan_q = {nan};
  const Feature inf_q = {inf};
  const uint64_t units = net.total_stats().total_units();
  for (const Status& s :
       {net.RangeQuery(0, wrong_dim, 1.0).status(),
        net.RangeQuery(-1, q, 1.0).status(),
        net.RangeQuery(200, q, 1.0).status(),
        net.RangeQuery(0, q, -1.0).status(),
        net.RangeQuery(0, q, nan).status(),
        net.RangeQuery(0, nan_q, 1.0).status(),
        net.RangeQuery(0, inf_q, 1.0).status(),
        net.SafePath(0, 1, wrong_dim, 1.0).status(),
        net.SafePath(-1, 1, q, 1.0).status(),
        net.SafePath(0, 200, q, 1.0).status(),
        net.SafePath(0, 1, q, -1.0).status(),
        net.SafePath(0, 1, q, nan).status(),
        net.SafePath(0, 1, nan_q, 1.0).status(),
        net.SafePath(0, 1, inf_q, 1.0).status()}) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
  // A refused query sends nothing.
  EXPECT_EQ(net.total_stats().total_units(), units);
  // The distributed runs refuse the same arguments.
  for (const Status& s :
       {net.RangeQueryDistributed(0, wrong_dim, 1.0).status(),
        net.RangeQueryDistributed(0, q, nan).status(),
        net.RangeQueryDistributed(0, nan_q, 1.0).status(),
        net.RangeQueryDistributed(0, inf_q, 1.0).status(),
        net.SafePathDistributed(0, 1, q, -1.0).status(),
        net.SafePathDistributed(0, 1, q, nan).status(),
        net.SafePathDistributed(0, 1, nan_q, 1.0).status(),
        net.SafePathDistributed(0, 1, inf_q, 1.0).status()}) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
  EXPECT_EQ(net.total_stats().total_units(), units);
}

// Both used to reach MaintenanceSession's constructor checks and abort.
TEST(ClusteredNetworkTest, RejectsNegativeSlackAndNanDelta) {
  const SensorDataset ds = TerrainDs();
  ClusteredSensorNetwork::Options negative_slack = DefaultOptions(ds);
  negative_slack.slack = -10.0;
  ClusteredSensorNetwork::Options nan_delta = DefaultOptions(ds);
  nan_delta.delta = std::numeric_limits<double>::quiet_NaN();
  for (const auto& opts : {negative_slack, nan_delta}) {
    auto net = ClusteredSensorNetwork::Build(ds, opts);
    ASSERT_FALSE(net.ok());
    EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ClusteredNetworkTest, RejectsDatasetWithoutMetric) {
  SensorDataset ds;
  ds.topology = MakeGridTopology(2, 2);
  ds.features = {{0.0}, {0.0}, {0.0}, {0.0}};
  ClusteredSensorNetwork::Options opts;
  EXPECT_FALSE(ClusteredSensorNetwork::Build(ds, opts).ok());
}

}  // namespace
}  // namespace elink
