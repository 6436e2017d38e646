// Tests for src/index: M-tree invariants, backbone structure, range-query
// exactness + pruning, the upper index, path-query safety, and the TAG
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>

#include "baselines/centralized_cost.h"
#include "cluster/elink.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "data/tao.h"
#include "data/terrain.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "index/range_query.h"
#include "index/tag.h"
#include "sim/topology.h"

namespace elink {
namespace {

/// Everything needed to query one clustered dataset.
struct QueryFixture {
  SensorDataset ds;
  Clustering clustering;
  std::vector<int> tree_parent;
  std::unique_ptr<ClusterIndex> index;
  std::unique_ptr<Backbone> backbone;
  double delta = 0.0;

  static QueryFixture Make(SensorDataset dataset, double delta_frac,
                           uint64_t seed = 5) {
    QueryFixture fx;
    fx.ds = std::move(dataset);
    fx.delta = delta_frac * FeatureDiameter(fx.ds);
    ElinkConfig cfg;
    cfg.delta = fx.delta;
    cfg.seed = seed;
    Result<ElinkResult> r = RunElink(fx.ds, cfg, ElinkMode::kImplicit);
    ELINK_CHECK(r.ok());
    fx.clustering = std::move(r.value().clustering);
    fx.tree_parent = BuildClusterTrees(fx.clustering, fx.ds.topology.adjacency);
    fx.index = std::make_unique<ClusterIndex>(ClusterIndex::Build(
        fx.clustering, fx.tree_parent, fx.ds.features, *fx.ds.metric));
    fx.backbone = std::make_unique<Backbone>(
        Backbone::Build(fx.clustering, fx.ds.topology.adjacency, nullptr,
                        &fx.ds.features, fx.ds.metric.get()));
    return fx;
  }

  RangeQueryEngine MakeRangeEngine() const {
    return RangeQueryEngine(clustering, *index, *backbone, ds.features,
                            *ds.metric, delta);
  }
  PathQueryEngine MakePathEngine() const {
    return PathQueryEngine(clustering, *index, *backbone,
                           ds.topology.adjacency, ds.features, *ds.metric,
                           delta);
  }
};

SensorDataset SmallSynthetic(uint64_t seed = 31) {
  SyntheticConfig cfg;
  cfg.num_nodes = 120;
  cfg.seed = seed;
  return std::move(MakeSyntheticDataset(cfg)).value();
}

SensorDataset SmallTerrain(uint64_t seed = 7) {
  TerrainConfig cfg;
  cfg.num_nodes = 220;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = seed;
  return std::move(MakeTerrainDataset(cfg)).value();
}

// -- M-tree -------------------------------------------------------------------

TEST(MTreeTest, CoveringRadiiDominateSubtreeDistances) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.25);
  for (int i = 0; i < fx.index->num_nodes(); ++i) {
    for (int member : fx.index->subtree(i)) {
      const double d = fx.ds.metric->Distance(fx.index->routing_feature(i),
                                              fx.ds.features[member]);
      EXPECT_LE(d, fx.index->covering_radius(i) + 1e-9)
          << "node " << i << " member " << member;
    }
  }
}

TEST(MTreeTest, LeavesHaveZeroRadiusAndSelfSubtree) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.3);
  for (int i = 0; i < fx.index->num_nodes(); ++i) {
    if (fx.index->children(i).empty()) {
      EXPECT_DOUBLE_EQ(fx.index->covering_radius(i), 0.0);
      EXPECT_EQ(fx.index->subtree(i), std::vector<int>{i});
    }
  }
}

TEST(MTreeTest, SubtreesPartitionClusters) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.3);
  for (const auto& [root, members] : fx.clustering.Groups()) {
    EXPECT_EQ(fx.index->subtree(root), members);
  }
}

TEST(MTreeTest, RootBallRadiusIsExact) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.3);
  for (const auto& [root, members] : fx.clustering.Groups()) {
    double expected = 0.0;
    for (int m : members) {
      expected = std::max(expected, fx.ds.metric->Distance(
                                        fx.ds.features[root],
                                        fx.ds.features[m]));
    }
    EXPECT_NEAR(fx.index->root_ball_radius(root), expected, 1e-12);
    // For pristine ELink clusters this is at most delta / 2 (join rule);
    // repaired fragments may reach delta.
    EXPECT_LE(fx.index->root_ball_radius(root), fx.delta + 1e-9);
  }
}

TEST(MTreeTest, BuildCostOneMessagePerTreeEdge) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.3);
  MessageStats stats;
  ClusterIndex::Build(fx.clustering, fx.tree_parent, fx.ds.features,
                      *fx.ds.metric, &stats);
  const int edges =
      fx.index->num_nodes() - fx.clustering.num_clusters();
  EXPECT_EQ(stats.sends("mtree_build"), static_cast<uint64_t>(edges));
}

// -- Backbone -----------------------------------------------------------------

TEST(BackboneTest, SpansAllLeaders) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.25);
  std::set<int> roots;
  for (int r : fx.clustering.root_of) roots.insert(r);
  ASSERT_EQ(fx.backbone->leaders().size(), roots.size());
  // Every leader reaches the tree root by parent pointers.
  for (int leader : fx.backbone->leaders()) {
    int cur = leader, steps = 0;
    while (cur != fx.backbone->tree_root() &&
           steps <= static_cast<int>(roots.size())) {
      cur = fx.backbone->tree_parent(cur);
      ++steps;
    }
    EXPECT_EQ(cur, fx.backbone->tree_root());
  }
}

TEST(BackboneTest, RouteHopsPositiveAndSymmetricEnough) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.25);
  for (int leader : fx.backbone->leaders()) {
    const int parent = fx.backbone->tree_parent(leader);
    if (parent != leader) {
      EXPECT_GT(fx.backbone->route_hops(leader, parent), 0);
    }
  }
  EXPECT_GT(fx.backbone->total_tree_hops(),
            static_cast<int>(fx.backbone->leaders().size()) - 2);
}

TEST(BackboneTest, BuildCostRecorded) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.25);
  MessageStats stats;
  Backbone::Build(fx.clustering, fx.ds.topology.adjacency, &stats);
  if (fx.backbone->leaders().size() > 1) {
    EXPECT_GT(stats.units("backbone_build"), 0u);
  }
}

// -- Upper index ----------------------------------------------------------------

/// The upper level as each query class used to build it: leaders sorted by
/// decreasing backbone depth (ties by id), then radius(l) = max(root ball,
/// max over children of d(F_l, F_c) + radius(c)) and the member list and
/// population of every backbone subtree, all kept in maps.
struct DepthSortedUpper {
  std::map<int, double> radius;
  std::map<int, std::vector<int>> members;  // Ascending.
  std::map<int, long long> population;
};

DepthSortedUpper BuildDepthSortedUpper(const Backbone& backbone,
                                       const ClusterIndex& index,
                                       const std::vector<Feature>& features,
                                       const DistanceMetric& metric) {
  DepthSortedUpper ref;
  std::vector<int> order = backbone.leaders();
  auto depth = [&](int leader) {
    int d = 0;
    for (int cur = leader; backbone.tree_parent(cur) != cur;
         cur = backbone.tree_parent(cur)) {
      ++d;
    }
    return d;
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int da = depth(a), db = depth(b);
    if (da != db) return da > db;
    return a < b;
  });
  for (int leader : order) {
    double radius = index.root_ball_radius(leader);
    std::vector<int> members = index.subtree(leader);
    long long pop = static_cast<long long>(index.subtree(leader).size());
    for (int child : backbone.tree_children(leader)) {
      radius = std::max(radius,
                        metric.Distance(features[leader], features[child]) +
                            ref.radius.at(child));
      const auto& sub = ref.members.at(child);
      members.insert(members.end(), sub.begin(), sub.end());
      pop += ref.population.at(child);
    }
    ref.radius[leader] = radius;
    std::sort(members.begin(), members.end());
    ref.members[leader] = std::move(members);
    ref.population[leader] = pop;
  }
  return ref;
}

/// UpperIndex against the depth-sorted reference, leader by leader: radii
/// bit for bit, member sets, populations, and the covering property.
void ExpectUpperMatchesReference(const QueryFixture& fx,
                                 const Backbone& backbone) {
  const UpperIndex upper(backbone, *fx.index, fx.ds.features, *fx.ds.metric);
  const DepthSortedUpper ref = BuildDepthSortedUpper(
      backbone, *fx.index, fx.ds.features, *fx.ds.metric);
  for (int leader : backbone.leaders()) {
    EXPECT_EQ(std::bit_cast<uint64_t>(upper.radius(leader)),
              std::bit_cast<uint64_t>(ref.radius.at(leader)))
        << "leader " << leader;
    const std::span<const int> span = upper.members(leader);
    std::vector<int> members(span.begin(), span.end());
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, ref.members.at(leader)) << "leader " << leader;
    EXPECT_EQ(static_cast<long long>(span.size()), ref.population.at(leader))
        << "leader " << leader;
    for (int m : span) {
      EXPECT_LE(fx.ds.metric->Distance(fx.ds.features[leader],
                                       fx.ds.features[m]),
                upper.radius(leader) + 1e-12)
          << "leader " << leader << " member " << m;
    }
  }
  // The backbone root's subtree is the whole network.
  EXPECT_EQ(upper.members(backbone.tree_root()).size(),
            fx.ds.features.size());
}

SensorDataset TerrainOf(int n) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  return std::move(MakeTerrainDataset(cfg)).value();
}

TEST(UpperIndexTest, MatchesDepthSortedAggregationOnTerrains) {
  for (int n : {60, 120, 400}) {
    SCOPED_TRACE(testing::Message() << n << "-node terrain");
    const QueryFixture fx = QueryFixture::Make(TerrainOf(n), 0.2);
    ExpectUpperMatchesReference(fx, *fx.backbone);
  }
}

TEST(UpperIndexTest, MatchesDepthSortedAggregationOnSynthetic4k) {
  SyntheticConfig cfg;
  cfg.num_nodes = 4000;
  const QueryFixture fx =
      QueryFixture::Make(std::move(MakeSyntheticDataset(cfg)).value(), 0.2);
  ExpectUpperMatchesReference(fx, *fx.backbone);
}

TEST(UpperIndexTest, MatchesDepthSortedAggregationOnBfsBackbone) {
  const QueryFixture fx = QueryFixture::Make(TerrainOf(400), 0.2);
  // Built without features: a hop-oriented BFS tree over the cluster graph.
  const Backbone bfs_tree =
      Backbone::Build(fx.clustering, fx.ds.topology.adjacency);
  ExpectUpperMatchesReference(fx, bfs_tree);
}

// -- Range queries ---------------------------------------------------------------

TEST(RangeQueryTest, MatchesLinearScanAcrossRadii) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.2);
  RangeQueryEngine engine = fx.MakeRangeEngine();
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    const int probe = static_cast<int>(rng.UniformInt(220));
    const Feature q = fx.ds.features[probe];
    const double r = rng.Uniform(0.0, 1.2) * fx.delta;
    const int initiator = static_cast<int>(rng.UniformInt(220));
    RangeQueryResult res = engine.Query(initiator, q, r);
    EXPECT_EQ(res.matches, engine.LinearScan(q, r))
        << "trial " << trial << " r=" << r;
  }
}

TEST(RangeQueryTest, MatchesLinearScanOnUncorrelatedData) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.35);
  RangeQueryEngine engine = fx.MakeRangeEngine();
  Rng rng(103);
  for (int trial = 0; trial < 40; ++trial) {
    Feature q = {rng.Uniform(0.3, 0.9)};
    const double r = rng.Uniform(0.1, 0.8) * fx.delta;
    RangeQueryResult res =
        engine.Query(static_cast<int>(rng.UniformInt(120)), q, r);
    EXPECT_EQ(res.matches, engine.LinearScan(q, r));
  }
}

TEST(RangeQueryTest, FarQueryExcludesEverythingCheaply) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.2);
  RangeQueryEngine engine = fx.MakeRangeEngine();
  // A query feature far outside the elevation range with a small radius.
  RangeQueryResult res = engine.Query(0, {1e6}, 0.1 * fx.delta);
  EXPECT_TRUE(res.matches.empty());
  EXPECT_EQ(res.clusters_descended, 0);
  EXPECT_EQ(res.stats.units("query_descend"), 0u);
  // The upper-level index prunes every backbone subtree at the root: no
  // backbone transmission happens at all.
  EXPECT_GE(res.clusters_excluded, 1);  // The root leader itself.
  EXPECT_EQ(res.stats.units("query_backbone"), 0u);
  EXPECT_EQ(res.backbone_subtrees_pruned,
            static_cast<int>(
                fx.backbone->tree_children(fx.backbone->tree_root()).size()));
}

TEST(RangeQueryTest, HugeRadiusIncludesEverything) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.2);
  RangeQueryEngine engine = fx.MakeRangeEngine();
  RangeQueryResult res =
      engine.Query(3, fx.ds.features[0], 10 * FeatureDiameter(fx.ds));
  EXPECT_EQ(static_cast<int>(res.matches.size()), fx.ds.topology.num_nodes());
  EXPECT_EQ(res.clusters_descended, 0);  // Whole clusters included.
}

TEST(RangeQueryTest, CorrelatedDataPrunesMoreThanTag) {
  // Fig. 14's mechanism: on spatially correlated data, per-query cost is
  // well below TAG's fixed 2x tree edges.
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.25);
  RangeQueryEngine engine = fx.MakeRangeEngine();
  TagAggregator tag(fx.ds.topology.adjacency,
                    PickBaseStation(fx.ds.topology), fx.ds.features,
                    *fx.ds.metric);
  Rng rng(107);
  uint64_t elink_total = 0, tag_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int probe = static_cast<int>(rng.UniformInt(220));
    const Feature q = fx.ds.features[probe];
    const double r = 0.8 * fx.delta;
    RangeQueryResult res =
        engine.Query(static_cast<int>(rng.UniformInt(220)), q, r);
    MessageStats tag_stats;
    const auto tag_matches = tag.RangeQuery(q, r, &tag_stats);
    EXPECT_EQ(res.matches, tag_matches);
    elink_total += res.stats.total_units();
    tag_total += tag_stats.total_units();
  }
  EXPECT_LT(elink_total, tag_total);
}

// -- TAG --------------------------------------------------------------------------

TEST(TagTest, FixedCostPerQuery) {
  QueryFixture fx = QueryFixture::Make(SmallSynthetic(), 0.3);
  TagAggregator tag(fx.ds.topology.adjacency, 0, fx.ds.features,
                    *fx.ds.metric);
  EXPECT_EQ(tag.num_tree_edges(), fx.ds.topology.num_nodes() - 1);
  MessageStats s1, s2;
  tag.RangeQuery({0.5}, 0.01, &s1);
  tag.RangeQuery({0.5}, 100.0, &s2);
  // Cost is independent of selectivity.
  EXPECT_EQ(s1.total_units(), s2.total_units());
  EXPECT_EQ(s1.sends("tag_distribute"),
            static_cast<uint64_t>(tag.num_tree_edges()));
}

// -- Path queries -------------------------------------------------------------------

TEST(PathQueryTest, AgreesWithBfsBaselineOnFeasibility) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.2);
  PathQueryEngine engine = fx.MakePathEngine();
  Rng rng(109);
  int found_count = 0, notfound_count = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int src = static_cast<int>(rng.UniformInt(220));
    const int dst = static_cast<int>(rng.UniformInt(220));
    const Feature danger = {rng.Uniform(175.0, 1996.0)};
    const double gamma = rng.Uniform(0.05, 0.5) * FeatureDiameter(fx.ds);
    const PathQueryResult ours = engine.Query(src, dst, danger, gamma);
    const PathQueryResult bfs = engine.BfsBaseline(src, dst, danger, gamma);
    EXPECT_EQ(ours.found, bfs.found) << "trial " << trial;
    (ours.found ? found_count : notfound_count)++;
    if (ours.found) {
      // Path is a real communication path, endpoints correct, all safe.
      EXPECT_EQ(ours.path.front(), src);
      EXPECT_EQ(ours.path.back(), dst);
      for (size_t i = 0; i + 1 < ours.path.size(); ++i) {
        EXPECT_TRUE(std::find(fx.ds.topology.adjacency[ours.path[i]].begin(),
                              fx.ds.topology.adjacency[ours.path[i]].end(),
                              ours.path[i + 1]) !=
                    fx.ds.topology.adjacency[ours.path[i]].end());
      }
      for (int node : ours.path) {
        EXPECT_TRUE(engine.IsSafe(node, danger, gamma));
      }
    }
  }
  // The sweep must exercise both outcomes to be meaningful.
  EXPECT_GT(found_count, 0);
  EXPECT_GT(notfound_count, 0);
}

TEST(PathQueryTest, SourceEqualsDestination) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.2);
  PathQueryEngine engine = fx.MakePathEngine();
  // A danger far from everything: all nodes safe.
  const PathQueryResult r = engine.Query(5, 5, {1e9}, 10.0);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.path, std::vector<int>{5});
}

TEST(PathQueryTest, UnsafeSourceReportsNotFound) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.2);
  PathQueryEngine engine = fx.MakePathEngine();
  // Danger exactly at node 0's feature with a generous gamma: 0 is unsafe.
  const Feature danger = fx.ds.features[0];
  const double gamma = 0.3 * FeatureDiameter(fx.ds);
  ASSERT_FALSE(engine.IsSafe(0, danger, gamma));
  const PathQueryResult r = engine.Query(0, 10, danger, gamma);
  EXPECT_FALSE(r.found);
}

TEST(PathQueryTest, CheaperThanBfsFloodOnAverage) {
  QueryFixture fx = QueryFixture::Make(SmallTerrain(), 0.25);
  PathQueryEngine engine = fx.MakePathEngine();
  Rng rng(113);
  uint64_t ours_total = 0, bfs_total = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const int src = static_cast<int>(rng.UniformInt(220));
    const int dst = static_cast<int>(rng.UniformInt(220));
    const Feature danger = {rng.Uniform(175.0, 1996.0)};
    const double gamma = 0.2 * FeatureDiameter(fx.ds);
    ours_total += engine.Query(src, dst, danger, gamma).stats.total_units();
    bfs_total +=
        engine.BfsBaseline(src, dst, danger, gamma).stats.total_units();
  }
  EXPECT_LT(ours_total, bfs_total);
}

}  // namespace
}  // namespace elink
