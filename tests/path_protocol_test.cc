// Tests for the distributed path-query protocol: per-category cost parity
// with the centralized PathQueryEngine accounting model, identical outcomes
// on synchronous and asynchronous networks, graceful handling of truncated
// messages, argument checks, and one object reused across queries answering
// exactly as fresh objects do.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/elink.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "data/terrain.h"
#include "index/path_query.h"
#include "index/path_query_protocol.h"

namespace elink {
namespace {

struct PathFixture {
  SensorDataset ds;
  Clustering clustering;
  std::vector<int> tree_parent;
  std::unique_ptr<ClusterIndex> index;
  std::unique_ptr<Backbone> backbone;
  double delta = 0.0;

  static PathFixture Make(SensorDataset dataset, double delta_frac) {
    PathFixture fx;
    fx.ds = std::move(dataset);
    fx.delta = delta_frac * FeatureDiameter(fx.ds);
    ElinkConfig cfg;
    cfg.delta = fx.delta;
    cfg.seed = 7;
    Result<ElinkResult> r = RunElink(fx.ds, cfg, ElinkMode::kImplicit);
    ELINK_CHECK(r.ok());
    fx.clustering = std::move(r.value().clustering);
    fx.tree_parent =
        BuildClusterTrees(fx.clustering, fx.ds.topology.adjacency);
    fx.index = std::make_unique<ClusterIndex>(ClusterIndex::Build(
        fx.clustering, fx.tree_parent, fx.ds.features, *fx.ds.metric));
    fx.backbone = std::make_unique<Backbone>(
        Backbone::Build(fx.clustering, fx.ds.topology.adjacency, nullptr,
                        &fx.ds.features, fx.ds.metric.get()));
    return fx;
  }

  DistributedPathQuery MakeProtocol(PathProtocolOptions options = {}) const {
    return DistributedPathQuery(ds.topology, clustering, *index, *backbone,
                                ds.features, ds.metric, options);
  }
  PathQueryEngine MakeEngine() const {
    return PathQueryEngine(clustering, *index, *backbone,
                           ds.topology.adjacency, ds.features, *ds.metric,
                           delta);
  }
};

SensorDataset Terrain(int n = 180) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 9;
  return std::move(MakeTerrainDataset(cfg)).value();
}

// The categories the engine's accounting model charges; the protocol must
// match them send for send and unit for unit.  (Its completion acks ride in
// the extra "path_collect" category, which the engine does not model.)
const char* const kEngineCategories[] = {"path_route", "path_backbone",
                                         "path_drilldown", "path_search",
                                         "path_trace"};

void ExpectParity(const PathQueryResult& got, const PathQueryResult& want,
                  int trial) {
  EXPECT_EQ(got.found, want.found) << "trial " << trial;
  EXPECT_EQ(got.path, want.path) << "trial " << trial;
  EXPECT_EQ(got.clusters_safe, want.clusters_safe) << "trial " << trial;
  EXPECT_EQ(got.clusters_unsafe, want.clusters_unsafe) << "trial " << trial;
  EXPECT_EQ(got.clusters_drilled, want.clusters_drilled) << "trial " << trial;
  for (const char* cat : kEngineCategories) {
    EXPECT_EQ(got.stats.units(cat), want.stats.units(cat))
        << "trial " << trial << " category " << cat;
    EXPECT_EQ(got.stats.sends(cat), want.stats.sends(cat))
        << "trial " << trial << " category " << cat;
  }
}

TEST(PathProtocolTest, MatchesEngineOnTerrain) {
  PathFixture fx = PathFixture::Make(Terrain(), 0.22);
  DistributedPathQuery protocol = fx.MakeProtocol();
  PathQueryEngine engine = fx.MakeEngine();
  const int n = fx.ds.topology.num_nodes();
  Rng rng(3);
  int found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Feature danger = fx.ds.features[rng.UniformInt(n)];
    const double gamma = rng.Uniform(0.2, 1.5) * fx.delta;
    const int source = static_cast<int>(rng.UniformInt(n));
    const int destination = static_cast<int>(rng.UniformInt(n));
    Result<PathQueryResult> out =
        protocol.Run(source, destination, danger, gamma);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const PathQueryResult want =
        engine.Query(source, destination, danger, gamma);
    ExpectParity(out.value(), want, trial);
    if (want.found) ++found;
  }
  EXPECT_GT(found, 0) << "trials never exercised the search phase";
}

TEST(PathProtocolTest, MatchesEngineOnAsynchronousNetworks) {
  PathFixture fx = PathFixture::Make(Terrain(), 0.22);
  PathProtocolOptions options;
  options.synchronous = false;
  options.seed = 99;
  DistributedPathQuery protocol = fx.MakeProtocol(options);
  PathQueryEngine engine = fx.MakeEngine();
  const int n = fx.ds.topology.num_nodes();
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Feature danger = fx.ds.features[rng.UniformInt(n)];
    const double gamma = rng.Uniform(0.3, 1.2) * fx.delta;
    const int source = static_cast<int>(rng.UniformInt(n));
    const int destination = static_cast<int>(rng.UniformInt(n));
    Result<PathQueryResult> out =
        protocol.Run(source, destination, danger, gamma);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectParity(out.value(),
                 engine.Query(source, destination, danger, gamma), trial);
  }
}

TEST(PathProtocolTest, SuppressedQueryCostsOnlyTheClimb) {
  PathFixture fx = PathFixture::Make(Terrain(), 0.22);
  DistributedPathQuery protocol = fx.MakeProtocol();
  PathQueryEngine engine = fx.MakeEngine();
  // Danger centered on a cluster root with gamma beyond its covering radius:
  // the whole source cluster is conclusively unsafe and the root kills the
  // query without touching the backbone.
  const int source = 0;
  const int root = fx.clustering.root_of[source];
  const Feature danger = fx.index->routing_feature(root);
  const double gamma = fx.index->covering_radius(root) + 0.25 * fx.delta;
  Result<PathQueryResult> out = protocol.Run(source, source, danger, gamma);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().found);
  EXPECT_EQ(out.value().stats.units("path_backbone"), 0u);
  EXPECT_EQ(out.value().stats.units("path_drilldown"), 0u);
  ExpectParity(out.value(), engine.Query(source, source, danger, gamma), 0);
}

TEST(PathProtocolTest, SingleClusterGrid) {
  SensorDataset ds;
  ds.topology = MakeGridTopology(4, 4);
  ds.features.assign(16, Feature{5.0});
  ds.metric =
      std::make_shared<WeightedEuclidean>(WeightedEuclidean::Euclidean(1));
  PathFixture fx = PathFixture::Make(std::move(ds), 0.5);
  DistributedPathQuery protocol = fx.MakeProtocol();
  PathQueryEngine engine = fx.MakeEngine();
  // Distant danger: every node is safe, a corner-to-corner path exists.
  Result<PathQueryResult> safe = protocol.Run(0, 15, {100.0}, 1.0);
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(safe.value().found);
  ExpectParity(safe.value(), engine.Query(0, 15, {100.0}, 1.0), 0);
  // Danger on top of the uniform feature: everything is unsafe.
  Result<PathQueryResult> unsafe_q = protocol.Run(0, 15, {5.0}, 1.0);
  ASSERT_TRUE(unsafe_q.ok());
  EXPECT_FALSE(unsafe_q.value().found);
  ExpectParity(unsafe_q.value(), engine.Query(0, 15, {5.0}, 1.0), 1);
}

TEST(PathProtocolTest, TruncatedMessagesAreCountedNotFatal) {
  PathFixture fx = PathFixture::Make(Terrain(120), 0.25);
  const int n = fx.ds.topology.num_nodes();
  PathQueryEngine engine = fx.MakeEngine();
  Rng rng(13);
  uint64_t decode_errors = 0;
  for (int trial = 0; trial < 10; ++trial) {
    PathProtocolOptions options;
    options.seed = 1000 + trial;
    options.fault.truncate_probability = 0.7;
    DistributedPathQuery protocol = fx.MakeProtocol(options);
    const Feature danger = fx.ds.features[rng.UniformInt(n)];
    const double gamma = rng.Uniform(0.3, 1.2) * fx.delta;
    const int source = static_cast<int>(rng.UniformInt(n));
    const int destination = static_cast<int>(rng.UniformInt(n));
    Result<PathQueryResult> out =
        protocol.Run(source, destination, danger, gamma);
    // Malformed frames must surface as counted protocol errors (possibly a
    // lost query), never a crash or an engine-divergent "answer".
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    decode_errors += out.value().stats.decode_errors();
    if (out.value().found) {
      EXPECT_TRUE(engine.Query(source, destination, danger, gamma).found)
          << "trial " << trial;
    }
  }
  EXPECT_GT(decode_errors, 0u);
}

TEST(PathProtocolTest, RejectsBadEndpoints) {
  PathFixture fx = PathFixture::Make(Terrain(120), 0.25);
  DistributedPathQuery protocol = fx.MakeProtocol();
  EXPECT_FALSE(protocol.Run(-1, 0, fx.ds.features[0], 1.0).ok());
  EXPECT_FALSE(protocol.Run(0, 9999, fx.ds.features[0], 1.0).ok());
  EXPECT_FALSE(protocol.Run(0, 1, fx.ds.features[0], -1.0).ok());
  // A danger feature of the wrong dimension is refused, not measured.
  const Result<PathQueryResult> wrong_dim =
      protocol.Run(0, 1, Feature{1.0, 2.0}, 1.0);
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);
  // NaN fails every comparison, so it used to pass the sign test and come
  // back OK with no path.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Result<PathQueryResult>& bad :
       {protocol.Run(0, 1, fx.ds.features[0], nan),
        protocol.Run(0, 1, Feature{nan}, 1.0),
        protocol.Run(0, 1, Feature{inf}, 1.0),
        protocol.Run(0, 1, Feature{-inf}, 1.0)}) {
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

// Every counter of every ledger category, rendered for comparison.
std::string Ledger(const MessageStats& stats) {
  std::string out;
  for (const MessageStats::CategorySnapshot& c : stats.Snapshot()) {
    out += c.category;
    for (uint64_t v : {c.units, c.sends, c.bytes, c.dropped_units,
                       c.dropped_sends, c.dropped_bytes, c.decode_errors}) {
      out += ' ';
      out += std::to_string(v);
    }
    out += ";";
  }
  return out;
}

// One object keeps its node state and lends one walked-path table to every
// Run.  Run a list of queries through it, then the same list reversed (so
// the second pass starts on pairs the first pass routed last), and compare
// each outcome with a fresh object's: the sharing must be unobservable.
TEST(PathProtocolTest, ReusedObjectMatchesFreshObjects) {
  PathFixture fx = PathFixture::Make(Terrain(), 0.22);
  const int n = fx.ds.topology.num_nodes();
  struct Ask {
    int source;
    int destination;
    Feature danger;
    double gamma;
  };
  std::vector<Ask> asks;
  Rng rng(19);
  for (int k = 0; k < 10; ++k) {
    asks.push_back({static_cast<int>(rng.UniformInt(n)),
                    static_cast<int>(rng.UniformInt(n)),
                    fx.ds.features[rng.UniformInt(n)],
                    rng.Uniform(0.2, 1.5) * fx.delta});
  }
  std::vector<Ask> order = asks;
  order.insert(order.end(), asks.rbegin(), asks.rend());

  PathProtocolOptions async_clean;
  async_clean.synchronous = false;
  async_clean.seed = 99;
  // Loss and truncation on an asynchronous network: lost waves and
  // undecodable frames draw on the fault RNG stream.
  PathProtocolOptions faulty = async_clean;
  faulty.fault.drop_probability = 0.02;
  faulty.fault.truncate_probability = 0.05;
  int found = 0, dropped = 0;
  for (const auto& options : {async_clean, faulty}) {
    DistributedPathQuery reused = fx.MakeProtocol(options);
    for (size_t i = 0; i < order.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "query " << i << " faulty "
                                      << options.fault.enabled());
      const Ask& a = order[i];
      const Result<PathQueryResult> got =
          reused.Run(a.source, a.destination, a.danger, a.gamma);
      const Result<PathQueryResult> want = fx.MakeProtocol(options).Run(
          a.source, a.destination, a.danger, a.gamma);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got.value().found, want.value().found);
      EXPECT_EQ(got.value().path, want.value().path);
      EXPECT_EQ(got.value().clusters_safe, want.value().clusters_safe);
      EXPECT_EQ(got.value().clusters_unsafe, want.value().clusters_unsafe);
      EXPECT_EQ(got.value().clusters_drilled, want.value().clusters_drilled);
      EXPECT_EQ(Ledger(got.value().stats), Ledger(want.value().stats));
      found += want.value().found;
      dropped += want.value().stats.dropped_sends() > 0;
    }
  }
  // Both the search phase and the fault plan were exercised.
  EXPECT_GT(found, 0);
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace elink
