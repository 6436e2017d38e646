// Tests for the fully distributed range-query protocol: exact counts on
// synchronous and asynchronous networks, agreement with the centralized
// engine's cost model, latency sanity, argument checks, and one object
// reused across queries answering exactly as fresh objects do.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/elink.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "data/terrain.h"
#include "index/query_protocol.h"
#include "index/range_query.h"

namespace elink {
namespace {

struct ProtocolFixture {
  SensorDataset ds;
  Clustering clustering;
  std::vector<int> tree_parent;
  std::unique_ptr<ClusterIndex> index;
  std::unique_ptr<Backbone> backbone;
  double delta = 0.0;

  static ProtocolFixture Make(SensorDataset dataset, double delta_frac) {
    ProtocolFixture fx;
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

  DistributedRangeQuery MakeProtocol(bool synchronous = true,
                                     uint64_t seed = 1) const {
    DistributedRangeQuery::ProtocolOptions options;
    options.synchronous = synchronous;
    options.seed = seed;
    return MakeProtocol(options);
  }
  DistributedRangeQuery MakeProtocol(
      const DistributedRangeQuery::ProtocolOptions& options) const {
    return DistributedRangeQuery(ds.topology, clustering, *index, *backbone,
                                 ds.features, ds.metric, options);
  }
  RangeQueryEngine MakeEngine() const {
    return RangeQueryEngine(clustering, *index, *backbone, ds.features,
                            *ds.metric, delta);
  }
};

SensorDataset Terrain(int n = 180) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 9;
  return std::move(MakeTerrainDataset(cfg)).value();
}

TEST(QueryProtocolTest, CountsMatchLinearScan) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = rng.Uniform(0.1, 1.1) * fx.delta;
    const int initiator = static_cast<int>(rng.UniformInt(180));
    Result<DistributedQueryOutcome> out = protocol.Run(initiator, q, r);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value().match_count,
              static_cast<long long>(engine.LinearScan(q, r).size()))
        << "trial " << trial;
  }
}

TEST(QueryProtocolTest, WorksOnAsynchronousNetworks) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol =
      fx.MakeProtocol(/*synchronous=*/false, /*seed=*/99);
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = rng.Uniform(0.2, 0.9) * fx.delta;
    Result<DistributedQueryOutcome> out =
        protocol.Run(static_cast<int>(rng.UniformInt(180)), q, r);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().match_count,
              static_cast<long long>(engine.LinearScan(q, r).size()));
  }
}

TEST(QueryProtocolTest, CostAgreesWithEngineModel) {
  // The engine is an accounting model of exactly this protocol; totals must
  // land in the same ballpark (reply aggregation is counted slightly
  // differently: per-hop there, per-match here).
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(7);
  uint64_t protocol_total = 0, engine_total = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const Feature q = fx.ds.features[rng.UniformInt(180)];
    const double r = 0.7 * fx.delta;
    const int initiator = static_cast<int>(rng.UniformInt(180));
    Result<DistributedQueryOutcome> out = protocol.Run(initiator, q, r);
    ASSERT_TRUE(out.ok());
    protocol_total += out.value().stats.total_units();
    engine_total += engine.Query(initiator, q, r).stats.total_units();
  }
  EXPECT_GT(protocol_total, engine_total / 3);
  EXPECT_LT(protocol_total, engine_total * 3);
}

TEST(QueryProtocolTest, SingleClusterNetwork) {
  // Uniform features: one cluster; the protocol reduces to root screening.
  SensorDataset ds;
  ds.topology = MakeGridTopology(4, 4);
  ds.features.assign(16, Feature{5.0});
  ds.metric =
      std::make_shared<WeightedEuclidean>(WeightedEuclidean::Euclidean(1));
  ProtocolFixture fx = ProtocolFixture::Make(std::move(ds), 0.5);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  // Everything matches.
  Result<DistributedQueryOutcome> all = protocol.Run(3, {5.0}, 1.0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().match_count, 16);
  // Nothing matches.
  Result<DistributedQueryOutcome> none = protocol.Run(3, {100.0}, 1.0);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().match_count, 0);
}

TEST(QueryProtocolTest, InitiatorVariantsTerminate) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(120), 0.25);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  const Feature q = fx.ds.features[0];
  // Initiator == its own cluster root.
  const int a_root = fx.clustering.root_of[0];
  Result<DistributedQueryOutcome> r1 = protocol.Run(a_root, q, fx.delta);
  ASSERT_TRUE(r1.ok());
  // Initiator == the backbone root.
  Result<DistributedQueryOutcome> r2 =
      protocol.Run(fx.backbone->tree_root(), q, fx.delta);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().match_count, r2.value().match_count);
}

TEST(QueryProtocolTest, LatencyBoundedByNetworkScale) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  Result<DistributedQueryOutcome> out =
      protocol.Run(0, fx.ds.features[0], 0.8 * fx.delta);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out.value().latency, 0.0);
  // Generous bound: a constant number of network traversals.
  const int n = fx.ds.topology.num_nodes();
  EXPECT_LT(out.value().latency, 20.0 * n);
}

TEST(QueryProtocolTest, UncorrelatedDataStillExact) {
  SyntheticConfig cfg;
  cfg.num_nodes = 150;
  cfg.seed = 41;
  ProtocolFixture fx = ProtocolFixture::Make(
      std::move(MakeSyntheticDataset(cfg)).value(), 0.35);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  RangeQueryEngine engine = fx.MakeEngine();
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    const Feature q = {rng.Uniform(0.3, 0.9)};
    const double r = rng.Uniform(0.2, 0.8) * fx.delta;
    Result<DistributedQueryOutcome> out =
        protocol.Run(static_cast<int>(rng.UniformInt(150)), q, r);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().match_count,
              static_cast<long long>(engine.LinearScan(q, r).size()));
  }
}

TEST(QueryProtocolTest, RejectsBadArguments) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(120), 0.25);
  DistributedRangeQuery protocol = fx.MakeProtocol();
  EXPECT_FALSE(protocol.Run(-1, fx.ds.features[0], 1.0).ok());
  EXPECT_FALSE(protocol.Run(0, fx.ds.features[0], -1.0).ok());
  // A query feature of the wrong dimension is refused, not measured.
  const Result<DistributedQueryOutcome> wrong_dim =
      protocol.Run(0, Feature{1.0, 2.0}, 1.0);
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);
  // NaN fails every comparison, so it used to pass the sign test and come
  // back OK with 0 matches.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Result<DistributedQueryOutcome>& bad :
       {protocol.Run(0, fx.ds.features[0], nan),
        protocol.Run(0, Feature{nan}, 1.0),
        protocol.Run(0, Feature{inf}, 1.0),
        protocol.Run(0, Feature{-inf}, 1.0)}) {
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
TEST(QueryProtocolTest, ReusedObjectMatchesFreshObjects) {
  ProtocolFixture fx = ProtocolFixture::Make(Terrain(), 0.22);
  const int n = fx.ds.topology.num_nodes();
  struct Ask {
    int initiator;
    Feature q;
    double r;
  };
  std::vector<Ask> asks;
  Rng rng(17);
  for (int k = 0; k < 10; ++k) {
    asks.push_back({static_cast<int>(rng.UniformInt(n)),
                    fx.ds.features[rng.UniformInt(n)],
                    rng.Uniform(0.1, 1.1) * fx.delta});
  }
  std::vector<Ask> order = asks;
  order.insert(order.end(), asks.rbegin(), asks.rend());

  DistributedRangeQuery::ProtocolOptions async_clean;
  async_clean.synchronous = false;
  async_clean.seed = 99;
  // Loss and a crashed leader on an asynchronous network, carried over the
  // reliable transport with deadlines: retransmissions and partial answers
  // draw on the fault RNG stream.
  int victim = -1;
  for (int leader : fx.backbone->leaders()) {
    if (leader != fx.backbone->tree_root()) victim = leader;
  }
  ASSERT_GE(victim, 0);
  DistributedRangeQuery::ProtocolOptions faulty = async_clean;
  faulty.fault.drop_probability = 0.1;
  faulty.fault.node_crashes.push_back({victim, 0.0});
  faulty.reliable_transport = true;
  faulty.reliable.rto = 30.0;
  faulty.reliable.max_retries = 3;
  faulty.node_deadline = 400.0;
  faulty.query_deadline = 4000.0;
  int dropped = 0, partial = 0;
  for (const auto& options : {async_clean, faulty}) {
    DistributedRangeQuery reused = fx.MakeProtocol(options);
    for (size_t i = 0; i < order.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "query " << i << " faulty "
                                      << options.fault.enabled());
      const Ask& a = order[i];
      const Result<DistributedQueryOutcome> got =
          reused.Run(a.initiator, a.q, a.r);
      const Result<DistributedQueryOutcome> want =
          fx.MakeProtocol(options).Run(a.initiator, a.q, a.r);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got.value().match_count, want.value().match_count);
      EXPECT_EQ(got.value().latency, want.value().latency);
      EXPECT_EQ(got.value().complete, want.value().complete);
      EXPECT_EQ(got.value().unreachable_subtrees,
                want.value().unreachable_subtrees);
      EXPECT_EQ(got.value().answer_received, want.value().answer_received);
      EXPECT_EQ(Ledger(got.value().stats), Ledger(want.value().stats));
      dropped += want.value().stats.dropped_sends() > 0;
      partial += !want.value().complete;
    }
  }
  // The fault plan really bit.
  EXPECT_GT(dropped, 0);
  EXPECT_GT(partial, 0);
}

}  // namespace
}  // namespace elink
