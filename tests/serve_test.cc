// Unit tests for the serving layer (src/serve): canonical cache keys, the
// version-keyed result cache, read-view snapshotting and its differential
// check against the in-network engines, publish-time change diffing,
// workload determinism, and the facade-backed serving session.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <variant>

#include "check/invariants.h"
#include "check/scenario.h"
#include "cluster/clustering.h"
#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/terrain.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "index/range_query.h"
#include "metric/distance.h"
#include "sim/graph.h"
#include "serve/frontend.h"
#include "serve/read_view.h"
#include "serve/result_cache.h"
#include "serve/session.h"
#include "serve/workload.h"

namespace elink {
namespace serve {
namespace {

// -- Canonical keys ---------------------------------------------------------

TEST(CanonicalKeyTest, EqualPredicatesShareKeys) {
  EXPECT_EQ(CanonicalRangeKey({1.0, 2.0}, 0.5),
            CanonicalRangeKey({1.0, 2.0}, 0.5));
  EXPECT_NE(CanonicalRangeKey({1.0, 2.0}, 0.5),
            CanonicalRangeKey({1.0, 2.0}, 0.6));
  EXPECT_NE(CanonicalRangeKey({1.0, 2.0}, 0.5),
            CanonicalRangeKey({2.0, 1.0}, 0.5));
  // -0.0 and +0.0 are the same predicate.
  EXPECT_EQ(CanonicalRangeKey({-0.0, 2.0}, 0.5),
            CanonicalRangeKey({0.0, 2.0}, 0.5));
  // Range and path keys never collide (distinct kind tags).
  EXPECT_NE(CanonicalRangeKey({1.0}, 2.0),
            CanonicalPathKey(0, 0, {1.0}, 2.0));
  EXPECT_NE(CanonicalPathKey(1, 2, {1.0}, 0.5),
            CanonicalPathKey(2, 1, {1.0}, 0.5));
}

// -- Result cache -----------------------------------------------------------

CacheEntry RangeEntry(uint64_t version, std::vector<int> matches) {
  return CacheEntry{RangeAnswer{std::move(matches)}, version};
}

TEST(ResultCacheTest, HitMissAndStaleEviction) {
  ResultCache cache;
  EXPECT_FALSE(cache.Lookup("k", 1).has_value());
  cache.Insert("k", RangeEntry(1, {1, 2, 3}));
  auto hit = cache.Lookup("k", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<RangeAnswer>(hit->answer).matches,
            (std::vector<int>{1, 2, 3}));
  // Same key, newer view version: the stale entry must be evicted, not
  // served.
  EXPECT_FALSE(cache.Lookup("k", 2).has_value());
  EXPECT_EQ(cache.Size(), 0u);
  const CacheCounters c = cache.Counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.stale_evictions, 1u);
}

TEST(ResultCacheTest, InvalidateStaleSweepsOldSignatures) {
  ResultCache cache;
  cache.Insert("a", RangeEntry(1, {}));
  cache.Insert("b", RangeEntry(1, {}));
  cache.Insert("c", RangeEntry(2, {}));
  EXPECT_EQ(cache.InvalidateStale(2), 2u);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_TRUE(cache.Lookup("c", 2).has_value());
}

TEST(ResultCacheTest, CapacityEvictionKeepsReferencedEntries) {
  ResultCache::Options opt;
  opt.shards = 1;
  opt.capacity_per_shard = 2;
  ResultCache cache(opt);
  cache.Insert("a", RangeEntry(1, {}));
  cache.Insert("b", RangeEntry(1, {}));
  // Touch "a" so it has a second chance; inserting "c" must evict "b".
  EXPECT_TRUE(cache.Lookup("a", 1).has_value());
  cache.Insert("c", RangeEntry(1, {}));
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_TRUE(cache.Lookup("a", 1).has_value());
  EXPECT_FALSE(cache.Lookup("b", 1).has_value());
  EXPECT_TRUE(cache.Lookup("c", 1).has_value());
  EXPECT_EQ(cache.Counters().capacity_evictions, 1u);
}

// -- Read view --------------------------------------------------------------

SensorDataset SmallDs() {
  TerrainConfig cfg;
  cfg.num_nodes = 60;
  cfg.radio_range_fraction = 0.18;
  cfg.seed = 9;
  return std::move(MakeTerrainDataset(cfg)).value();
}

std::unique_ptr<ClusteredSensorNetwork> SmallNet(const SensorDataset& ds) {
  ClusteredSensorNetwork::Options opts;
  opts.delta = 0.3 * FeatureDiameter(ds);
  opts.seed = 5;
  return std::move(ClusteredSensorNetwork::Build(ds, opts)).value();
}

// The first root (ascending) that has at least one other member.
int FirstRootWithMembers(const Clustering& c) {
  const int n = static_cast<int>(c.root_of.size());
  for (int i = 0; i < n; ++i) {
    if (c.root_of[i] != i) continue;
    for (int j = 0; j < n; ++j) {
      if (j != i && c.root_of[j] == i) return i;
    }
  }
  return -1;
}

// Kills up to `count` random non-root nodes, skipping any whose loss would
// split its cluster or the live graph, so the engines still apply to the
// churned snapshot.
std::vector<char> SoundChurnMask(const AdjacencyList& adj, const Clustering& c,
                                 int count, uint64_t seed) {
  const int n = static_cast<int>(adj.size());
  std::vector<char> live(n, 1);
  Rng rng(seed);
  int killed = 0;
  for (int tries = 0; killed < count && tries < 50 * count; ++tries) {
    const int v = static_cast<int>(rng.UniformInt(n));
    if (!live[v] || c.root_of[v] == v) continue;
    live[v] = 0;
    std::vector<char> cluster(n, 0);
    for (int i = 0; i < n; ++i) {
      cluster[i] = live[i] && c.root_of[i] == c.root_of[v];
    }
    if (IsInducedConnected(adj, cluster) && IsInducedConnected(adj, live)) {
      ++killed;
    } else {
      live[v] = 1;
    }
  }
  EXPECT_EQ(killed, count);
  return live;
}

// Answer classes one differential run exercised.
struct DiffTally {
  int predicates = 0;
  int ranges = 0;
  int empty_ranges = 0;
  int paths = 0;
  int found_paths = 0;
  int unsafe_endpoints = 0;
  int self_paths = 0;
};

// Differential check of a view against the reference its scan path
// replaced: the backbone-routed engines built over the view's compacted
// snapshot, with ids mapped through original_id.  `clustering` is the
// deployment clustering and must be sound on the live graph.  Predicates
// are WorkloadGenerator draws; each path predicate is also asked from its
// source to itself.
void ExpectViewMatchesEngines(const SensorDataset& ds,
                              const Clustering& clustering,
                              const std::vector<char>& live, double delta,
                              int predicates, uint64_t seed, DiffTally* t) {
  const int n = ds.topology.num_nodes();
  auto view = ReadView::Build(ds.topology.adjacency, ds.features, live,
                              ds.metric, 1);
  const int m = view->num_live();
  std::vector<int> remap(n, -1);
  for (int c = 0; c < m; ++c) remap[view->original_id(c)] = c;
  Clustering compact;
  for (int c = 0; c < m; ++c) {
    compact.root_of.push_back(remap[clustering.root_of[view->original_id(c)]]);
  }
  const AdjacencyList& adj = view->compact_adjacency();
  const std::vector<Feature>& f = view->compact_features();
  const DistanceMetric& metric = *ds.metric;
  const std::vector<int> tree_parent = BuildClusterTrees(compact, adj);
  const ClusterIndex index =
      ClusterIndex::Build(compact, tree_parent, f, metric);
  const Backbone backbone =
      Backbone::Build(compact, adj, nullptr, &f, ds.metric.get());
  const RangeQueryEngine range(compact, index, backbone, f, metric, delta);
  const PathQueryEngine path(compact, index, backbone, adj, f, metric, delta);
  const auto to_original = [&view](std::vector<int> ids) {
    for (int& id : ids) id = view->original_id(id);
    return ids;
  };

  WorkloadConfig cfg;
  cfg.predicate_pool = predicates;
  const WorkloadGenerator gen(ds.features, n, cfg, seed);
  t->predicates += static_cast<int>(gen.pool().size());
  for (const WorkloadOp& op : gen.pool()) {
    if (op.is_range) {
      const RangeAnswer got = view->Range(op.feature, op.scalar);
      EXPECT_EQ(got.matches,
                to_original(range.Query(0, op.feature, op.scalar).matches))
          << "n=" << n << " m=" << m << " range r=" << op.scalar;
      ++t->ranges;
      if (got.matches.empty()) ++t->empty_ranges;
      continue;
    }
    for (const int dst : {op.destination, op.source}) {
      const PathAnswer got =
          view->SafePath(op.source, dst, op.feature, op.scalar);
      ++t->paths;
      if (dst == op.source) ++t->self_paths;
      if (remap[op.source] < 0 || remap[dst] < 0) {
        EXPECT_FALSE(got.found);
        EXPECT_TRUE(got.path.empty());
        continue;
      }
      const int s = remap[op.source];
      const int d = remap[dst];
      if (!path.IsSafe(s, op.feature, op.scalar) ||
          !path.IsSafe(d, op.feature, op.scalar)) {
        ++t->unsafe_endpoints;
      }
      const PathQueryResult want = path.Query(s, d, op.feature, op.scalar);
      EXPECT_EQ(got.found, want.found)
          << "n=" << n << " m=" << m << " path " << op.source << "->" << dst;
      EXPECT_EQ(got.path, to_original(want.path))
          << "n=" << n << " m=" << m << " path " << op.source << "->" << dst;
      if (got.found) ++t->found_paths;
    }
  }
}

struct DiffInput {
  SensorDataset ds;
  std::unique_ptr<ClusteredSensorNetwork> net;
};

// The 60-node terrain and the 2,500-node MakeTerrainDataset default.
std::vector<DiffInput> DiffInputs() {
  std::vector<DiffInput> inputs;
  inputs.push_back({SmallDs(), nullptr});
  inputs.push_back({std::move(MakeTerrainDataset(TerrainConfig{})).value(),
                    nullptr});
  for (DiffInput& in : inputs) in.net = SmallNet(in.ds);
  return inputs;
}

void ExpectTallyCoversEveryClass(const DiffTally& t) {
  EXPECT_GE(t.predicates, 1000);
  EXPECT_GT(t.empty_ranges, 0);
  EXPECT_LT(t.empty_ranges, t.ranges);
  EXPECT_GT(t.found_paths, 0);
  EXPECT_GT(t.paths - t.found_paths, 0);
  EXPECT_GT(t.unsafe_endpoints, 0);
  EXPECT_GT(t.self_paths, 0);
}

TEST(ReadViewTest, FullViewMatchesEngineAnswers) {
  DiffTally tally;
  for (const DiffInput& in : DiffInputs()) {
    ExpectViewMatchesEngines(in.ds, in.net->clustering(), /*live=*/{},
                             in.net->delta(), 600, 31, &tally);
  }
  ExpectTallyCoversEveryClass(tally);
}

TEST(ReadViewTest, ChurnedViewMatchesEngineAnswers) {
  DiffTally tally;
  for (const DiffInput& in : DiffInputs()) {
    const int n = in.ds.topology.num_nodes();
    const std::vector<char> live = SoundChurnMask(
        in.ds.topology.adjacency, in.net->clustering(), n / 10, 43);
    ExpectViewMatchesEngines(in.ds, in.net->clustering(), live,
                             in.net->delta(), 600, 47, &tally);
  }
  ExpectTallyCoversEveryClass(tally);
}

TEST(ReadViewTest, ChurnedViewCompactsAndMapsBack) {
  const SensorDataset ds = SmallDs();
  auto net = SmallNet(ds);
  // Kill a handful of non-root nodes; roots stay live so the clustering
  // remains valid on the live subgraph.
  std::vector<char> live(60, 1);
  const Clustering& c = net->clustering();
  int killed = 0;
  for (int i = 0; i < 60 && killed < 5; ++i) {
    if (c.root_of[i] != i) {
      live[i] = 0;
      ++killed;
    }
  }
  ASSERT_EQ(killed, 5);
  auto view = ReadView::Build(ds.topology.adjacency, ds.features, live,
                              ds.metric, 1);
  EXPECT_EQ(view->num_live(), 55);
  // Dead nodes never appear in answers; live answers are in original ids.
  const Feature q = ds.features[0];
  const RangeAnswer ans = view->Range(q, 4.0 * net->delta());
  for (int id : ans.matches) {
    EXPECT_TRUE(live[id]) << "absent node " << id << " served";
  }
  std::vector<int> expected;
  for (int i = 0; i < 60; ++i) {
    if (live[i] && ds.metric->Distance(ds.features[i], q) <=
                       4.0 * net->delta()) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(ans.matches, expected);
  // Paths touching a dead endpoint are not found.
  int dead = 0;
  while (live[dead]) ++dead;
  EXPECT_FALSE(view->SafePath(dead, 0, q, 0.0).found);
}

TEST(ReadViewTest, MidChurnOrphanRootServesExactFallback) {
  // Pinned finding from the serve_parity_test sweep (scenario seed 1): a
  // mid-churn CurrentClustering() snapshot can contain a live node whose
  // root has crashed — the repair protocol simply has not reached it yet.
  // ReadView::Build used to ELINK_CHECK-crash on the dangling root; a view
  // never reads the clustering now, so it must build and keep serving exact
  // answers.
  const SensorDataset ds = SmallDs();
  auto net = SmallNet(ds);
  // Kill one root while its members still point at it.
  const int dead_root = FirstRootWithMembers(net->clustering());
  ASSERT_GE(dead_root, 0) << "dataset produced only singleton clusters";
  std::vector<char> live(60, 1);
  live[dead_root] = 0;
  auto view = ReadView::Build(ds.topology.adjacency, ds.features, live,
                              ds.metric, 3);
  ASSERT_EQ(view->num_live(), 59);
  // Answers are still exact against the linear oracle.
  const Feature q = ds.features[dead_root];
  const double r = 3.0 * net->delta();
  std::vector<int> expected;
  for (int i = 0; i < 60; ++i) {
    if (live[i] && ds.metric->Distance(ds.features[i], q) <= r) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(view->Range(q, r).matches, expected);
}

TEST(ReadViewTest, RangeToleranceDoesNotDependOnChurn) {
  // Regression: a view whose clustering had an orphaned cluster used to
  // answer through a fallback that tested d <= r, while the full view,
  // RangeQueryEngine and RangeOracle test d <= r + 1e-12 — so a node 5e-13
  // outside the radius was served or not depending on churn.
  const SensorDataset ds = SmallDs();
  auto net = SmallNet(ds);
  const int dead_root = FirstRootWithMembers(net->clustering());
  ASSERT_GE(dead_root, 0);
  ASSERT_NE(dead_root, 9);
  std::vector<char> live(60, 1);
  live[dead_root] = 0;
  const Feature q = ds.features[dead_root];
  const double r = ds.metric->Distance(q, ds.features[9]) - 5e-13;
  const std::vector<int> oracle = check::RangeOracle(ds.features, *ds.metric,
                                                     q, r);
  ASSERT_NE(std::find(oracle.begin(), oracle.end(), 9), oracle.end());
  std::vector<int> live_oracle;
  for (int id : oracle) {
    if (live[id]) live_oracle.push_back(id);
  }

  auto full = ReadView::Build(ds.topology.adjacency, ds.features, {},
                              ds.metric, 1);
  auto churned = ReadView::Build(ds.topology.adjacency, ds.features, live,
                                 ds.metric, 2);
  EXPECT_EQ(full->Range(q, r).matches, oracle);
  EXPECT_EQ(churned->Range(q, r).matches, live_oracle);
}

// -- Frontend version bookkeeping -------------------------------------------

TEST(ServeFrontendTest, RepublishingUnchangedStateKeepsVersionAndCache) {
  const SensorDataset ds = SmallDs();
  auto net = SmallNet(ds);
  ServeSession session(net.get(), {});
  const std::shared_ptr<const ReadView> view0 = session.frontend().View();
  const ServedRange first = session.frontend().Range(ds.features[0], 10.0);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.answer_version, view0->version());
  session.Publish();  // Nothing changed.
  EXPECT_EQ(session.frontend().View(), view0);
  const ServedRange again = session.frontend().Range(ds.features[0], 10.0);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.answer_version, view0->version());
  EXPECT_TRUE(again.answer == first.answer);
  const ServeCounters c = session.frontend().Counters();
  EXPECT_EQ(c.publishes, 2u);
  EXPECT_EQ(c.views_built, 1u);
  EXPECT_EQ(c.epoch_bumps, 0u);
}

TEST(ServeFrontendTest, FeatureChangeBumpsOnlyTouchedClusters) {
  const SensorDataset ds = SmallDs();
  auto net = SmallNet(ds);
  ServeSession session(net.get(), {});
  const uint64_t v0 = session.frontend().View()->version();
  const ServedRange before = session.frontend().Range(ds.features[3], 25.0);
  EXPECT_EQ(session.frontend().CacheSize(), 1u);

  // Nudge one node's feature without re-clustering it.
  Feature f = net->feature(7);
  f[0] += 1e-6;
  session.UpdateFeatureAndPublish(7, f);

  // One cluster changed: one bump, one new view, and the cached answer from
  // the old version is swept instead of served.
  const ServeCounters c = session.frontend().Counters();
  EXPECT_EQ(c.epoch_bumps, 1u);
  EXPECT_EQ(c.views_built, 2u);
  EXPECT_EQ(c.cache.invalidated, 1u);
  EXPECT_EQ(session.frontend().View()->version(), v0 + 1);
  EXPECT_EQ(session.frontend().CacheSize(), 0u);
  const ServedRange after = session.frontend().Range(ds.features[3], 25.0);
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.view_version, v0 + 1);
  EXPECT_EQ(after.answer_version, v0 + 1);
  EXPECT_TRUE(after.answer == before.answer);
}

// -- Workload ---------------------------------------------------------------

TEST(WorkloadTest, ClientStreamsAreDeterministicAndSkewed) {
  const SensorDataset ds = SmallDs();
  WorkloadConfig cfg;
  cfg.num_clients = 3;
  cfg.ops_per_client = 200;
  cfg.predicate_pool = 8;
  cfg.unique_fraction = 0.0;
  WorkloadGenerator gen(ds.features, 60, cfg, /*seed=*/42);
  WorkloadGenerator gen2(ds.features, 60, cfg, /*seed=*/42);

  std::set<std::string> distinct;
  for (int c = 0; c < cfg.num_clients; ++c) {
    const auto ops = gen.ClientOps(c);
    const auto ops2 = gen2.ClientOps(c);
    ASSERT_EQ(ops.size(), ops2.size());
    for (size_t k = 0; k < ops.size(); ++k) {
      EXPECT_EQ(ops[k].is_range, ops2[k].is_range);
      EXPECT_EQ(ops[k].feature, ops2[k].feature);
      EXPECT_EQ(ops[k].scalar, ops2[k].scalar);
      distinct.insert(ops[k].is_range
                          ? CanonicalRangeKey(ops[k].feature, ops[k].scalar)
                          : CanonicalPathKey(ops[k].source,
                                             ops[k].destination,
                                             ops[k].feature, ops[k].scalar));
    }
  }
  // 600 pool-only ops over 8 predicates: repetition (the cache's food) is
  // guaranteed.
  EXPECT_LE(distinct.size(), 8u);
  // Arrival schedules are deterministic and strictly increasing.
  const auto arr = gen.ArrivalOffsets(1);
  EXPECT_EQ(arr, gen2.ArrivalOffsets(1));
  for (size_t k = 1; k < arr.size(); ++k) EXPECT_GT(arr[k], arr[k - 1]);
}

// -- Scenario knob ----------------------------------------------------------

TEST(ServeScenarioTest, DisableListRoundTripsAndPinsServe) {
  auto knobs = check::ScenarioKnobs::FromDisableList("serve");
  ASSERT_TRUE(knobs.ok());
  EXPECT_FALSE(knobs.value().serve);
  EXPECT_EQ(knobs.value().DisableList(), "serve");
  auto s = check::MakeScenario(1234, knobs.value());
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.value().serve_enabled);
  // The knob must not reshuffle any other aspect (knob-stable streams).
  auto full = check::MakeScenario(1234, check::ScenarioKnobs{});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().delta, s.value().delta);
  EXPECT_EQ(full.value().num_updates, s.value().num_updates);
  EXPECT_EQ(full.value().features, s.value().features);
}

}  // namespace
}  // namespace serve
}  // namespace elink
