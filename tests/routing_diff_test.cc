// Differential tests of the early-exit routing layer against the eager
// references it replaced: Network's per-destination resumable BFS and its
// walked-path table (private, or lent to Network after Network) against a
// RoutingTable over the same live, present-filtered adjacency (hop by hop,
// with and without churn), ResumableBfs against BfsTreeParents, and the
// Backbone's heap-built Prim tree and per-edge hop counts against a
// brute-force rescan and HopDistancesFrom.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cluster/clustering.h"
#include "common/rng.h"
#include "index/backbone.h"
#include "metric/distance.h"
#include "sim/churn.h"
#include "sim/graph.h"
#include "sim/network.h"
#include "sim/observer.h"
#include "sim/topology.h"

namespace elink {
namespace {

Topology RandomDisk(int n, uint64_t seed) {
  Rng rng(seed);
  Result<Topology> t = MakeRandomTopologyWithDegree(n, 1.0, 5.0, &rng);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(t).value();
}

// ---------------------------------------------------------------------------
// ResumableBfs against the full BFS.

AdjacencyList WithoutAbsent(const AdjacencyList& adj,
                            const std::vector<char>& absent) {
  AdjacencyList out(adj.size());
  for (size_t u = 0; u < adj.size(); ++u) {
    if (absent[u]) continue;
    for (int v : adj[u]) {
      if (!absent[v]) out[u].push_back(v);
    }
  }
  return out;
}

// What one ResumableBfs run went through.
struct ResumableRun {
  // Targets answered while the parents were still in the sparse table.
  int sparse_steps = 0;
  bool dense_at_end = false;
};

// Asks one ResumableBfs for the targets in `order` and checks, after every
// step, each answer and every discovered node's parent against the full BFS.
void ExpectResumableMatchesFullBfs(const AdjacencyList& adj,
                                   const std::vector<char>& absent, int root,
                                   const std::vector<int>& order,
                                   ResumableRun* run) {
  const int n = static_cast<int>(adj.size());
  const AdjacencyList ref_adj =
      absent.empty() ? adj : WithoutAbsent(adj, absent);
  const std::vector<int> parent = BfsTreeParents(ref_adj, root);
  const std::vector<int> dist = HopDistancesFrom(ref_adj, root);
  ResumableBfs bfs(n, root);
  for (int target : order) {
    EXPECT_EQ(bfs.Expand(adj, absent, target), dist[target] >= 0);
    EXPECT_EQ(bfs.HopsToRoot(target), dist[target]) << "target " << target;
    // Every node discovered so far already has its final parent.
    for (int v = 0; v < n; ++v) {
      if (bfs.parent(v) >= 0) {
        ASSERT_EQ(bfs.parent(v), parent[v]) << "node " << v;
      }
    }
    if (!bfs.dense()) ++run->sparse_steps;
  }
  run->dense_at_end = bfs.dense();
}

std::vector<int> ShuffledOrder(int n, Rng* rng) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->UniformInt(i + 1)]);
  }
  return order;
}

// Every node by increasing hop distance `dist` (ties by id), unreachable
// nodes last: each step discovers only one more layer, so the ball grows as
// slowly as it can.
std::vector<int> NearestFirstOrder(const std::vector<int>& dist) {
  std::vector<int> order(dist.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  const auto key = [&dist](int v) {
    return dist[v] < 0 ? static_cast<int>(dist.size()) : dist[v];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&key](int a, int b) { return key(a) < key(b); });
  return order;
}

void ExpectResumableMatchesFullBfs(const AdjacencyList& adj,
                                   const std::vector<char>& absent, int root,
                                   Rng* rng) {
  ResumableRun run;
  ExpectResumableMatchesFullBfs(
      adj, absent, root, ShuffledOrder(static_cast<int>(adj.size()), rng),
      &run);
}

TEST(ResumableBfsTest, MatchesFullBfsInAnyQueryOrder) {
  Rng rng(7);
  for (int n : {12, 60, 300}) {
    const Topology t = RandomDisk(n, 100 + n);
    for (int root : {0, n / 2, n - 1}) {
      ExpectResumableMatchesFullBfs(t.adjacency, {}, root, &rng);
    }
  }
  const Topology grid = MakeGridTopology(9, 13);
  ExpectResumableMatchesFullBfs(grid.adjacency, {}, 40, &rng);
}

TEST(ResumableBfsTest, AbsentNodesAreNeitherDiscoveredNorRelays) {
  Rng rng(11);
  const Topology t = RandomDisk(200, 3);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<char> absent(200, 0);
    for (int k = 0; k < 30; ++k) absent[rng.UniformInt(200)] = 1;
    // An absent root reaches nothing but itself.
    const int root = static_cast<int>(rng.UniformInt(200));
    ExpectResumableMatchesFullBfs(t.adjacency, absent, root, &rng);
  }
  std::vector<char> absent(200, 0);
  absent[17] = 1;
  ResumableBfs bfs(200, 17);
  EXPECT_FALSE(bfs.Expand(t.adjacency, absent, 18));
  EXPECT_EQ(bfs.HopsToRoot(17), 0);
}

// Nearest targets first keep a route in its sparse table for many steps
// before its ball passes the switch point (more than max(32, n / 64)
// nodes); every parent found before the switch must survive the move to
// the dense array, and the ones found after it must agree as well.
TEST(ResumableBfsTest, NearestFirstOrderCrossesTheSwitchPoint) {
  Rng rng(13);
  int crossed = 0;
  for (int n : {12, 60, 300, 4000}) {
    const Topology t = RandomDisk(n, 200 + n);
    for (bool masked : {false, true}) {
      std::vector<char> absent;
      if (masked) {
        absent.assign(n, 0);
        for (int k = 0; k < n / 10 + 1; ++k) absent[rng.UniformInt(n)] = 1;
      }
      const AdjacencyList ref_adj =
          masked ? WithoutAbsent(t.adjacency, absent) : t.adjacency;
      for (int root : {0, n / 2, n - 1}) {
        const std::vector<int> dist = HopDistancesFrom(ref_adj, root);
        const int reachable = static_cast<int>(
            std::count_if(dist.begin(), dist.end(),
                          [](int d) { return d >= 0; }));
        SCOPED_TRACE(testing::Message() << "n " << n << " root " << root
                                        << " masked " << masked);
        ResumableRun run;
        ExpectResumableMatchesFullBfs(t.adjacency, absent, root,
                                      NearestFirstOrder(dist), &run);
        if (reachable > 1) {
          EXPECT_GT(run.sparse_steps, 1);
        }
        EXPECT_EQ(run.dense_at_end, reachable > std::max(32, n / 64));
        crossed += run.dense_at_end;
      }
    }
  }
  // Both forms ran: the 12-node routes stayed sparse, the larger ones
  // crossed.
  EXPECT_GE(crossed, 9);
}

// ---------------------------------------------------------------------------
// Network routing against RoutingTable.

class HopRecorder : public SimObserver {
 public:
  void OnHop(double, int from, int to, const Message&) override {
    hops.emplace_back(from, to);
  }
  void OnDrop(double, int from, int to, const Message&) override {
    drops.emplace_back(from, to);
  }
  std::vector<std::pair<int, int>> hops;
  std::vector<std::pair<int, int>> drops;
};

class SinkNode : public Node {
 public:
  void HandleMessage(int, const Message&) override { ++received; }
  void HandleTimer(int) override { on_timer(); }
  int received = 0;
  std::function<void()> on_timer;
};

// What a per-call table rebuild sees: the live links between nodes present
// right now.
AdjacencyList PresentLiveAdjacency(const Network& net) {
  AdjacencyList live(net.num_nodes());
  for (int u = 0; u < net.num_nodes(); ++u) {
    if (!net.IsPresent(u)) continue;
    for (int v : net.neighbors(u)) {
      if (net.IsPresent(v)) live[u].push_back(v);
    }
  }
  return live;
}

struct RoutedCounts {
  int sends = 0;
  int unreachable = 0;
  int dropped_en_route = 0;
};

// Issues one routed send (and a HopDistance query, before or after it) and
// checks both against a RoutingTable built over the adjacency a per-call
// rebuild would have used.
void CheckRoutedSend(Network* net, HopRecorder* rec, int from, int to,
                     bool distance_first, RoutedCounts* counts) {
  ASSERT_NE(from, to);
  const RoutingTable ref(PresentLiveAdjacency(*net), to);
  const int want = ref.HopsToRoot(from);
  if (distance_first) {
    EXPECT_EQ(net->HopDistance(from, to), want);
  }
  rec->hops.clear();
  rec->drops.clear();
  Message m;
  m.type = 1;
  m.category = InternCategory("probe");
  const int got = net->SendRouted(from, to, m);
  if (!distance_first) {
    EXPECT_EQ(net->HopDistance(from, to), want);
  }
  ++counts->sends;
  if (want < 0) {
    ++counts->unreachable;
    EXPECT_EQ(got, 0);
    EXPECT_TRUE(rec->hops.empty());
    ASSERT_EQ(rec->drops.size(), 1u);
    EXPECT_EQ(rec->drops[0], std::make_pair(from, to));
    return;
  }
  EXPECT_EQ(got, want);
  int cur = from;
  for (const auto& [a, b] : rec->hops) {
    ASSERT_EQ(a, cur);
    ASSERT_EQ(b, ref.NextHopToRoot(cur)) << from << " -> " << to;
    cur = b;
  }
  if (rec->drops.empty()) {
    EXPECT_EQ(cur, to);
  } else {
    // A relay that vanishes mid-flight sinks the frame on the reference
    // path's next hop.
    ++counts->dropped_en_route;
    ASSERT_EQ(rec->drops.size(), 1u);
    EXPECT_EQ(rec->drops[0].first, cur);
    EXPECT_EQ(rec->drops[0].second, ref.NextHopToRoot(cur));
  }
}

std::unique_ptr<Network> MakeSinkNetwork(Topology t, const ChurnPlan& churn,
                                         bool synchronous, uint64_t seed,
                                         WalkedPathTable* lent = nullptr) {
  Network::Config cfg;
  cfg.synchronous = synchronous;
  cfg.seed = seed;
  cfg.churn = churn;
  cfg.shared_paths = lent;
  auto net = std::make_unique<Network>(std::move(t), cfg);
  net->InstallNodes([](int) { return std::make_unique<SinkNode>(); });
  return net;
}

// Random (from, to) pairs, each destination asked several times from
// sources at different distances, so BFSs are partially expanded and then
// resumed.
std::vector<std::pair<int, int>> RandomPairs(int n, int count, Rng* rng) {
  std::vector<std::pair<int, int>> pairs;
  const int dests = std::max(1, std::min(n, count / 4));
  std::vector<int> dest(dests);
  for (int& d : dest) d = static_cast<int>(rng->UniformInt(n));
  while (static_cast<int>(pairs.size()) < count) {
    const int to = dest[rng->UniformInt(dests)];
    const int from = static_cast<int>(rng->UniformInt(n));
    if (from != to) pairs.emplace_back(from, to);
  }
  return pairs;
}

// Pairs 2-4 hops apart on `adj`, the nearest sources of each destination
// first and several per destination, so each route's ball stays small for
// many sends: these run routes in the sparse form (and across the switch
// point), which random pairs mostly skip by asking a far source first.
std::vector<std::pair<int, int>> NearPairs(const AdjacencyList& adj, int count,
                                           Rng* rng) {
  const int n = static_cast<int>(adj.size());
  std::vector<std::pair<int, int>> pairs;
  for (int attempt = 0;
       attempt < 4 * count && static_cast<int>(pairs.size()) < count;
       ++attempt) {
    const int to = static_cast<int>(rng->UniformInt(n));
    const std::vector<int> dist = HopDistancesFrom(adj, to);
    std::vector<std::pair<int, int>> near;  // (hops, source)
    for (int v = 0; v < n; ++v) {
      if (dist[v] >= 2 && dist[v] <= 4) near.emplace_back(dist[v], v);
    }
    if (near.empty()) continue;
    std::vector<std::pair<int, int>> picked;
    for (int k = 0; k < 4; ++k) {
      picked.push_back(near[rng->UniformInt(near.size())]);
    }
    std::sort(picked.begin(), picked.end());
    for (const auto& [hops, from] : picked) pairs.emplace_back(from, to);
  }
  EXPECT_GE(static_cast<int>(pairs.size()), count);
  return pairs;
}

TEST(RoutingDiffTest, ChurnFreeMatchesRoutingTableHopByHop) {
  Rng rng(21);
  Rng near_rng(22);
  std::vector<Topology> topologies;
  for (int n : {20, 90, 400, 2500}) topologies.push_back(RandomDisk(n, n));
  topologies.push_back(MakeGridTopology(7, 11));
  topologies.push_back(MakeGridTopology(30, 30));
  for (Topology& t : topologies) {
    const int n = t.num_nodes();
    const std::vector<std::pair<int, int>> near =
        NearPairs(t.adjacency, 80, &near_rng);
    auto net = MakeSinkNetwork(std::move(t), {}, /*synchronous=*/false, n);
    HopRecorder rec;
    net->set_observer(&rec);
    RoutedCounts counts;
    for (const auto& [from, to] : near) {
      CheckRoutedSend(net.get(), &rec, from, to, near_rng.Bernoulli(0.5),
                      &counts);
    }
    for (const auto& [from, to] : RandomPairs(n, 160, &rng)) {
      CheckRoutedSend(net.get(), &rec, from, to, rng.Bernoulli(0.5), &counts);
    }
    net->Run();
    EXPECT_EQ(counts.unreachable, 0);
    EXPECT_EQ(net->stats().dropped_sends(), 0u);
  }
}

// A churn plan over `t`: crash/repair cycles, late joins and link flaps
// (removed, later restored), all at integer times so a synchronous run
// puts protocol events on the same timestamps.
ChurnPlan RandomChurn(const Topology& t, int events, Rng* rng) {
  const int n = t.num_nodes();
  ChurnPlan plan;
  std::set<int> used;
  for (int k = 0; k < events; ++k) {
    const int node = static_cast<int>(rng->UniformInt(n));
    if (!used.insert(node).second) continue;
    const double at = static_cast<double>(1 + rng->UniformInt(40));
    switch (rng->UniformInt(3)) {
      case 0:
        plan.crashes.push_back(
            {node, at, at + static_cast<double>(1 + rng->UniformInt(20))});
        break;
      case 1:
        plan.joins.push_back({node, at});
        break;
      default: {
        const std::vector<int>& nbrs = t.adjacency[node];
        if (nbrs.empty()) break;
        const int other = nbrs[rng->UniformInt(nbrs.size())];
        plan.link_changes.push_back({node, other, at, /*add=*/false});
        plan.link_changes.push_back(
            {node, other, at + static_cast<double>(1 + rng->UniformInt(10)),
             /*add=*/true});
        break;
      }
    }
  }
  return plan;
}

// Routed sends scheduled across the churn window: at integer times (the
// churn events' own timestamps, in a synchronous run) and in between.
void RunChurnDifferential(Topology t, const ChurnPlan& churn,
                          bool synchronous, int sends, uint64_t seed,
                          RoutedCounts* counts,
                          WalkedPathTable* lent = nullptr) {
  const int n = t.num_nodes();
  // Near pairs go out in bursts at one instant each, so a destination's
  // sources share one churn epoch and its route grows step by step.
  Rng near_rng(seed + 1000);
  const std::vector<std::pair<int, int>> near =
      NearPairs(t.adjacency, sends / 4, &near_rng);
  auto net = MakeSinkNetwork(std::move(t), churn, synchronous, seed, lent);
  HopRecorder rec;
  net->set_observer(&rec);
  Network* raw = net.get();
  Rng rng(seed);
  for (const auto& [from, to] : RandomPairs(n, sends, &rng)) {
    const double at = rng.Bernoulli(0.5)
                          ? static_cast<double>(rng.UniformInt(64))
                          : rng.Uniform(0.0, 64.0);
    const bool distance_first = rng.Bernoulli(0.5);
    net->ScheduleAfter(at, [raw, &rec, from = from, to = to, distance_first,
                            counts]() {
      CheckRoutedSend(raw, &rec, from, to, distance_first, counts);
    });
  }
  for (size_t i = 0; i < near.size(); i += 4) {
    const double at = near_rng.Bernoulli(0.5)
                          ? static_cast<double>(near_rng.UniformInt(64))
                          : near_rng.Uniform(0.0, 64.0);
    const size_t end = std::min(near.size(), i + 4);
    net->ScheduleAfter(at, [raw, &rec, &near, i, end, counts]() {
      for (size_t k = i; k < end; ++k) {
        CheckRoutedSend(raw, &rec, near[k].first, near[k].second,
                        /*distance_first=*/k % 2 == 0, counts);
      }
    });
  }
  net->Run();
}

TEST(RoutingDiffTest, ChurnMatchesPerCallRebuildHopByHop) {
  Rng rng(33);
  RoutedCounts counts;
  for (int n : {30, 150, 600}) {
    for (bool synchronous : {true, false}) {
      const Topology t = RandomDisk(n, 7 * n + synchronous);
      const ChurnPlan plan = RandomChurn(t, n / 5, &rng);
      RunChurnDifferential(t, plan, synchronous, 300, n + synchronous,
                           &counts);
    }
  }
  const Topology grid = MakeGridTopology(12, 12);
  RunChurnDifferential(grid, RandomChurn(grid, 40, &rng), true, 300, 5,
                       &counts);
  // The plans really exercised the churn paths.
  EXPECT_GT(counts.unreachable, 0);
  EXPECT_GT(counts.dropped_en_route, 0);
}

// A synchronous run where protocol timers fire on the same timestamps as
// churn events: a route planned at the instant relay 2 crashes, one planned
// at the instant it is repaired, and one sent a time unit before the crash
// whose relay dies in flight.  The per-epoch absence mask must match what a
// rebuild at each call would have seen.
TEST(RoutingDiffTest, SameTimestampChurnAndSendsSeeTheSameAbsence) {
  // 0 - 1 - 2 - 3 - 4 on a line, plus a detour 0 - 5 - 6 - 7 - 4.
  Topology t = MakeGridTopology(1, 8);
  t.adjacency = {{1, 5}, {0, 2}, {1, 3}, {2, 4}, {3, 7}, {0, 6}, {5, 7},
                 {4, 6}};
  ChurnPlan plan;
  plan.crashes.push_back({2, 10.0, 20.0});
  auto net = MakeSinkNetwork(t, plan, /*synchronous=*/true, 1);
  HopRecorder rec;
  net->set_observer(&rec);
  RoutedCounts counts;
  Network* raw = net.get();
  static_cast<SinkNode*>(net->node(0))->on_timer = [raw, &rec, &counts]() {
    CheckRoutedSend(raw, &rec, 0, 4, /*distance_first=*/false, &counts);
    CheckRoutedSend(raw, &rec, 4, 0, /*distance_first=*/true, &counts);
  };
  for (double at : {0.0, 9.0, 10.0, 15.0, 20.0}) net->SetTimer(0, at, 0);
  net->Run();
  EXPECT_EQ(counts.sends, 10);
  // At t=9 the 0 -> 4 frame reaches relay 2 at t=11, after it crashed.
  EXPECT_GT(counts.dropped_en_route, 0);
  EXPECT_EQ(net->HopDistance(0, 4), 4);
}

TEST(RoutingDiffTest, PartitionedLiveGraphDropsTheSend) {
  // Two halves of a line joined only through node 3, which crashes.
  Topology t = MakeGridTopology(1, 7);
  ChurnPlan plan;
  plan.crashes.push_back({3, 5.0, 50.0});
  auto net = MakeSinkNetwork(t, plan, /*synchronous=*/true, 1);
  HopRecorder rec;
  net->set_observer(&rec);
  RoutedCounts counts;
  Network* raw = net.get();
  net->ScheduleAfter(10.0, [raw, &rec, &counts]() {
    EXPECT_EQ(raw->HopDistance(0, 6), -1);
    CheckRoutedSend(raw, &rec, 0, 6, /*distance_first=*/true, &counts);
    CheckRoutedSend(raw, &rec, 5, 1, /*distance_first=*/false, &counts);
    CheckRoutedSend(raw, &rec, 0, 2, /*distance_first=*/false, &counts);
  });
  net->Run();
  EXPECT_EQ(counts.unreachable, 2);
  EXPECT_EQ(net->churn_drops(), 2u);
  EXPECT_EQ(net->stats().dropped_sends(), 2u);
  EXPECT_EQ(static_cast<SinkNode*>(net->node(6))->received, 0);
  EXPECT_EQ(static_cast<SinkNode*>(net->node(2))->received, 1);
}

TEST(RoutingDiffTest, DisconnectedDeploymentDropsInsteadOfAborting) {
  // Two components, {0, 1, 2} and {3, 4}, and no churn.
  Topology t = MakeGridTopology(1, 5);
  t.adjacency = {{1}, {0, 2}, {1}, {4}, {3}};
  auto net = MakeSinkNetwork(t, {}, /*synchronous=*/true, 1);
  HopRecorder rec;
  net->set_observer(&rec);
  Message m;
  m.type = 1;
  m.category = InternCategory("probe");
  EXPECT_EQ(net->HopDistance(0, 4), -1);
  EXPECT_EQ(net->SendRouted(0, 4, m), 0);
  net->Run();
  EXPECT_EQ(net->stats().dropped_sends(), 1u);
  EXPECT_EQ(net->stats().total_sends(), 0u);
  EXPECT_EQ(net->churn_drops(), 0u);
  EXPECT_EQ(rec.drops, (std::vector<std::pair<int, int>>{{0, 4}}));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<SinkNode*>(net->node(i))->received, 0);
  }
}

// ---------------------------------------------------------------------------
// One walked-path table lent to Network after Network.

// Several Networks over one topology share a table, each asking in a new
// order: the old pairs again, new sources for destinations an earlier
// Network routed, and new pairs, with HopDistance before or after
// SendRouted.  Every hop must match RoutingTable, and the table must hold
// each distinct pair once.
TEST(RoutingDiffTest, LentTableServesLaterNetworksHopByHop) {
  Rng rng(41);
  std::vector<Topology> topologies;
  for (int n : {20, 400, 2500}) topologies.push_back(RandomDisk(n, 5 * n));
  topologies.push_back(MakeGridTopology(30, 30));
  for (const Topology& t : topologies) {
    const int n = t.num_nodes();
    WalkedPathTable lent;
    std::vector<std::pair<int, int>> asked;
    std::set<std::pair<int, int>> distinct;
    for (int round = 0; round < 4; ++round) {
      std::vector<std::pair<int, int>> pairs = asked;
      for (size_t k = 0; k < asked.size() / 4; ++k) {
        const int to = asked[rng.UniformInt(asked.size())].second;
        const int from = static_cast<int>(rng.UniformInt(n));
        if (from != to) pairs.emplace_back(from, to);
      }
      for (const auto& pair : NearPairs(t.adjacency, 20, &rng)) {
        pairs.push_back(pair);
      }
      for (const auto& pair : RandomPairs(n, 40, &rng)) pairs.push_back(pair);
      for (size_t i = pairs.size(); i > 1; --i) {
        std::swap(pairs[i - 1], pairs[rng.UniformInt(i)]);
      }
      auto net = MakeSinkNetwork(t, {}, /*synchronous=*/round % 2 == 0,
                                 n + round, &lent);
      HopRecorder rec;
      net->set_observer(&rec);
      RoutedCounts counts;
      for (const auto& [from, to] : pairs) {
        CheckRoutedSend(net.get(), &rec, from, to, rng.Bernoulli(0.5),
                        &counts);
        distinct.emplace(from, to);
      }
      net->Run();
      EXPECT_EQ(counts.unreachable, 0);
      EXPECT_EQ(net->stats().dropped_sends(), 0u);
      EXPECT_EQ(lent.pairs(), distinct.size()) << "round " << round;
      asked.assign(distinct.begin(), distinct.end());
    }
  }
}

// A pair with no path is recorded as such, and a later Network that asks
// it again drops the send exactly as the first one did.
TEST(RoutingDiffTest, LentTableKeepsNoPathPairsAcrossNetworks) {
  // Two components, {0, 1, 2} and {3, 4}, and no churn.
  Topology t = MakeGridTopology(1, 5);
  t.adjacency = {{1}, {0, 2}, {1}, {4}, {3}};
  std::vector<std::pair<int, int>> pairs = {{0, 4}, {4, 0}, {2, 3},
                                            {0, 2}, {3, 4}, {1, 4}};
  WalkedPathTable lent;
  for (int round = 0; round < 3; ++round) {
    auto net = MakeSinkNetwork(t, {}, /*synchronous=*/true, 1, &lent);
    HopRecorder rec;
    net->set_observer(&rec);
    RoutedCounts counts;
    for (const auto& [from, to] : pairs) {
      CheckRoutedSend(net.get(), &rec, from, to, round == 1, &counts);
    }
    net->Run();
    EXPECT_EQ(counts.unreachable, 4);
    EXPECT_EQ(net->stats().dropped_sends(), 4u);
    EXPECT_EQ(net->churn_drops(), 0u);
    EXPECT_EQ(static_cast<SinkNode*>(net->node(4))->received, 1);
    std::reverse(pairs.begin(), pairs.end());
  }
  EXPECT_EQ(lent.pairs(), 6u);
}

// A churn run's paths change at every churn event, so a Network with a
// churn plan must ignore a lent table: it neither reads the static paths
// stored there (every hop is checked against the live graph) nor writes
// or clears them.
TEST(RoutingDiffTest, ChurnRunIgnoresALentTable) {
  Rng rng(57);
  RoutedCounts counts;
  std::vector<Topology> topologies = {RandomDisk(30, 301), RandomDisk(150, 151),
                                      MakeGridTopology(12, 12)};
  for (const Topology& t : topologies) {
    const int n = t.num_nodes();
    // Every static path of the topology.
    WalkedPathTable lent;
    auto filler = MakeSinkNetwork(t, {}, /*synchronous=*/true, 1, &lent);
    for (int to = 0; to < n; ++to) {
      for (int from = 0; from < n; ++from) {
        if (from != to) filler->HopDistance(from, to);
      }
    }
    ASSERT_EQ(lent.pairs(), static_cast<size_t>(n) * (n - 1));
    for (bool synchronous : {true, false}) {
      RunChurnDifferential(t, RandomChurn(t, n / 4, &rng), synchronous, 300,
                           n + synchronous, &counts, &lent);
      EXPECT_EQ(lent.pairs(), static_cast<size_t>(n) * (n - 1));
    }
    // The static paths are still intact.
    auto later = MakeSinkNetwork(t, {}, /*synchronous=*/true, 2, &lent);
    HopRecorder rec;
    later->set_observer(&rec);
    RoutedCounts static_counts;
    for (const auto& [from, to] : RandomPairs(n, 100, &rng)) {
      CheckRoutedSend(later.get(), &rec, from, to, rng.Bernoulli(0.5),
                      &static_counts);
    }
    EXPECT_EQ(static_counts.unreachable, 0);
  }
  // The plans really exercised the churn paths.
  EXPECT_GT(counts.unreachable, 0);
  EXPECT_GT(counts.dropped_en_route, 0);
}

// ---------------------------------------------------------------------------
// Backbone against HopDistancesFrom and a brute-force Prim rescan.

// Clusters grown by a multi-source BFS from random seeds (each cluster is
// connected and rooted at its seed).
Clustering VoronoiClustering(const AdjacencyList& adj, int clusters,
                             Rng* rng) {
  const int n = static_cast<int>(adj.size());
  Clustering c;
  c.root_of.assign(n, -1);
  std::vector<int> queue;
  while (static_cast<int>(queue.size()) < clusters) {
    const int seed = static_cast<int>(rng->UniformInt(n));
    if (c.root_of[seed] >= 0) continue;
    c.root_of[seed] = seed;
    queue.push_back(seed);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    for (int v : adj[u]) {
      if (c.root_of[v] < 0) {
        c.root_of[v] = c.root_of[u];
        queue.push_back(v);
      }
    }
  }
  return c;
}

// The O(L^2) Prim the backbone used before its heap: rescan every visited
// leader's cluster edges and take the cheapest, ties to the smaller new
// leader, then to the first (smallest) tree-side leader.
std::map<int, int> RescanPrimParents(const Clustering& c,
                                     const AdjacencyList& adj,
                                     const std::vector<Feature>& features,
                                     const DistanceMetric& metric, int root) {
  std::map<int, std::set<int>> cluster_adj;
  std::set<int> leaders;
  for (size_t u = 0; u < adj.size(); ++u) {
    leaders.insert(c.root_of[u]);
    for (int v : adj[u]) {
      if (c.root_of[u] != c.root_of[v]) {
        cluster_adj[c.root_of[u]].insert(c.root_of[v]);
      }
    }
  }
  std::map<int, int> parent{{root, root}};
  std::set<int> visited{root};
  while (visited.size() < leaders.size()) {
    double best_w = 1e300;
    int best_from = -1, best_to = -1;
    for (int in : visited) {
      for (int out : cluster_adj[in]) {
        if (visited.count(out)) continue;
        const double w = metric.Distance(features[in], features[out]);
        if (w < best_w || (w == best_w && out < best_to)) {
          best_w = w;
          best_from = in;
          best_to = out;
        }
      }
    }
    EXPECT_GE(best_to, 0);
    if (best_to < 0) break;
    parent[best_to] = best_from;
    visited.insert(best_to);
  }
  return parent;
}

void ExpectBackboneMatchesReferences(const Topology& t, int clusters,
                                     int feature_levels, Rng* rng) {
  const AdjacencyList& adj = t.adjacency;
  const Clustering c = VoronoiClustering(adj, clusters, rng);
  // Integer features from a handful of levels: most Prim steps face ties.
  std::vector<Feature> features(adj.size());
  for (Feature& f : features) {
    f = {static_cast<double>(rng->UniformInt(feature_levels)),
         static_cast<double>(rng->UniformInt(feature_levels))};
  }
  const ManhattanDistance metric;
  const Backbone bb = Backbone::Build(c, adj, nullptr, &features, &metric);
  const std::map<int, int> want =
      RescanPrimParents(c, adj, features, metric, bb.tree_root());
  ASSERT_EQ(want.size(), bb.leaders().size());
  int total = 0;
  for (int leader : bb.leaders()) {
    const int parent = bb.tree_parent(leader);
    EXPECT_EQ(parent, want.at(leader)) << "leader " << leader;
    EXPECT_TRUE(std::is_sorted(bb.tree_children(leader).begin(),
                               bb.tree_children(leader).end()));
    EXPECT_EQ(bb.route_hops(leader, leader), 0);
    if (parent == leader) continue;
    const int hops = HopDistancesFrom(adj, leader)[parent];
    EXPECT_EQ(bb.route_hops(leader, parent), hops);
    EXPECT_EQ(bb.route_hops(parent, leader), hops);
    total += hops;
  }
  EXPECT_EQ(bb.total_tree_hops(), total);
}

TEST(BackboneDiffTest, HeapPrimAndEdgeHopsMatchReferences) {
  Rng rng(5);
  for (int n : {40, 300, 1500}) {
    const Topology t = RandomDisk(n, 3 * n);
    for (int levels : {1, 2, 4}) {
      ExpectBackboneMatchesReferences(t, std::max(2, n / 12), levels, &rng);
    }
  }
  const Topology grid = MakeGridTopology(20, 25);
  for (int levels : {1, 3}) {
    ExpectBackboneMatchesReferences(grid, 60, levels, &rng);
  }
}

TEST(BackboneDiffTest, RouteHopsRejectsNonTreeEdges) {
  Rng rng(9);
  const Topology t = MakeGridTopology(10, 10);
  const Clustering c = VoronoiClustering(t.adjacency, 12, &rng);
  const Backbone bb = Backbone::Build(c, t.adjacency);
  // Two leaves of a tree with at least three leaders are never adjacent.
  std::vector<int> leaves;
  for (int leader : bb.leaders()) {
    if (bb.tree_children(leader).empty()) leaves.push_back(leader);
  }
  ASSERT_GE(leaves.size(), 2u);
  EXPECT_DEATH(bb.route_hops(leaves[0], leaves[1]), "");
}

}  // namespace
}  // namespace elink
