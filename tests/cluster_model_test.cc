// Tests for src/cluster: the clustering model (validation, repair, cluster
// trees) and the quadtree sentinel decomposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "cluster/clustering.h"
#include "cluster/quadtree.h"
#include "common/rng.h"
#include "common/strings.h"
#include "metric/distance.h"
#include "sim/topology.h"

namespace elink {
namespace {

WeightedEuclidean OneDim() { return WeightedEuclidean::Euclidean(1); }

TEST(ClusteringTest, NumClustersAndGroups) {
  Clustering c;
  c.root_of = {0, 0, 2, 2, 2};
  EXPECT_EQ(c.num_clusters(), 2);
  const auto groups = c.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, 0);
  EXPECT_EQ(groups[0].second, (std::vector<int>{0, 1}));
  EXPECT_EQ(groups[1].second, (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(c.SameCluster(0, 1));
  EXPECT_FALSE(c.SameCluster(1, 2));
}

TEST(ValidateTest, AcceptsValidClustering) {
  // Path 0-1-2-3 with features 0, 1, 5, 6 and delta 2: {0,1}, {2,3}.
  Topology t = MakeGridTopology(1, 4);
  std::vector<Feature> f = {{0.0}, {1.0}, {5.0}, {6.0}};
  Clustering c;
  c.root_of = {0, 0, 2, 2};
  EXPECT_TRUE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 2.0).ok());
}

TEST(ValidateTest, RejectsCompactnessViolation) {
  Topology t = MakeGridTopology(1, 3);
  std::vector<Feature> f = {{0.0}, {1.0}, {9.0}};
  Clustering c;
  c.root_of = {0, 0, 0};
  Status st = ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 2.0);
  EXPECT_FALSE(st.ok());
}

TEST(ValidateTest, RejectsDisconnectedCluster) {
  // Path 0-1-2: cluster {0, 2} is disconnected without 1.
  Topology t = MakeGridTopology(1, 3);
  std::vector<Feature> f = {{0.0}, {0.0}, {0.0}};
  Clustering c;
  c.root_of = {0, 1, 0};
  EXPECT_FALSE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 5.0).ok());
}

TEST(ValidateTest, RejectsUnclusteredNode) {
  Topology t = MakeGridTopology(1, 2);
  std::vector<Feature> f = {{0.0}, {0.0}};
  Clustering c;
  c.root_of = {0, -1};
  EXPECT_FALSE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 5.0).ok());
}

TEST(ValidateTest, RejectsRootOutsideOwnCluster) {
  Topology t = MakeGridTopology(1, 2);
  std::vector<Feature> f = {{0.0}, {0.0}};
  Clustering c;
  c.root_of = {1, 0};  // Each points at the other: no root is its own.
  EXPECT_FALSE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 5.0).ok());
}

TEST(RepairTest, SplitsStrandedFragment) {
  // Path 0-1-2-3-4; cluster A = {0,1,3,4} (1 and 3 not adjacent), B = {2}.
  Topology t = MakeGridTopology(1, 5);
  Clustering c;
  c.root_of = {0, 0, 2, 0, 0};
  const int created = RepairDisconnectedClusters(&c, t.adjacency);
  EXPECT_EQ(created, 1);
  // Component containing root 0 keeps it; {3,4} promotes 3.
  EXPECT_EQ(c.root_of[0], 0);
  EXPECT_EQ(c.root_of[1], 0);
  EXPECT_EQ(c.root_of[2], 2);
  EXPECT_EQ(c.root_of[3], 3);
  EXPECT_EQ(c.root_of[4], 3);
  std::vector<Feature> f(5, Feature{0.0});
  EXPECT_TRUE(
      ValidateDeltaClustering(c, t.adjacency, f, OneDim(), 1.0).ok());
}

TEST(RepairTest, NoOpOnConnectedClusters) {
  Topology t = MakeGridTopology(2, 3);
  Clustering c;
  c.root_of = {0, 0, 2, 0, 0, 2};
  Clustering before = c;
  EXPECT_EQ(RepairDisconnectedClusters(&c, t.adjacency), 0);
  EXPECT_EQ(c.root_of, before.root_of);
}

TEST(ClusterTreesTest, TreesSpanClustersAndRespectEdges) {
  Topology t = MakeGridTopology(3, 3);
  Clustering c;
  // Left 2 columns one cluster rooted at 4, right column rooted at 2.
  c.root_of = {4, 4, 2, 4, 4, 2, 4, 4, 2};
  const auto parent = BuildClusterTrees(c, t.adjacency);
  for (int i = 0; i < 9; ++i) {
    if (i == c.root_of[i]) {
      EXPECT_EQ(parent[i], i);
    } else {
      // Parent is a communication neighbor in the same cluster.
      EXPECT_TRUE(t.HasEdge(i, parent[i]));
      EXPECT_EQ(c.root_of[parent[i]], c.root_of[i]);
      // Walking parents reaches the root.
      int cur = i, steps = 0;
      while (cur != c.root_of[i] && steps < 10) {
        cur = parent[cur];
        ++steps;
      }
      EXPECT_EQ(cur, c.root_of[i]);
    }
  }
}

// -- One pass per clustering vs the per-cluster mask references ---------------

// The per-cluster N-wide mask implementations that the one-pass labelling
// replaced, kept verbatim as references.
Status ReferenceValidate(const Clustering& clustering,
                         const AdjacencyList& adjacency,
                         const std::vector<Feature>& features,
                         const DistanceMetric& metric, double delta) {
  const size_t n = adjacency.size();
  if (clustering.root_of.size() != n) {
    return Status::FailedPrecondition("clustering size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    const int r = clustering.root_of[i];
    if (r < 0 || static_cast<size_t>(r) >= n) {
      return Status::FailedPrecondition(
          StringPrintf("node %zu unclustered or root out of range", i));
    }
    if (clustering.root_of[r] != r) {
      return Status::FailedPrecondition(StringPrintf(
          "root %d of node %zu is not a member of its own cluster", r, i));
    }
  }
  for (const auto& [root, members] : clustering.Groups()) {
    std::vector<char> mask(n, 0);
    for (int m : members) mask[m] = 1;
    if (!IsInducedConnected(adjacency, mask)) {
      return Status::FailedPrecondition(
          StringPrintf("cluster rooted at %d is disconnected", root));
    }
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        const double d =
            metric.Distance(features[members[a]], features[members[b]]);
        if (d > delta + 1e-9) {
          return Status::FailedPrecondition(StringPrintf(
              "cluster rooted at %d violates delta: d(%d, %d) = %.6f > %.6f",
              root, members[a], members[b], d, delta));
        }
      }
    }
  }
  return Status::OK();
}

int ReferenceRepair(Clustering* clustering, const AdjacencyList& adjacency) {
  const size_t n = adjacency.size();
  int created = 0;
  for (const auto& [root, members] : clustering->Groups()) {
    std::vector<char> mask(n, 0);
    for (int m : members) mask[m] = 1;
    const std::vector<int> comp = InducedComponents(adjacency, mask);
    const int root_comp = comp[root];
    std::map<int, int> new_root_of_comp;
    for (int m : members) {
      if (comp[m] == root_comp) continue;
      auto [it, inserted] = new_root_of_comp.emplace(comp[m], m);
      if (!inserted) it->second = std::min(it->second, m);
    }
    created += static_cast<int>(new_root_of_comp.size());
    for (int m : members) {
      if (comp[m] != root_comp) {
        clustering->root_of[m] = new_root_of_comp[comp[m]];
      }
    }
  }
  return created;
}

std::vector<int> ReferenceTrees(const Clustering& clustering,
                                const AdjacencyList& adjacency) {
  const size_t n = adjacency.size();
  std::vector<int> parent(n, -1);
  for (const auto& [root, members] : clustering.Groups()) {
    std::vector<char> mask(n, 0);
    for (int m : members) mask[m] = 1;
    std::deque<int> queue{root};
    parent[root] = root;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adjacency[u]) {
        if (mask[v] && parent[v] < 0) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
  }
  return parent;
}

/// A random clustering of `n` nodes: BFS-grown connected clusters, then a
/// share of nodes moved to a random other cluster (stranding fragments),
/// and sometimes a root demoted so it leaves its own cluster.
Clustering RandomClustering(const AdjacencyList& adj, Rng* rng) {
  const int n = static_cast<int>(adj.size());
  Clustering c;
  c.root_of.assign(n, -1);
  std::vector<int> roots;
  for (int start = 0; start < n; ++start) {
    if (c.root_of[start] >= 0) continue;
    roots.push_back(start);
    const size_t cap = 1 + rng->UniformInt(12);
    std::vector<int> grown{start};
    c.root_of[start] = start;
    for (size_t h = 0; h < grown.size() && grown.size() < cap; ++h) {
      for (int v : adj[grown[h]]) {
        if (c.root_of[v] < 0 && grown.size() < cap) {
          c.root_of[v] = start;
          grown.push_back(v);
        }
      }
    }
  }
  const uint64_t moves = rng->UniformInt(1 + n / 4);
  for (uint64_t k = 0; k < moves; ++k) {
    const int v = static_cast<int>(rng->UniformInt(n));
    if (c.root_of[v] == v) continue;
    c.root_of[v] = roots[rng->UniformInt(roots.size())];
  }
  if (rng->UniformInt(8) == 0) {
    const int r = roots[rng->UniformInt(roots.size())];
    const int other = roots[rng->UniformInt(roots.size())];
    if (other != r) c.root_of[r] = other;
  }
  return c;
}

TEST(ClusteringDiffTest, OnePassMatchesPerMaskReferences) {
  Rng rng(4242);
  int disconnected = 0, delta_violations = 0, valid = 0, rootless = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(120));
    Result<Topology> t = MakeRandomTopology(n, 10.0, 1.5 + rng.Uniform(0, 2),
                                            &rng, /*force_connectivity=*/
                                            rng.UniformInt(2) == 0);
    ASSERT_TRUE(t.ok());
    const AdjacencyList& adj = t.value().adjacency;
    std::vector<Feature> f(n);
    for (Feature& x : f) x = {rng.Uniform(0, 10)};
    const double delta = rng.Uniform(0, 12);
    const Clustering c = RandomClustering(adj, &rng);

    const Status got = ValidateDeltaClustering(c, adj, f, OneDim(), delta);
    const Status want = ReferenceValidate(c, adj, f, OneDim(), delta);
    ASSERT_EQ(got.ToString(), want.ToString()) << "trial " << trial;
    const std::string msg = got.ToString();
    disconnected += msg.find("disconnected") != std::string::npos;
    delta_violations += msg.find("violates delta") != std::string::npos;
    rootless += msg.find("own cluster") != std::string::npos;
    valid += got.ok();

    // Trees over unrepaired clusters too: stranded members keep parent -1.
    ASSERT_EQ(BuildClusterTrees(c, adj), ReferenceTrees(c, adj))
        << "trial " << trial;

    Clustering repaired = c, reference = c;
    ASSERT_EQ(RepairDisconnectedClusters(&repaired, adj),
              ReferenceRepair(&reference, adj))
        << "trial " << trial;
    ASSERT_EQ(repaired.root_of, reference.root_of) << "trial " << trial;
    ASSERT_EQ(BuildClusterTrees(repaired, adj),
              ReferenceTrees(repaired, adj))
        << "trial " << trial;
  }
  // Every branch of the comparison was exercised.
  EXPECT_GT(disconnected, 20);
  EXPECT_GT(delta_violations, 20);
  EXPECT_GT(valid, 5);
  EXPECT_GT(rootless, 5);
}

// -- Quadtree -----------------------------------------------------------------

TEST(QuadtreeTest, EveryNodeExactlyOneSentinelLevel) {
  Topology t = MakeGridTopology(8, 8);
  const auto q = QuadtreeDecomposition::Build(t);
  int total = 0;
  for (int l = 0; l < q.num_levels(); ++l) {
    total += static_cast<int>(q.sentinel_set(l).size());
    for (int node : q.sentinel_set(l)) EXPECT_EQ(q.level_of(node), l);
  }
  EXPECT_EQ(total, 64);
  EXPECT_EQ(q.sentinel_set(0).size(), 1u);
}

TEST(QuadtreeTest, SentinelSetSizesBoundedByPowersOfFour) {
  Topology t = MakeGridTopology(8, 8);
  const auto q = QuadtreeDecomposition::Build(t);
  long long cap = 1;
  for (int l = 0; l < q.num_levels(); ++l) {
    EXPECT_LE(static_cast<long long>(q.sentinel_set(l).size()), cap);
    cap *= 4;
  }
}

TEST(QuadtreeTest, QuadParentIsOneLevelUp) {
  Topology t = MakeGridTopology(8, 8);
  const auto q = QuadtreeDecomposition::Build(t);
  for (int i = 0; i < t.num_nodes(); ++i) {
    if (i == q.root()) {
      EXPECT_EQ(q.quad_parent(i), i);
      EXPECT_EQ(q.level_of(i), 0);
    } else {
      EXPECT_EQ(q.level_of(q.quad_parent(i)), q.level_of(i) - 1);
    }
  }
}

TEST(QuadtreeTest, QuadChildrenInverseOfParent) {
  Topology t = MakeGridTopology(6, 9);
  const auto q = QuadtreeDecomposition::Build(t);
  for (int i = 0; i < t.num_nodes(); ++i) {
    for (int child : q.quad_children(i)) {
      EXPECT_EQ(q.quad_parent(child), i);
    }
    if (i != q.root()) {
      const auto& siblings = q.quad_children(q.quad_parent(i));
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), i),
                siblings.end());
    }
  }
}

TEST(QuadtreeTest, RootNearCenter) {
  Topology t = MakeGridTopology(9, 9);  // Center node exists: (4,4) = 40.
  const auto q = QuadtreeDecomposition::Build(t);
  EXPECT_EQ(q.root(), 40);
}

TEST(QuadtreeTest, DepthLogarithmicOnGrids) {
  // The paper: alpha ~ log4(3N + 1) - 1 for grids; allow the +k slack of
  // footnote 2.
  for (int side : {4, 8, 16}) {
    Topology t = MakeGridTopology(side, side);
    const auto q = QuadtreeDecomposition::Build(t);
    const double alpha_paper =
        std::log(3.0 * t.num_nodes() + 1) / std::log(4.0) - 1.0;
    EXPECT_LE(q.num_levels() - 1, static_cast<int>(alpha_paper) + 3);
  }
}

TEST(QuadtreeTest, HandlesRandomTopology) {
  Rng rng(91);
  Result<Topology> t = MakeRandomTopology(200, 10.0, 1.2, &rng);
  ASSERT_TRUE(t.ok());
  const auto q = QuadtreeDecomposition::Build(t.value());
  int total = 0;
  for (int l = 0; l < q.num_levels(); ++l) {
    total += static_cast<int>(q.sentinel_set(l).size());
  }
  EXPECT_EQ(total, 200);
}

TEST(QuadtreeTest, HandlesCoincidentPositions) {
  // All nodes at the same position: the depth cap must assign everyone.
  Topology t;
  t.width = 1.0;
  t.height = 1.0;
  t.positions.assign(10, Point2D{0.5, 0.5});
  t.adjacency.assign(10, {});
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i != j) t.adjacency[i].push_back(j);
    }
  }
  const auto q = QuadtreeDecomposition::Build(t, /*max_levels=*/4);
  int total = 0;
  for (int l = 0; l < q.num_levels(); ++l) {
    total += static_cast<int>(q.sentinel_set(l).size());
  }
  EXPECT_EQ(total, 10);
  EXPECT_LE(q.num_levels(), 4);
}

TEST(QuadtreeTest, SingleNode) {
  Topology t = MakeGridTopology(1, 1);
  const auto q = QuadtreeDecomposition::Build(t);
  EXPECT_EQ(q.num_levels(), 1);
  EXPECT_EQ(q.root(), 0);
  EXPECT_TRUE(q.quad_children(0).empty());
}

}  // namespace
}  // namespace elink
