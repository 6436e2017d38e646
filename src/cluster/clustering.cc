#include "cluster/clustering.h"

#include <deque>
#include <map>
#include <set>

#include "common/strings.h"

namespace elink {

namespace {

/// Components of the same-root subgraph (the edges whose endpoints share a
/// cluster root), labelled in one pass: label[v] is the smallest id of v's
/// component, -1 for unclustered nodes.  A cluster is connected exactly
/// when all its members share one label.
std::vector<int> SameRootComponents(const std::vector<int>& root_of,
                                    const AdjacencyList& adjacency) {
  const int n = static_cast<int>(adjacency.size());
  std::vector<int> label(n, -1);
  std::vector<int> queue;
  for (int s = 0; s < n; ++s) {
    if (root_of[s] < 0 || label[s] >= 0) continue;
    label[s] = s;
    queue.assign(1, s);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (int v : adjacency[queue[head]]) {
        if (label[v] < 0 && root_of[v] == root_of[s]) {
          label[v] = s;
          queue.push_back(v);
        }
      }
    }
  }
  return label;
}

}  // namespace

int Clustering::num_clusters() const {
  std::set<int> roots;
  for (int r : root_of) {
    if (r >= 0) roots.insert(r);
  }
  return static_cast<int>(roots.size());
}

std::vector<std::pair<int, std::vector<int>>> Clustering::Groups() const {
  std::map<int, std::vector<int>> groups;
  for (size_t i = 0; i < root_of.size(); ++i) {
    if (root_of[i] >= 0) groups[root_of[i]].push_back(static_cast<int>(i));
  }
  return {groups.begin(), groups.end()};
}

Status ValidateDeltaClustering(const Clustering& clustering,
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
  const std::vector<int> label =
      SameRootComponents(clustering.root_of, adjacency);
  for (const auto& [root, members] : clustering.Groups()) {
    // Connectivity of the induced subgraph.
    for (int m : members) {
      if (label[m] != label[members.front()]) {
        return Status::FailedPrecondition(
            StringPrintf("cluster rooted at %d is disconnected", root));
      }
    }
    // Pairwise delta-compactness.
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

int RepairDisconnectedClusters(Clustering* clustering,
                               const AdjacencyList& adjacency) {
  std::vector<int>& root_of = clustering->root_of;
  const std::vector<int> label = SameRootComponents(root_of, adjacency);
  // A component is stranded unless it holds its cluster's root; its
  // smallest id (its label) becomes its new root.  Decided for every
  // component before any node moves.
  const size_t n = adjacency.size();
  std::vector<char> stranded(n, 0);
  int created = 0;
  for (size_t s = 0; s < n; ++s) {
    if (label[s] != static_cast<int>(s)) continue;
    const int root = root_of[s];
    if (root_of[root] != root || label[root] != label[s]) {
      stranded[s] = 1;
      ++created;
    }
  }
  for (size_t m = 0; m < n; ++m) {
    if (label[m] >= 0 && stranded[label[m]]) root_of[m] = label[m];
  }
  return created;
}

std::vector<int> BuildClusterTrees(const Clustering& clustering,
                                   const AdjacencyList& adjacency) {
  const size_t n = adjacency.size();
  std::vector<int> parent(n, -1);
  for (const auto& [root, members] : clustering.Groups()) {
    // BFS from the root restricted to cluster members.
    std::deque<int> queue{root};
    parent[root] = root;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adjacency[u]) {
        if (clustering.root_of[v] == root && parent[v] < 0) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
  }
  return parent;
}

}  // namespace elink
