#include "baselines/spanning_forest.h"

#include <algorithm>

#include "proto/wire.h"

namespace elink {

Result<SpanningForestResult> SpanningForestClustering(
    const AdjacencyList& adjacency, const std::vector<Feature>& features,
    const DistanceMetric& metric, double delta) {
  const int n = static_cast<int>(adjacency.size());
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (features.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("features size mismatch");
  }
  if (delta < 0) return Status::InvalidArgument("delta must be non-negative");

  SpanningForestResult result;
  const int dim = static_cast<int>(features[0].size());

  // ---- Phase 1: forest construction. --------------------------------------
  // Every node broadcasts its feature once so neighbors can compute feature
  // distances, then picks the nearest smaller-id neighbor as parent.
  result.forest_parent.assign(n, -1);
  // One indexed batch per node over its smaller-id neighbors; the selection
  // loop then replays the original order and tie-breaks over bit-identical
  // distances, so the forest is unchanged.
  const FeaturePool pool(features);
  std::vector<int> cand;
  std::vector<double> dists;
  for (int i = 0; i < n; ++i) {
    for (size_t nb = 0; nb < adjacency[i].size(); ++nb) {
      result.stats.Record(CategoryIdOf<"sf_feature_exchange">(), dim,
                          wire::NominalFrameSize(0, dim));
    }
    cand.clear();
    for (int j : adjacency[i]) {
      if (j < i) cand.push_back(j);
    }
    int parent = i;  // Forest root by default.
    double best = 0.0;
    if (!cand.empty()) {
      dists.resize(cand.size());
      metric.BatchDistanceIndexed(features[i], pool, cand.data(), cand.size(),
                                  dists.data());
      for (size_t c = 0; c < cand.size(); ++c) {
        const int j = cand[c];
        const double d = dists[c];
        if (parent == i || d < best || (d == best && j < parent)) {
          parent = j;
          best = d;
        }
      }
    }
    result.forest_parent[i] = parent;
  }

  // ---- Phase 2: bottom-up delta-compactness check. -------------------------
  // Since parents have smaller ids, descending id order visits all children
  // before their parent.
  // Accepted branch heights per node.  The paper's pseudo-code keeps only
  // the single highest branch, which can let a *second*-highest accepted
  // branch pair with a later arrival to exceed delta after a detach; keeping
  // all accepted branches (still O(total children) work) closes that gap so
  // the output always satisfies Definition 1.
  std::vector<std::vector<std::pair<double, int>>> branches(n);
  std::vector<double> height(n, 0.0);
  std::vector<char> is_cluster_root(n, 0);
  for (int i = 0; i < n; ++i) {
    if (result.forest_parent[i] == i) is_cluster_root[i] = 1;
  }
  auto max_branch = [&](int p) {
    double best = 0.0;
    for (const auto& [h, c] : branches[p]) best = std::max(best, h);
    return best;
  };

  for (int i = n - 1; i >= 0; --i) {
    const int p = result.forest_parent[i];
    if (p == i) continue;  // Forest root sends nothing.
    // Child i reports (height, feature) to its parent: height + dim units.
    result.stats.Record(CategoryIdOf<"sf_height_report">(), 1 + dim,
                        wire::NominalFrameSize(0, 1 + dim));
    const double h = height[i] + metric.Distance(features[i], features[p]);
    bool detach_self = false;
    while (h + height[p] > delta + 1e-12) {
      if (h >= height[p] || branches[p].empty()) {
        // The new branch is the heavier one: detach the arriving subtree.
        is_cluster_root[i] = 1;
        result.stats.Record(CategoryIdOf<"sf_detach">(), 1);
        detach_self = true;
        break;
      }
      // Detach the heaviest accepted branch and re-check.
      auto it = std::max_element(branches[p].begin(), branches[p].end());
      is_cluster_root[it->second] = 1;
      result.stats.Record(CategoryIdOf<"sf_detach">(), 1);
      branches[p].erase(it);
      height[p] = max_branch(p);
    }
    if (!detach_self) {
      branches[p].emplace_back(h, i);
      height[p] = std::max(height[p], h);
    }
  }

  // Cluster roots are forest roots plus detach points; every node belongs to
  // the cluster of its nearest non-detached ancestor.
  result.clustering.root_of.assign(n, -1);
  // Ascending ids: parents are resolved before children.
  for (int i = 0; i < n; ++i) {
    if (is_cluster_root[i]) {
      result.clustering.root_of[i] = i;
    } else {
      result.clustering.root_of[i] =
          result.clustering.root_of[result.forest_parent[i]];
    }
  }
  return result;
}

}  // namespace elink
