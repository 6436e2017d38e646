#include "index/mtree.h"

#include <algorithm>

namespace elink {

ClusterIndex ClusterIndex::Build(const Clustering& clustering,
                                 const std::vector<int>& tree_parent,
                                 const std::vector<Feature>& features,
                                 const DistanceMetric& metric,
                                 MessageStats* build_stats) {
  const int n = static_cast<int>(tree_parent.size());
  ClusterIndex index;
  index.features_ = features;
  index.parent_ = tree_parent;
  index.radius_.assign(n, 0.0);
  index.children_.assign(n, {});
  index.subtree_.assign(n, {});
  index.depth_.assign(n, 0);

  for (int i = 0; i < n; ++i) {
    ELINK_CHECK(clustering.root_of[i] >= 0);
    if (tree_parent[i] != i) index.children_[tree_parent[i]].push_back(i);
  }

  // Depths, then process nodes deepest-first so children finish before
  // parents (the bottom-up wave of Section 7.1).
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) {
    int d = 0;
    for (int cur = i; tree_parent[cur] != cur; cur = tree_parent[cur]) ++d;
    index.depth_[i] = d;
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (index.depth_[a] != index.depth_[b]) {
      return index.depth_[a] > index.depth_[b];
    }
    return a < b;
  });

  // Covering radii are batch scans: one SoA transpose of the feature set,
  // then each parent measures all its children with one indexed batch call
  // (bit-identical to per-child Distance, so radii — and everything derived
  // from them — are unchanged).
  const FeaturePool pool(features);
  std::vector<double> dists;
  const int dim = n > 0 ? static_cast<int>(features[0].size()) : 0;
  for (int i : order) {
    index.subtree_[i].push_back(i);
    const std::vector<int>& kids = index.children_[i];
    if (!kids.empty()) {
      dists.resize(kids.size());
      metric.BatchDistanceIndexed(features[i], pool, kids.data(), kids.size(),
                                  dists.data());
    }
    for (size_t c = 0; c < kids.size(); ++c) {
      const int child = kids[c];
      const double reach = dists[c] + index.radius_[child];
      index.radius_[i] = std::max(index.radius_[i], reach);
      index.subtree_[i].insert(index.subtree_[i].end(),
                               index.subtree_[child].begin(),
                               index.subtree_[child].end());
      if (build_stats != nullptr) {
        // Child reports (routing feature, radius) to its parent.
        build_stats->Record(CategoryIdOf<"mtree_build">(), dim + 1);
      }
    }
    std::sort(index.subtree_[i].begin(), index.subtree_[i].end());
  }

  // Exact root-ball radii, one per cluster root: batch each root against its
  // members (max over the same distance values, so order cannot matter).
  index.root_ball_.assign(n, 0.0);
  std::vector<std::vector<int>> members(n);
  for (int i = 0; i < n; ++i) members[clustering.root_of[i]].push_back(i);
  for (int root = 0; root < n; ++root) {
    if (members[root].empty()) continue;
    dists.resize(members[root].size());
    metric.BatchDistanceIndexed(features[root], pool, members[root].data(),
                                members[root].size(), dists.data());
    for (const double d : dists) {
      index.root_ball_[root] = std::max(index.root_ball_[root], d);
    }
  }
  return index;
}

}  // namespace elink
