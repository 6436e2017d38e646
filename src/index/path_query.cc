#include "index/path_query.h"

#include <algorithm>
#include <deque>
#include <set>

#include "index/screen.h"

namespace elink {

PathQueryEngine::PathQueryEngine(const Clustering& clustering,
                                 const ClusterIndex& index,
                                 const Backbone& backbone,
                                 const AdjacencyList& adjacency,
                                 const std::vector<Feature>& features,
                                 const DistanceMetric& metric,
                                 double /*delta*/)
    : clustering_(clustering),
      index_(index),
      backbone_(backbone),
      adjacency_(adjacency),
      features_(features),
      metric_(metric),
      feature_dim_(features.empty() ? 0
                                    : static_cast<int>(features[0].size())),
      upper_(backbone, index, features, metric) {}

void PathQueryEngine::VisitBackbone(int leader, const Feature& danger,
                                    double gamma, std::vector<char>* safe,
                                    PathQueryResult* result) const {
  const int units = feature_dim_ + 1;
  // Classify this leader's own cluster with the delta-compactness screen.
  const double ball = index_.root_ball_radius(leader);
  const double d = metric_.Distance(index_.routing_feature(leader), danger);
  if (screen::ClusterSafe(d, gamma, ball)) {
    ++result->clusters_safe;
    for (int m : index_.subtree(leader)) (*safe)[m] = 1;
  } else if (screen::ClusterUnsafe(d, gamma, ball)) {
    ++result->clusters_unsafe;
  } else {
    ++result->clusters_drilled;
    ClassifySubtree(leader, danger, gamma, safe, result);
  }
  // Decide per backbone child using the cached upper-level radii.
  for (int child : backbone_.tree_children(leader)) {
    const double child_radius = upper_.radius(child);
    const double d_child = metric_.Distance(features_[child], danger);
    if (screen::SubtreeSafe(d_child, gamma, child_radius)) {
      // Whole backbone subtree safe: no transmissions needed.
      for (int m : upper_.members(child)) (*safe)[m] = 1;
      continue;
    }
    if (screen::SubtreeUnsafe(d_child, gamma, child_radius)) {
      continue;  // Whole backbone subtree unsafe.
    }
    const int hops = backbone_.route_hops(leader, child);
    for (int h = 0; h < hops; ++h) {
      result->stats.Record(CategoryIdOf<"path_backbone">(), units);
    }
    VisitBackbone(child, danger, gamma, safe, result);
  }
}

bool PathQueryEngine::IsSafe(int node, const Feature& danger,
                             double gamma) const {
  return screen::Safe(metric_.Distance(features_[node], danger), gamma);
}

void PathQueryEngine::ClassifySubtree(int node, const Feature& danger,
                                      double gamma, std::vector<char>* safe,
                                      PathQueryResult* result) const {
  const double d = metric_.Distance(index_.routing_feature(node), danger);
  const double radius = index_.covering_radius(node);
  if (screen::SubtreeSafe(d, gamma, radius)) {
    // Every feature in the subtree is at least gamma from the danger.
    for (int m : index_.subtree(node)) (*safe)[m] = 1;
    return;
  }
  if (screen::SubtreeUnsafe(d, gamma, radius)) {
    // Every feature in the subtree is unsafe; nothing to mark.
    return;
  }
  // Inconclusive: classify this node exactly and drill into each child.
  (*safe)[node] = screen::Safe(d, gamma) ? 1 : 0;
  for (int child : index_.children(node)) {
    // Forwarding the danger feature one level down the cluster tree.
    result->stats.Record(CategoryIdOf<"path_drilldown">(), feature_dim_ + 1);
    ClassifySubtree(child, danger, gamma, safe, result);
  }
}

PathQueryResult PathQueryEngine::Query(int source, int destination,
                                       const Feature& danger,
                                       double gamma) const {
  PathQueryResult result;
  const int n = static_cast<int>(adjacency_.size());
  const int units = feature_dim_ + 1;  // Danger feature + gamma.

  // Source -> its cluster root.
  for (int d = 0; d < index_.depth(source); ++d) {
    result.stats.Record(CategoryIdOf<"path_route">(), units);
  }
  // If the source's own cluster is conclusively unsafe, the root suppresses
  // the query immediately (Section 7.3).
  {
    const int src_root = clustering_.root_of[source];
    const double d =
        metric_.Distance(index_.routing_feature(src_root), danger);
    if (screen::SubtreeUnsafe(d, gamma, index_.covering_radius(src_root))) {
      result.found = false;
      return result;
    }
  }

  // Disseminate the query selectively down the backbone tree: the
  // upper-level covering radii let whole backbone subtrees be classified
  // safe/unsafe without visiting their leaders.  The root leg from the
  // source's leader to the backbone root is charged first.
  for (int cur = clustering_.root_of[source];
       backbone_.tree_parent(cur) != cur; cur = backbone_.tree_parent(cur)) {
    const int hops = backbone_.route_hops(cur, backbone_.tree_parent(cur));
    for (int h = 0; h < hops; ++h) {
      result.stats.Record(CategoryIdOf<"path_route">(), units);
    }
  }
  std::vector<char> safe(n, 0);
  VisitBackbone(backbone_.tree_root(), danger, gamma, &safe, &result);
  SearchSafeRegion(source, destination, safe, adjacency_, clustering_,
                   backbone_, &result);
  return result;
}

void SearchSafeRegion(int source, int destination,
                      const std::vector<char>& safe,
                      const AdjacencyList& adjacency,
                      const Clustering& clustering, const Backbone& backbone,
                      PathQueryResult* result) {
  result->found = false;
  if (!safe[source] || !safe[destination]) return;
  const int n = static_cast<int>(adjacency.size());
  std::vector<int> parent(n, -1);
  std::deque<int> queue{source};
  parent[source] = source;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    if (u == destination) break;
    for (int v : adjacency[u]) {
      if (safe[v] && parent[v] < 0) {
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  if (parent[destination] < 0) return;
  result->found = true;
  for (int cur = destination; cur != source; cur = parent[cur]) {
    result->path.push_back(cur);
  }
  result->path.push_back(source);
  std::reverse(result->path.begin(), result->path.end());
  // One probe per safe cluster over its backbone link, then the path trace
  // back to the source.
  std::set<int> safe_clusters;
  for (int i = 0; i < n; ++i) {
    if (safe[i]) safe_clusters.insert(clustering.root_of[i]);
  }
  for (int leader : safe_clusters) {
    const int p = backbone.tree_parent(leader);
    if (p != leader) {
      const int hops = backbone.route_hops(leader, p);
      for (int h = 0; h < hops; ++h) {
        result->stats.Record(CategoryIdOf<"path_search">(), 1);
      }
    }
  }
  for (size_t h = 0; h + 1 < result->path.size(); ++h) {
    result->stats.Record(CategoryIdOf<"path_trace">(), 1);
  }
}

PathQueryResult PathQueryEngine::BfsBaseline(int source, int destination,
                                             const Feature& danger,
                                             double gamma) const {
  PathQueryResult result;
  const int n = static_cast<int>(adjacency_.size());
  if (!IsSafe(source, danger, gamma) || !IsSafe(destination, danger, gamma)) {
    result.found = false;
    return result;
  }
  // Flooding: every reached safe node broadcasts once to all its neighbors.
  std::vector<int> parent(n, -1);
  std::deque<int> queue{source};
  parent[source] = source;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (size_t nb = 0; nb < adjacency_[u].size(); ++nb) {
      result.stats.Record(CategoryIdOf<"bfs_flood">(), feature_dim_ + 1);
    }
    for (int v : adjacency_[u]) {
      if (parent[v] < 0 && IsSafe(v, danger, gamma)) {
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  if (parent[destination] < 0) {
    result.found = false;
    return result;
  }
  result.found = true;
  for (int cur = destination; cur != source; cur = parent[cur]) {
    result.path.push_back(cur);
  }
  result.path.push_back(source);
  std::reverse(result.path.begin(), result.path.end());
  for (size_t h = 0; h + 1 < result.path.size(); ++h) {
    result.stats.Record(CategoryIdOf<"path_trace">(), 1);
  }
  return result;
}

}  // namespace elink
