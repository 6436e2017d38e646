// Path queries over the clustered network (paper Section 7.3).
//
// A path query asks for a route from source x to destination y along which
// every node stays at least gamma away (in feature space) from a danger
// feature F_D.  Clusters are screened (index/screen.h) with their exact
// root-ball radius R, at most delta/2 for an ELink cluster:
//   safe   when d(F_root, F_D) > gamma + R,
//   unsafe when d(F_root, F_D) < gamma - R,
// and inconclusive clusters are drilled down through the M-tree until every
// node is classified.  Spatially contiguous safe regions form safe backbone
// trees; a path exists iff x and y fall in the same safe region, and the
// returned path traverses only safe nodes.  The baseline (BFS) floods the
// network from the source.
#ifndef ELINK_INDEX_PATH_QUERY_H_
#define ELINK_INDEX_PATH_QUERY_H_

#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "metric/distance.h"
#include "sim/stats.h"

namespace elink {

/// Outcome of one path query.
struct PathQueryResult {
  /// True when a safe path exists.
  bool found = false;
  /// The safe path from source to destination (inclusive), empty if none.
  std::vector<int> path;
  MessageStats stats;
  /// Cluster-screening tallies.
  int clusters_safe = 0;
  int clusters_unsafe = 0;
  int clusters_drilled = 0;
};

/// \brief Executes path queries against one clustering + index + backbone.
class PathQueryEngine {
 public:
  /// `delta` is unused: the screens use each cluster's exact root-ball
  /// radius, which an ELink cluster keeps within delta/2.
  PathQueryEngine(const Clustering& clustering, const ClusterIndex& index,
                  const Backbone& backbone, const AdjacencyList& adjacency,
                  const std::vector<Feature>& features,
                  const DistanceMetric& metric, double delta);

  /// Finds a safe path from `source` to `destination` avoiding `danger` by
  /// at least `gamma`.  A query whose source or destination is itself unsafe
  /// reports not-found.
  PathQueryResult Query(int source, int destination, const Feature& danger,
                        double gamma) const;

  /// Baseline: BFS flooding over safe nodes only, with per-transmission
  /// accounting (category bfs_flood).  Same found/path semantics.
  PathQueryResult BfsBaseline(int source, int destination,
                              const Feature& danger, double gamma) const;

  /// Ground truth for tests: is `node` safe w.r.t. (danger, gamma)?
  bool IsSafe(int node, const Feature& danger, double gamma) const;

 private:
  /// Selectively disseminates the classification down the backbone tree,
  /// pruning whole backbone subtrees with the upper-level covering radii.
  void VisitBackbone(int leader, const Feature& danger, double gamma,
                     std::vector<char>* safe, PathQueryResult* result) const;

  /// Classifies every node of the subtree rooted at `node` as safe/unsafe
  /// using M-tree bounds, charging drill-down messages for inconclusive
  /// subtrees.  Fills `safe` (indexed by node id).
  void ClassifySubtree(int node, const Feature& danger, double gamma,
                       std::vector<char>* safe,
                       PathQueryResult* result) const;

  const Clustering& clustering_;
  const ClusterIndex& index_;
  const Backbone& backbone_;
  const AdjacencyList& adjacency_;
  const std::vector<Feature>& features_;
  const DistanceMetric& metric_;
  int feature_dim_;
  UpperIndex upper_;
};

/// The safe-region search PathQueryEngine::Query and DistributedPathQuery::Run
/// end with once `safe` classifies every node: a BFS over safe nodes sets
/// `result->found` and the path, charged at cluster granularity (path_search
/// per hop of each safe cluster's backbone link, path_trace per path hop).
void SearchSafeRegion(int source, int destination,
                      const std::vector<char>& safe,
                      const AdjacencyList& adjacency,
                      const Clustering& clustering, const Backbone& backbone,
                      PathQueryResult* result);

}  // namespace elink

#endif  // ELINK_INDEX_PATH_QUERY_H_
