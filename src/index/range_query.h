// Range queries over the clustered network (paper Section 7.2).
//
// A range query (q, r) retrieves all nodes whose features lie within
// distance r of the query feature q.  The initiator routes the query to its
// cluster root; the query floods the leader backbone; every root first
// applies the delta-compactness screen (index/screen.h) with its exact
// root-ball radius R, at most delta/2 for an ELink cluster:
//   exclude the cluster when d(q, F_root) >  r + R,
//   include the whole cluster when d(q, F_root) <= r - R,
// and only in the inconclusive middle band descends the cluster's M-tree,
// pruning subtrees with the covering-radius conditions of Section 7.1.
// Results aggregate back over the cluster trees and the backbone.
#ifndef ELINK_INDEX_RANGE_QUERY_H_
#define ELINK_INDEX_RANGE_QUERY_H_

#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "metric/distance.h"
#include "sim/stats.h"

namespace elink {

/// Outcome of one range query.
struct RangeQueryResult {
  /// Matching node ids, ascending.
  std::vector<int> matches;
  /// All messages the query incurred (categories query_route, query_backbone,
  /// query_descend, query_collect).
  MessageStats stats;
  /// Clusters fully excluded / fully included by the delta-compactness
  /// screen (the Section 7.2 pruning the experiments measure).
  int clusters_excluded = 0;
  int clusters_included = 0;
  /// Clusters that required an M-tree descent.
  int clusters_descended = 0;
  /// Backbone subtrees pruned / wholly included by the upper-level index
  /// (groups of clusters never visited individually).
  int backbone_subtrees_pruned = 0;
  int backbone_subtrees_included = 0;
};

/// \brief Executes range queries against one clustering + index + backbone.
class RangeQueryEngine {
 public:
  /// `delta` is unused: the screens use each cluster's exact root-ball
  /// radius, which an ELink cluster keeps within delta/2.
  RangeQueryEngine(const Clustering& clustering, const ClusterIndex& index,
                   const Backbone& backbone,
                   const std::vector<Feature>& features,
                   const DistanceMetric& metric, double delta);

  /// Runs the query from `initiator`.  The result's matches are exact
  /// (verified against a linear scan in tests).
  RangeQueryResult Query(int initiator, const Feature& q, double r) const;

  /// Reference answer by exhaustive scan (for tests).
  std::vector<int> LinearScan(const Feature& q, double r) const;

 private:
  void VisitBackbone(int leader, const Feature& q, double r,
                     RangeQueryResult* result) const;
  void DescendMTree(int node, const Feature& q, double r,
                    RangeQueryResult* result) const;

  const Clustering& clustering_;
  const ClusterIndex& index_;
  const Backbone& backbone_;
  const std::vector<Feature>& features_;
  const DistanceMetric& metric_;
  int feature_dim_;
  UpperIndex upper_;
};

}  // namespace elink

#endif  // ELINK_INDEX_RANGE_QUERY_H_
