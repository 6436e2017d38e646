#include "index/range_query.h"

#include <algorithm>

#include "index/screen.h"

namespace elink {

RangeQueryEngine::RangeQueryEngine(const Clustering& clustering,
                                   const ClusterIndex& index,
                                   const Backbone& backbone,
                                   const std::vector<Feature>& features,
                                   const DistanceMetric& metric,
                                   double /*delta*/)
    : clustering_(clustering),
      index_(index),
      backbone_(backbone),
      features_(features),
      metric_(metric),
      feature_dim_(features.empty() ? 0
                                    : static_cast<int>(features[0].size())),
      upper_(backbone, index, features, metric) {}

std::vector<int> RangeQueryEngine::LinearScan(const Feature& q,
                                              double r) const {
  std::vector<int> out;
  for (size_t i = 0; i < features_.size(); ++i) {
    if (screen::InRange(metric_.Distance(q, features_[i]), r)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

RangeQueryResult RangeQueryEngine::Query(int initiator, const Feature& q,
                                         double r) const {
  RangeQueryResult result;
  const int query_units = feature_dim_ + 1;  // Query feature + radius.

  // 1. Initiator -> its cluster root (over the cluster tree).
  const int init_root = clustering_.root_of[initiator];
  for (int d = 0; d < index_.depth(initiator); ++d) {
    result.stats.Record(CategoryIdOf<"query_route">(), query_units);
  }
  // 2. Initiator's root -> the backbone tree root along the backbone.
  for (int cur = init_root; backbone_.tree_parent(cur) != cur;
       cur = backbone_.tree_parent(cur)) {
    const int hops = backbone_.route_hops(cur, backbone_.tree_parent(cur));
    for (int h = 0; h < hops; ++h) {
      result.stats.Record(CategoryIdOf<"query_route">(), query_units);
      // Final aggregate back.
      result.stats.Record(CategoryIdOf<"query_collect">(), 1);
    }
  }

  // 3. Selective dissemination down the backbone tree with upper-level
  //    pruning, then per-cluster screening / M-tree descent at each visited
  //    leader.
  VisitBackbone(backbone_.tree_root(), q, r, &result);
  std::sort(result.matches.begin(), result.matches.end());

  // 4. Initiator receives the aggregate from its root.
  for (int d = 0; d < index_.depth(initiator); ++d) {
    result.stats.Record(CategoryIdOf<"query_collect">(), 1);
  }
  return result;
}

void RangeQueryEngine::VisitBackbone(int leader, const Feature& q, double r,
                                     RangeQueryResult* result) const {
  const int query_units = feature_dim_ + 1;
  // Screen this leader's own cluster (Section 7.2).
  const double ball = index_.root_ball_radius(leader);
  const double d_root = metric_.Distance(q, index_.routing_feature(leader));
  if (screen::BallOutOfRange(d_root, r, ball)) {
    ++result->clusters_excluded;
  } else if (screen::BallInRange(d_root, r, ball)) {
    ++result->clusters_included;
    const auto& all = index_.subtree(leader);
    result->matches.insert(result->matches.end(), all.begin(), all.end());
  } else {
    ++result->clusters_descended;
    DescendMTree(leader, q, r, result);
  }
  // Decide per backbone child using the upper-level covering radii the
  // parent caches for its children.
  for (int child : backbone_.tree_children(leader)) {
    const double child_radius = upper_.radius(child);
    const double d_child = metric_.Distance(q, features_[child]);
    if (screen::BallOutOfRange(d_child, r, child_radius)) {
      // Entire backbone subtree excluded without any transmission.
      result->backbone_subtrees_pruned += 1;
      continue;
    }
    // The query crosses this backbone link and one reply comes back.
    const int hops = backbone_.route_hops(leader, child);
    for (int h = 0; h < hops; ++h) {
      result->stats.Record(CategoryIdOf<"query_backbone">(), query_units);
      result->stats.Record(CategoryIdOf<"query_collect">(), 1);
    }
    if (screen::BallInRange(d_child, r, child_radius)) {
      // Entire backbone subtree matches: its aggregate is the reply.
      const std::span<const int> all = upper_.members(child);
      result->matches.insert(result->matches.end(), all.begin(), all.end());
      result->backbone_subtrees_included += 1;
    } else {
      VisitBackbone(child, q, r, result);  // Inconclusive: recurse.
    }
  }
}

void RangeQueryEngine::DescendMTree(int node, const Feature& q, double r,
                                    RangeQueryResult* result) const {
  // Node `node` holds the query: test itself, then decide per child.
  const Feature& f_node = index_.routing_feature(node);
  const double d_node = metric_.Distance(q, f_node);
  if (screen::InRange(d_node, r)) {
    result->matches.push_back(node);
    // One aggregation unit for reporting the hit back up.
    result->stats.Record(CategoryIdOf<"query_collect">(), 1);
  }
  for (int child : index_.children(node)) {
    const double d_link =
        metric_.Distance(f_node, index_.routing_feature(child));
    const double r_child = index_.covering_radius(child);
    // Parent-side pruning (Section 7.1).
    if (screen::ChildOutOfRange(d_node, d_link, r, r_child)) {
      continue;  // Entire subtree excluded without visiting it.
    }
    if (screen::ChildInRange(d_node, d_link, r, r_child)) {
      // Entire subtree matches; child answers with an aggregate.
      const auto& all = index_.subtree(child);
      result->matches.insert(result->matches.end(), all.begin(), all.end());
      result->stats.Record(CategoryIdOf<"query_descend">(), feature_dim_ + 1);
      result->stats.Record(CategoryIdOf<"query_collect">(), 1);
      continue;
    }
    // Inconclusive: forward the query into the child.
    result->stats.Record(CategoryIdOf<"query_descend">(), feature_dim_ + 1);
    DescendMTree(child, q, r, result);
  }
}

}  // namespace elink
