// Inter-cluster leader backbone (paper Section 7.2).
//
// A spanning tree over the cluster leaders — two leaders are adjacent when
// their clusters share a communication-graph edge — used to route queries to
// every cluster root.  Backbone links are logical: a message between two
// leaders travels the shortest communication-graph path between them, and is
// charged per hop.  The construction cost (boundary discovery plus the tree
// agreement wave) is recorded so it can be accounted into the clustering
// cost as Section 8.2 prescribes.
#ifndef ELINK_INDEX_BACKBONE_H_
#define ELINK_INDEX_BACKBONE_H_

#include <map>
#include <span>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/mtree.h"
#include "metric/distance.h"
#include "sim/stats.h"

namespace elink {

/// \brief The leader backbone of a clustering.
class Backbone {
 public:
  /// Builds the backbone.  Construction messages go to `build_stats`
  /// (category "backbone_build") when non-null.
  ///
  /// When `features`/`metric` are supplied, the spanning tree over the
  /// cluster-adjacency graph is chosen by Prim's algorithm on leader feature
  /// distances, rooted at the leader medoid: feature-similar clusters group
  /// into the same backbone subtree, which is what makes the upper-level
  /// covering-radius pruning of the query engines effective.  Without
  /// features the tree is a plain BFS tree (hop-oriented).
  static Backbone Build(const Clustering& clustering,
                        const AdjacencyList& adjacency,
                        MessageStats* build_stats = nullptr,
                        const std::vector<Feature>* features = nullptr,
                        const DistanceMetric* metric = nullptr);

  /// All cluster leaders, ascending.
  const std::vector<int>& leaders() const { return leaders_; }

  /// Parent of a leader in the backbone tree (the tree root's parent is
  /// itself).  Only valid for leader ids.
  int tree_parent(int leader) const { return parent_link_.at(leader).parent; }

  /// Children of a leader in the backbone tree, ascending.
  const std::vector<int>& tree_children(int leader) const {
    return tree_children_.at(leader);
  }

  /// The leader whose cluster graph BFS rooted the tree.
  int tree_root() const { return tree_root_; }

  /// Communication-graph hop distance between two tree-adjacent leaders
  /// (how many transmissions one backbone-link traversal costs); 0 when they
  /// are the same leader.  Only backbone tree edges are stored: any other
  /// pair is a CHECK failure.
  int route_hops(int leader_a, int leader_b) const;

  /// Sum of route_hops over all backbone tree edges (independent
  /// point-to-point legs between tree-adjacent leaders).
  int total_tree_hops() const { return total_tree_hops_; }

  /// Transmissions needed to deliver one message to *every* leader by
  /// flooding the communication-graph spanning tree pruned to the branches
  /// that contain leaders (a Steiner-tree approximation of the backbone
  /// overlay).  Shared path prefixes are paid once, so this is at most
  /// N - 1 — a query over the backbone never costs more than TAG's
  /// network-wide tree — and far less when clusters are few.
  int flood_hops() const { return flood_hops_; }

 private:
  Backbone() = default;

  std::vector<int> leaders_;
  std::map<int, std::vector<int>> tree_children_;
  int tree_root_ = -1;
  int total_tree_hops_ = 0;
  int flood_hops_ = 0;
  // Each leader's tree parent (the root's is itself) and the hop count of
  // the backbone link to it (0 at the root).
  struct ParentLink {
    int parent = -1;
    int hops = 0;
  };
  std::map<int, ParentLink> parent_link_;
};

/// \brief The upper level of the Section-7.1 index: per leader, a covering
/// radius and the members of its backbone subtree (its own cluster plus every
/// cluster below it in the backbone tree), with which queries settle whole
/// backbone subtrees without visiting them.  Built in one linear pass: in
/// backbone preorder every subtree is a contiguous run of leaders, so its
/// members are one contiguous span of the leaders' clusters concatenated.
class UpperIndex {
 public:
  UpperIndex(const Backbone& backbone, const ClusterIndex& index,
             const std::vector<Feature>& features,
             const DistanceMetric& metric);

  /// radius(l) = max(root_ball(l), max over backbone children c of
  /// d(F_l, F_c) + radius(c)): every member of l's backbone subtree lies
  /// within it of F_l.
  double radius(int leader) const { return radius_[Slot(leader)]; }

  /// Members of l's backbone subtree, cluster by cluster in preorder; its
  /// size is the subtree's population.
  std::span<const int> members(int leader) const {
    const int slot = Slot(leader);
    return std::span<const int>(members_.data() + first_member_[slot],
                                members_.data() + first_member_[end_[slot]]);
  }

 private:
  int Slot(int leader) const {
    const int slot = slot_.at(leader);
    ELINK_CHECK(slot >= 0);  // Leaders only.
    return slot;
  }

  std::vector<int> slot_;          // Node id -> preorder slot, -1 if none.
  std::vector<int> end_;           // Slot -> one past its subtree's slots.
  std::vector<double> radius_;     // By slot.
  std::vector<int> first_member_;  // Slot -> offset into members_.
  std::vector<int> members_;
};

}  // namespace elink

#endif  // ELINK_INDEX_BACKBONE_H_
