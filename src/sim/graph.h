// Graph utilities over adjacency lists: BFS distances/trees, connectivity,
// connected components (optionally restricted to a node subset), and
// multi-hop route extraction.  Shared by the clustering algorithms, the
// index/query layer, and the cost accounting of the baselines.
#ifndef ELINK_SIM_GRAPH_H_
#define ELINK_SIM_GRAPH_H_

#include <vector>

#include "common/status.h"

namespace elink {

using AdjacencyList = std::vector<std::vector<int>>;

/// Hop distances from `src` to every node; unreachable nodes get -1.
std::vector<int> HopDistancesFrom(const AdjacencyList& adj, int src);

/// BFS tree parents rooted at `src`: parent[src] = src, unreachable = -1.
std::vector<int> BfsTreeParents(const AdjacencyList& adj, int src);

/// True when the whole graph is connected (empty graphs count as connected).
bool IsConnected(const AdjacencyList& adj);

/// Connected components over the full node set; returns component id per
/// node, ids are dense starting at 0 in discovery order.
std::vector<int> ConnectedComponents(const AdjacencyList& adj);

/// Connected components of the subgraph induced by `members` (a 0/1 mask of
/// size adj.size()).  Nodes outside the mask get component -1.
std::vector<int> InducedComponents(const AdjacencyList& adj,
                                   const std::vector<char>& members);

/// True when the subgraph induced by the masked nodes is connected (an empty
/// mask counts as connected).
bool IsInducedConnected(const AdjacencyList& adj,
                        const std::vector<char>& members);

/// Shortest hop path from `src` to `dst` (inclusive of both endpoints);
/// empty when unreachable.
std::vector<int> ShortestHopPath(const AdjacencyList& adj, int src, int dst);

/// \brief A BFS from `root` that expands only as far as the questions asked
/// of it need, and resumes where it stopped on the next question.
///
/// Expand pops whole nodes in FIFO order and scans each one's full neighbor
/// list in adjacency order, so every parent is fixed at discovery and equals
/// BfsTreeParents(adj, root)'s: a path never depends on how far, or in how
/// many steps, the search was expanded.  Nodes flagged in `absent` (when it
/// is non-empty) are neither discovered nor relayed through, as if they and
/// their edges were removed from `adj`.  Every call on one object must pass
/// the same adjacency and mask; rebuild the BFS when either changes.
///
/// Its memory grows with the ball it has discovered, not with the graph:
/// parents sit in a small open-addressing table until the ball outgrows it
/// and a fixed share of the nodes, and only then move, once, to an array
/// over all nodes.  Both forms hold the same parents.
class ResumableBfs {
 public:
  ResumableBfs(int num_nodes, int root);

  /// Expands until `target` is discovered or the frontier is exhausted (the
  /// frontier's memory is released then).  True when `target` is reachable.
  bool Expand(const AdjacencyList& adj, const std::vector<char>& absent,
              int target);

  /// BFS-tree parent of a discovered node (the root's parent is itself);
  /// -1 while undiscovered.
  int parent(int node) const {
    return dense() ? parent_[node] : SparseParent(node);
  }

  /// Hop count from a discovered `node` to the root (the length of its
  /// parent walk); -1 while undiscovered.
  int HopsToRoot(int node) const;

  /// True once the parents live in the array over all nodes.
  bool dense() const { return !parent_.empty(); }

 private:
  int SparseParent(int node) const;
  /// The pair of `sparse_` that holds `node`, or the empty pair where it
  /// would go.
  size_t SparseSlot(int node) const;
  /// Rehashes the table into twice as many pairs.
  void GrowSparse();
  /// Moves every parent into `parent_` and releases the table; only while
  /// the frontier still lists every discovered node.
  void Promote();

  int num_nodes_;
  int root_;
  // Dense form: parent per node, -1 while undiscovered; empty while sparse.
  std::vector<int> parent_;
  // Sparse form: (node, parent) pairs interleaved, a power-of-two number of
  // pairs, node -1 marking an empty pair; linear probing from a Fibonacci
  // hash of the node id.  Empty once dense.
  std::vector<int> sparse_;
  int sparse_shift_ = 0;
  // FIFO of discovered nodes; [head_, size) are still to be scanned.  Until
  // it is released, its size is the number of discovered nodes.
  std::vector<int> frontier_;
  size_t head_ = 0;
};

/// \brief Precomputed single-source BFS answers for repeated routing to/from
/// one node (e.g. the base station of the centralized baseline).
class RoutingTable {
 public:
  RoutingTable(const AdjacencyList& adj, int root);

  int root() const { return root_; }
  /// Hop distance from `node` to the root (-1 when unreachable).
  int HopsToRoot(int node) const { return dist_[node]; }
  /// Next hop from `node` towards the root (-1 at the root / unreachable).
  int NextHopToRoot(int node) const { return parent_[node]; }

 private:
  int root_;
  std::vector<int> dist_;
  std::vector<int> parent_;
};

}  // namespace elink

#endif  // ELINK_SIM_GRAPH_H_
