#include "index/backbone.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <tuple>

#include "sim/graph.h"

namespace elink {

Backbone Backbone::Build(const Clustering& clustering,
                         const AdjacencyList& adjacency,
                         MessageStats* build_stats,
                         const std::vector<Feature>* features,
                         const DistanceMetric* metric) {
  Backbone bb;
  const int n = static_cast<int>(adjacency.size());

  std::set<int> leader_set;
  for (int i = 0; i < n; ++i) leader_set.insert(clustering.root_of[i]);
  bb.leaders_.assign(leader_set.begin(), leader_set.end());

  // Cluster-level adjacency from boundary edges, with discovery accounting:
  // each boundary pair exchanges leader ids across the edge once.
  std::map<int, std::set<int>> cluster_adj;
  std::set<std::pair<int, int>> seen_pairs;
  for (int u = 0; u < n; ++u) {
    for (int v : adjacency[u]) {
      if (u > v) continue;
      const int ru = clustering.root_of[u];
      const int rv = clustering.root_of[v];
      if (ru == rv) continue;
      cluster_adj[ru].insert(rv);
      cluster_adj[rv].insert(ru);
      if (build_stats != nullptr &&
          seen_pairs.insert(std::minmax(ru, rv)).second) {
        build_stats->Record(CategoryIdOf<"backbone_build">(), 1);
        build_stats->Record(CategoryIdOf<"backbone_build">(), 1);
      }
    }
  }

  for (int leader : bb.leaders_) bb.tree_children_[leader] = {};

  if (features != nullptr && metric != nullptr && bb.leaders_.size() > 1) {
    // Feature-aware tree: root at the leader medoid, then Prim's algorithm
    // with leader feature distances as weights, so feature-similar clusters
    // land in the same subtree.
    int root = bb.leaders_.front();
    double best_ecc = 1e300;
    for (int cand : bb.leaders_) {
      double ecc = 0.0;
      for (int other : bb.leaders_) {
        ecc = std::max(
            ecc, metric->Distance((*features)[cand], (*features)[other]));
      }
      if (ecc < best_ecc) {
        best_ecc = ecc;
        root = cand;
      }
    }
    bb.tree_root_ = root;
    bb.parent_link_[root].parent = root;
    // Each step adds the cheapest cluster-graph edge from the tree to an
    // unvisited leader, ties broken by the smaller new leader, then by the
    // smaller tree-side leader: a lazy min-heap keyed (weight, to, from),
    // whose entries into already-visited leaders are skipped when popped.
    using Candidate = std::tuple<double, int, int>;
    std::priority_queue<Candidate, std::vector<Candidate>,
                        std::greater<Candidate>>
        heap;
    std::set<int> visited;
    auto visit = [&](int in) {
      visited.insert(in);
      for (int out : cluster_adj[in]) {
        if (visited.count(out)) continue;
        heap.emplace(metric->Distance((*features)[in], (*features)[out]), out,
                     in);
      }
    };
    visit(root);
    while (visited.size() < bb.leaders_.size()) {
      ELINK_CHECK(!heap.empty());  // Cluster graph is connected.
      const auto [w, to, from] = heap.top();
      heap.pop();
      if (visited.count(to)) continue;
      bb.parent_link_[to].parent = from;
      bb.tree_children_[from].push_back(to);
      visit(to);
    }
    for (auto& [leader, kids] : bb.tree_children_) {
      (void)leader;
      std::sort(kids.begin(), kids.end());
    }
  } else {
    // BFS spanning tree over the cluster graph from the smallest leader id.
    bb.tree_root_ = bb.leaders_.front();
    bb.parent_link_[bb.tree_root_].parent = bb.tree_root_;
    std::deque<int> queue{bb.tree_root_};
    std::set<int> visited{bb.tree_root_};
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (int nb : cluster_adj[cur]) {
        if (visited.insert(nb).second) {
          bb.parent_link_[nb].parent = cur;
          bb.tree_children_[cur].push_back(nb);
          queue.push_back(nb);
        }
      }
    }
    // A connected communication graph yields a connected cluster graph.
    ELINK_CHECK(visited.size() == bb.leaders_.size());
  }

  // Each tree edge's link cost: a BFS from the leader that stops as soon as
  // it reaches the parent.
  for (int leader : bb.leaders_) {
    ParentLink& link = bb.parent_link_[leader];
    if (link.parent != leader) {
      ResumableBfs bfs(n, leader);
      ELINK_CHECK(bfs.Expand(adjacency, {}, link.parent));
      const int hops = bfs.HopsToRoot(link.parent);
      link.hops = hops;
      bb.total_tree_hops_ += hops;
      if (build_stats != nullptr) {
        // Tree agreement: each leader notifies its chosen parent.
        for (int h = 0; h < hops; ++h) {
          build_stats->Record(CategoryIdOf<"backbone_build">(), 1);
        }
      }
    }
  }

  // Steiner flood structure: the communication-graph BFS tree rooted at the
  // backbone root, pruned to the union of root-to-leader paths.  Shared
  // prefixes are a single branch, so one flood reaches every leader in
  // (marked nodes - 1) transmissions.
  {
    const std::vector<int> parents =
        BfsTreeParents(adjacency, bb.tree_root_);
    std::set<int> marked;
    for (int leader : bb.leaders_) {
      for (int cur = leader; marked.insert(cur).second && cur != bb.tree_root_;
           cur = parents[cur]) {
      }
    }
    marked.insert(bb.tree_root_);
    bb.flood_hops_ = static_cast<int>(marked.size()) - 1;
  }
  return bb;
}

int Backbone::route_hops(int leader_a, int leader_b) const {
  if (leader_a == leader_b) return 0;
  // Each tree edge is stored once, with its child end.
  const ParentLink& a = parent_link_.at(leader_a);
  if (a.parent == leader_b) return a.hops;
  const ParentLink& b = parent_link_.at(leader_b);
  ELINK_CHECK(b.parent == leader_a);  // Tree-adjacent leaders only.
  return b.hops;
}

UpperIndex::UpperIndex(const Backbone& backbone, const ClusterIndex& index,
                       const std::vector<Feature>& features,
                       const DistanceMetric& metric)
    : slot_(index.num_nodes(), -1) {
  // Preorder with children ascending: each backbone subtree is the run of
  // slots from its leader's up to the end of its last child's run.
  std::vector<int> order;
  std::vector<int> stack{backbone.tree_root()};
  first_member_.push_back(0);
  while (!stack.empty()) {
    const int leader = stack.back();
    stack.pop_back();
    slot_[leader] = static_cast<int>(order.size());
    order.push_back(leader);
    const std::vector<int>& own = index.subtree(leader);
    members_.insert(members_.end(), own.begin(), own.end());
    first_member_.push_back(static_cast<int>(members_.size()));
    const std::vector<int>& kids = backbone.tree_children(leader);
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
  }
  const int num = static_cast<int>(order.size());
  end_.resize(num);
  radius_.resize(num);
  for (int slot = num - 1; slot >= 0; --slot) {
    const int leader = order[slot];
    double radius = index.root_ball_radius(leader);
    int end = slot + 1;
    for (int child : backbone.tree_children(leader)) {
      const int c = slot_[child];
      radius = std::max(radius,
                        metric.Distance(features[leader], features[child]) +
                            radius_[c]);
      end = end_[c];
    }
    end_[slot] = end;
    radius_[slot] = radius;
  }
}

}  // namespace elink
