#include "sim/graph.h"

#include <algorithm>
#include <deque>

namespace elink {

std::vector<int> HopDistancesFrom(const AdjacencyList& adj, int src) {
  std::vector<int> dist(adj.size(), -1);
  std::deque<int> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v : adj[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<int> BfsTreeParents(const AdjacencyList& adj, int src) {
  std::vector<int> parent(adj.size(), -1);
  std::deque<int> queue;
  parent[src] = src;
  queue.push_back(src);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v : adj[u]) {
      if (parent[v] < 0) {
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return parent;
}

bool IsConnected(const AdjacencyList& adj) {
  if (adj.empty()) return true;
  const std::vector<int> dist = HopDistancesFrom(adj, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d < 0; });
}

std::vector<int> ConnectedComponents(const AdjacencyList& adj) {
  std::vector<int> comp(adj.size(), -1);
  int next = 0;
  for (size_t start = 0; start < adj.size(); ++start) {
    if (comp[start] >= 0) continue;
    const int id = next++;
    std::deque<int> queue{static_cast<int>(start)};
    comp[start] = id;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adj[u]) {
        if (comp[v] < 0) {
          comp[v] = id;
          queue.push_back(v);
        }
      }
    }
  }
  return comp;
}

std::vector<int> InducedComponents(const AdjacencyList& adj,
                                   const std::vector<char>& members) {
  std::vector<int> comp(adj.size(), -1);
  int next = 0;
  for (size_t start = 0; start < adj.size(); ++start) {
    if (!members[start] || comp[start] >= 0) continue;
    const int id = next++;
    std::deque<int> queue{static_cast<int>(start)};
    comp[start] = id;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adj[u]) {
        if (members[v] && comp[v] < 0) {
          comp[v] = id;
          queue.push_back(v);
        }
      }
    }
  }
  return comp;
}

bool IsInducedConnected(const AdjacencyList& adj,
                        const std::vector<char>& members) {
  const std::vector<int> comp = InducedComponents(adj, members);
  int max_comp = -1;
  for (size_t i = 0; i < adj.size(); ++i) {
    if (members[i]) max_comp = std::max(max_comp, comp[i]);
  }
  return max_comp <= 0;
}

std::vector<int> ShortestHopPath(const AdjacencyList& adj, int src, int dst) {
  const std::vector<int> parent = BfsTreeParents(adj, src);
  if (parent[dst] < 0) return {};
  std::vector<int> path;
  for (int cur = dst; cur != src; cur = parent[cur]) path.push_back(cur);
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

ResumableBfs::ResumableBfs(int num_nodes, int root)
    : root_(root), parent_(num_nodes, -1), frontier_{root} {
  parent_[root] = root;
}

bool ResumableBfs::Expand(const AdjacencyList& adj,
                          const std::vector<char>& absent, int target) {
  const bool masked = !absent.empty();
  while (parent_[target] < 0 && head_ < frontier_.size()) {
    const int u = frontier_[head_++];
    // Only the root can be an absent node on the frontier.
    if (masked && absent[u]) continue;
    for (int v : adj[u]) {
      if (parent_[v] < 0 && !(masked && absent[v])) {
        parent_[v] = u;
        frontier_.push_back(v);
      }
    }
  }
  if (head_ == frontier_.size() && !frontier_.empty()) {
    std::vector<int>().swap(frontier_);
    head_ = 0;
  }
  return parent_[target] >= 0;
}

int ResumableBfs::HopsToRoot(int node) const {
  if (parent_[node] < 0) return -1;
  int hops = 0;
  for (int cur = node; cur != root_; cur = parent_[cur]) ++hops;
  return hops;
}

RoutingTable::RoutingTable(const AdjacencyList& adj, int root)
    : root_(root),
      dist_(HopDistancesFrom(adj, root)),
      parent_(BfsTreeParents(adj, root)) {
  parent_[root] = -1;
  for (size_t i = 0; i < adj.size(); ++i) {
    if (dist_[i] < 0) parent_[i] = -1;
  }
}

}  // namespace elink
