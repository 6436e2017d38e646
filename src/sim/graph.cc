#include "sim/graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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

namespace {

// A new route's table: 64 (node, parent) pairs, kept at most half full.
constexpr size_t kInitialSparsePairs = 64;

// A route turns dense once its ball holds more than N / 64 nodes (and more
// than its first table holds).  The hash probe sits in the BFS's inner
// loop, so the switch must come early for routes that grow large: against
// N / 64, promoting at N / 4 made churn_2500's run ~50% slower (its ~2,100
// routes per session average 218 nodes) and each pipeline_4k query ~13%
// slower.  Most routes never get there: pipeline_4k's ELink routes average
// 20 nodes, so they stay in tables of 64 pairs.
constexpr size_t kDenseBallDivisor = 64;

// Fibonacci hashing: the high bits of node * 2^32 / phi index the table.
size_t FibonacciSlot(int node, int shift) {
  return (static_cast<uint32_t>(node) * 2654435769u) >> shift;
}

}  // namespace

ResumableBfs::ResumableBfs(int num_nodes, int root)
    : num_nodes_(num_nodes),
      root_(root),
      sparse_(2 * kInitialSparsePairs, -1),
      sparse_shift_(32 - std::countr_zero(kInitialSparsePairs)),
      frontier_{root} {
  const size_t s = SparseSlot(root);
  sparse_[s] = root;
  sparse_[s + 1] = root;
}

size_t ResumableBfs::SparseSlot(int node) const {
  const size_t mask = sparse_.size() / 2 - 1;
  size_t i = FibonacciSlot(node, sparse_shift_);
  while (sparse_[2 * i] >= 0 && sparse_[2 * i] != node) i = (i + 1) & mask;
  return 2 * i;
}

int ResumableBfs::SparseParent(int node) const {
  // An empty pair is (-1, -1), so a miss reads -1 as well.
  return sparse_[SparseSlot(node) + 1];
}

void ResumableBfs::GrowSparse() {
  std::vector<int> old(2 * sparse_.size(), -1);
  old.swap(sparse_);
  --sparse_shift_;
  for (size_t s = 0; s < old.size(); s += 2) {
    if (old[s] < 0) continue;
    const size_t t = SparseSlot(old[s]);
    sparse_[t] = old[s];
    sparse_[t + 1] = old[s + 1];
  }
}

void ResumableBfs::Promote() {
  // Promotion happens mid-expansion, so the frontier still lists every
  // discovered node.
  std::vector<int> dense(num_nodes_, -1);
  for (int v : frontier_) dense[v] = SparseParent(v);
  parent_.swap(dense);
  std::vector<int>().swap(sparse_);
}

bool ResumableBfs::Expand(const AdjacencyList& adj,
                          const std::vector<char>& absent, int target) {
  const bool masked = !absent.empty();
  if (!dense()) {
    const size_t dense_above =
        std::max(kInitialSparsePairs / 2,
                 static_cast<size_t>(num_nodes_) / kDenseBallDivisor);
    bool found = SparseParent(target) >= 0;
    while (!found && head_ < frontier_.size()) {
      const int u = frontier_[head_++];
      // Only the root can be an absent node on the frontier.
      if (masked && absent[u]) continue;
      for (int v : adj[u]) {
        if (masked && absent[v]) continue;
        const size_t s = SparseSlot(v);
        if (sparse_[s] >= 0) continue;
        sparse_[s] = v;
        sparse_[s + 1] = u;
        frontier_.push_back(v);
        found |= v == target;
        if (4 * frontier_.size() > sparse_.size()) GrowSparse();
      }
      if (frontier_.size() > dense_above) {
        Promote();
        break;
      }
    }
  }
  if (dense()) {
    while (parent_[target] < 0 && head_ < frontier_.size()) {
      const int u = frontier_[head_++];
      if (masked && absent[u]) continue;
      for (int v : adj[u]) {
        if (parent_[v] < 0 && !(masked && absent[v])) {
          parent_[v] = u;
          frontier_.push_back(v);
        }
      }
    }
  }
  if (head_ == frontier_.size() && !frontier_.empty()) {
    std::vector<int>().swap(frontier_);
    head_ = 0;
  }
  return parent(target) >= 0;
}

int ResumableBfs::HopsToRoot(int node) const {
  if (parent(node) < 0) return -1;
  int hops = 0;
  for (int cur = node; cur != root_; cur = parent(cur)) ++hops;
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
