#include "baselines/hierarchical.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>

#include "proto/wire.h"

namespace elink {

namespace {

/// Hop distance from `node` to `root` inside the cluster's induced subgraph.
int ClusterTreeHops(const AdjacencyList& adjacency,
                    const std::vector<int>& root_of, int node, int root) {
  if (node == root) return 0;
  std::vector<int> dist(adjacency.size(), -1);
  std::deque<int> queue{root};
  dist[root] = 0;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    if (u == node) return dist[u];
    for (int v : adjacency[u]) {
      if (dist[v] < 0 && root_of[v] == root_of[root]) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  ELINK_CHECK(false);  // Clusters are connected by construction.
  return -1;
}

}  // namespace

Result<HierarchicalResult> HierarchicalClustering(
    const AdjacencyList& adjacency, const std::vector<Feature>& features,
    const DistanceMetric& metric, double delta) {
  const int n = static_cast<int>(adjacency.size());
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (features.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("features size mismatch");
  }
  if (delta < 0) return Status::InvalidArgument("delta must be non-negative");

  HierarchicalResult result;
  const int dim = static_cast<int>(features[0].size());

  // Cluster state: root per node, and per root the paper's "feature
  // diameter" m -- which its merge formula max(m_i, m_j + d(r_i, r_j))
  // reveals to be the cluster *radius* around the leader's feature.  The
  // candidate screen m_i + d + m_j <= delta then bounds every cross-cluster
  // pair, and induction over merges bounds all pairs by delta.
  std::vector<int> root_of(n);
  std::map<int, double> radius;
  std::map<int, std::vector<int>> members;
  for (int i = 0; i < n; ++i) {
    root_of[i] = i;
    radius[i] = 0.0;
    members[i] = {i};
  }

  for (;;) {
    ++result.rounds;
    // Adjacent cluster pairs and one witnessing boundary edge per pair.
    std::map<std::pair<int, int>, std::pair<int, int>> boundary;
    for (int u = 0; u < n; ++u) {
      for (int v : adjacency[u]) {
        const int ru = root_of[u];
        const int rv = root_of[v];
        if (ru == rv || u > v) continue;
        // Witness endpoints stored in the same order as the sorted root key.
        const auto key = std::minmax(ru, rv);
        const auto witness_pair = ru <= rv ? std::make_pair(u, v)
                                           : std::make_pair(v, u);
        boundary.emplace(std::make_pair(key.first, key.second), witness_pair);
      }
    }

    // Candidate evaluation with message accounting.
    std::map<int, std::pair<double, int>> best;  // root -> (fitness, partner)
    for (const auto& [pair, witness] : boundary) {
      const auto [ri, rj] = pair;
      // Boundary nodes exchange (root feature, diameter) across the edge:
      // dim + 1 coefficients framed with the sender's root id.
      const uint64_t exchange_frame = wire::NominalFrameSize(1, dim + 1);
      result.stats.Record(CategoryIdOf<"hc_boundary_exchange">(),
                          dim + 1, exchange_frame);
      result.stats.Record(CategoryIdOf<"hc_boundary_exchange">(),
                          dim + 1, exchange_frame);
      // Each side relays the candidate info to its cluster leader.
      const int hops_i =
          ClusterTreeHops(adjacency, root_of, witness.first, ri);
      const int hops_j =
          ClusterTreeHops(adjacency, root_of, witness.second, rj);
      for (int h = 0; h < hops_i; ++h) {
        result.stats.Record(CategoryIdOf<"hc_leader_relay">(),
                            dim + 1, exchange_frame);
      }
      for (int h = 0; h < hops_j; ++h) {
        result.stats.Record(CategoryIdOf<"hc_leader_relay">(),
                            dim + 1, exchange_frame);
      }
      const double d_roots =
          metric.Distance(features[ri], features[rj]);
      if (radius[ri] + d_roots + radius[rj] > delta + 1e-12) {
        continue;  // Ruled out: merger could violate the delta-condition.
      }
      // Fitness: the paper's merged-radius estimate.
      const double mi = radius[ri];
      const double mj = radius[rj];
      const double fitness = mi >= mj ? std::max(mi, mj + d_roots)
                                      : std::max(mj, mi + d_roots);
      auto consider = [&](int self, int partner) {
        auto it = best.find(self);
        if (it == best.end() || fitness < it->second.first ||
            (fitness == it->second.first && partner < it->second.second)) {
          best[self] = {fitness, partner};
        }
      };
      consider(ri, rj);
      consider(rj, ri);
    }

    // Mutual best candidates merge.
    std::vector<std::pair<int, int>> merges;
    for (const auto& [ri, choice] : best) {
      const int rj = choice.second;
      auto it = best.find(rj);
      if (it != best.end() && it->second.second == ri && ri < rj) {
        merges.emplace_back(ri, rj);
      }
    }
    if (merges.empty()) break;

    std::set<int> merged_this_round;
    for (const auto& [ri, rj] : merges) {
      // A cluster can appear in at most one mutual pair, but guard anyway.
      if (merged_this_round.count(ri) || merged_this_round.count(rj)) {
        continue;
      }
      merged_this_round.insert(ri);
      merged_this_round.insert(rj);
      ++result.merges;
      // The surviving root is the one of the larger-radius cluster (ties
      // break to the smaller id), matching the paper's fitness asymmetry.
      int keep = ri, drop = rj;
      if (radius[rj] > radius[ri] ||
          (radius[rj] == radius[ri] && rj < ri)) {
        std::swap(keep, drop);
      }
      // Merge-decision broadcast: every member of both clusters learns the
      // new leader (one message per member over the cluster trees).
      const size_t total =
          members[keep].size() + members[drop].size();
      for (size_t m = 0; m + 1 < total + 1; ++m) {
        result.stats.Record(CategoryIdOf<"hc_merge_broadcast">(), 1,
                            wire::NominalFrameSize(1, 0));
      }
      // Radius update per the paper's fitness formula: the new leader's
      // radius bound is max(m_keep, m_drop + d(r_keep, r_drop)).  Validity
      // follows inductively: every cross-cluster pair was bounded by
      // m_i + d + m_j <= delta at its merge.
      const double d_roots =
          metric.Distance(features[keep], features[drop]);
      const double merged_radius =
          std::max(radius[keep], radius[drop] + d_roots);
      for (int m : members[drop]) root_of[m] = keep;
      members[keep].insert(members[keep].end(), members[drop].begin(),
                           members[drop].end());
      members.erase(drop);
      radius.erase(drop);
      radius[keep] = merged_radius;
    }
  }

  result.clustering.root_of = std::move(root_of);
  return result;
}

}  // namespace elink
