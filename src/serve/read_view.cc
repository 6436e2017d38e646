#include "serve/read_view.h"

#include <algorithm>

#include "common/status.h"

namespace elink {
namespace serve {

std::shared_ptr<const ReadView> ReadView::Build(
    const AdjacencyList& adjacency, const std::vector<Feature>& features,
    const std::vector<char>& live,
    std::shared_ptr<const DistanceMetric> metric, uint64_t version) {
  const int n = static_cast<int>(features.size());
  auto view = std::shared_ptr<ReadView>(new ReadView());
  view->metric_ = std::move(metric);
  view->version_ = version;

  view->remap_.assign(n, -1);
  for (int i = 0; i < n; ++i) {
    if (!live.empty() && !live[i]) continue;
    view->remap_[i] = static_cast<int>(view->original_.size());
    view->original_.push_back(i);
    view->compact_features_.push_back(features[i]);
  }
  const int m = static_cast<int>(view->original_.size());
  view->compact_adjacency_.resize(m);
  for (int c = 0; c < m; ++c) {
    for (int nb : adjacency[view->original_[c]]) {
      if (view->remap_[nb] >= 0) {
        view->compact_adjacency_[c].push_back(view->remap_[nb]);
      }
    }
    // PathQueryEngine walks the same sorted lists, so BFS ties break alike.
    std::sort(view->compact_adjacency_[c].begin(),
              view->compact_adjacency_[c].end());
  }
  view->pool_ = FeaturePool(view->compact_features_);
  return view;
}

RangeAnswer ReadView::Range(const Feature& q, double r) const {
  RangeAnswer out;
  const int m = num_live();
  std::vector<double> dist(m);
  metric_->BatchDistance(q, pool_, dist.data());
  // RangeOracle / RangeQueryEngine tolerance.
  const double bound = r + 1e-12;
  for (int c = 0; c < m; ++c) {
    if (dist[c] <= bound) out.matches.push_back(original_[c]);
  }
  // Compaction is order-preserving, so the id-order scan is ascending
  // already; this is a cheap belt-and-braces invariant.
  ELINK_CHECK(std::is_sorted(out.matches.begin(), out.matches.end()));
  return out;
}

PathAnswer ReadView::SafePath(int source, int destination,
                              const Feature& danger, double gamma) const {
  PathAnswer out;
  if (!node_live(source) || !node_live(destination)) return out;
  const int s = remap_[source];
  const int d = remap_[destination];
  const int m = num_live();
  // The safe mask: node c is safe iff dist[c] >= gamma - 1e-12 (the
  // NodeIsSafe / PathQueryEngine::IsSafe tolerance).
  std::vector<double> dist(m);
  metric_->BatchDistance(danger, pool_, dist.data());
  const double bound = gamma - 1e-12;
  if (!(dist[s] >= bound) || !(dist[d] >= bound)) return out;
  // FIFO BFS over the safe subgraph.  A node's parent is fixed when it is
  // discovered, so stopping at the destination's discovery yields the same
  // parent chain as the engine's search, which stops when it is dequeued.
  std::vector<int> parent(m, -1);
  std::vector<int> queue;
  queue.reserve(m);
  parent[s] = s;
  queue.push_back(s);
  for (size_t head = 0; head < queue.size() && parent[d] == -1; ++head) {
    const int u = queue[head];
    for (int v : compact_adjacency_[u]) {
      if (parent[v] != -1 || !(dist[v] >= bound)) continue;
      parent[v] = u;
      queue.push_back(v);
    }
  }
  if (parent[d] == -1) return out;
  out.found = true;
  for (int v = d; v != s; v = parent[v]) out.path.push_back(original_[v]);
  out.path.push_back(original_[s]);
  std::reverse(out.path.begin(), out.path.end());
  return out;
}

}  // namespace serve
}  // namespace elink
