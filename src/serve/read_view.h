// Immutable, snapshot-consistent read view of the clustering state
// (elink_serve).
//
// A ReadView freezes everything a query needs — live topology, features and
// the per-cluster epoch vector the view was published at — into one
// shared-ownership object.  Client threads query a view concurrently with
// no synchronization: every member is built before publication and never
// mutated afterwards, so the only coordination in the serving layer is the
// shared_ptr swap in the frontend.
//
// Views are built over the *live* deployment (churn-absent nodes excluded):
// internally ids are compacted to 0..m-1 and every answer is mapped back to
// original node ids before it leaves the view.  Compaction preserves id
// order, so mapped-back match lists stay ascending.
//
// There is one exact answer path.  A range query is one batched distance
// scan over the view's SoA feature pool; a path query is the same scan into
// a safe mask followed by a BFS over the sorted live adjacency.  Both use
// the tolerances of the in-network engines (index/range_query.cc,
// index/path_query.cc), so a view answers exactly what those engines answer
// on the same snapshot — whatever state the clustering is in mid-churn.
#ifndef ELINK_SERVE_READ_VIEW_H_
#define ELINK_SERVE_READ_VIEW_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "metric/distance.h"
#include "metric/feature.h"
#include "metric/feature_pool.h"
#include "sim/graph.h"

namespace elink {
namespace serve {

/// Per-cluster epoch vector: (root id, epoch) pairs, ascending by root.
/// Two views expose the same vector iff no observable change (feature,
/// membership, liveness, or link) touched any cluster between them.
using EpochVector = std::vector<std::pair<int, long long>>;

/// FNV-1a over an epoch vector; the cache's coarse validity stamp.
uint64_t EpochSignature(const EpochVector& epochs);

/// The user-facing answer of a served range query: matching node ids in
/// original (deployment) numbering, ascending.  Screening counters and
/// routing stats are initiator-dependent bookkeeping, so the serving layer
/// does not cache or return them.
struct RangeAnswer {
  std::vector<int> matches;
};

/// The user-facing answer of a served path query.
struct PathAnswer {
  bool found = false;
  std::vector<int> path;  // Original node ids, source..destination.
};

inline bool operator==(const RangeAnswer& a, const RangeAnswer& b) {
  return a.matches == b.matches;
}
inline bool operator==(const PathAnswer& a, const PathAnswer& b) {
  return a.found == b.found && a.path == b.path;
}

/// \brief One immutable published snapshot of the clustering state.
class ReadView {
 public:
  /// Builds a view from the full-deployment state.  `live` is a 0/1 mask
  /// (empty means all present).  `epochs` is the per-cluster epoch vector
  /// the frontend assembled for this publication.
  static std::shared_ptr<const ReadView> Build(
      const AdjacencyList& adjacency, const std::vector<Feature>& features,
      const std::vector<char>& live,
      std::shared_ptr<const DistanceMetric> metric, EpochVector epochs,
      uint64_t version);

  // -- Queries (thread-safe: the view is immutable) -----------------------

  /// All live nodes within `r` (+1e-12, the engines' tolerance) of `q`,
  /// original ids ascending.
  RangeAnswer Range(const Feature& q, double r) const;

  /// A shortest-hop path through live nodes at least `gamma` (-1e-12)
  /// from `danger`: the parent chain of a FIFO BFS from `source` over the
  /// sorted adjacency, the path PathQueryEngine returns.  Not-found when
  /// either endpoint is absent or unsafe.
  PathAnswer SafePath(int source, int destination, const Feature& danger,
                      double gamma) const;

  // -- Introspection ------------------------------------------------------

  const EpochVector& epochs() const { return epochs_; }
  uint64_t epoch_signature() const { return signature_; }
  /// Monotone publication counter (1 = the first published view).
  uint64_t version() const { return version_; }
  /// Live node count (the compacted domain).
  int num_live() const { return static_cast<int>(compact_features_.size()); }
  bool node_live(int node) const {
    return node >= 0 && node < static_cast<int>(remap_.size()) &&
           remap_[node] >= 0;
  }
  const std::vector<Feature>& compact_features() const {
    return compact_features_;
  }
  /// Live-induced adjacency in compact ids, each list ascending.
  const AdjacencyList& compact_adjacency() const { return compact_adjacency_; }
  /// Original id of compacted node `c`.
  int original_id(int c) const { return original_[c]; }

 private:
  ReadView() = default;

  std::vector<int> remap_;     // original id -> compact id (-1 when absent).
  std::vector<int> original_;  // compact id -> original id.
  AdjacencyList compact_adjacency_;
  std::vector<Feature> compact_features_;
  FeaturePool pool_;  // compact_features_ in SoA layout, for BatchDistance.
  std::shared_ptr<const DistanceMetric> metric_;

  EpochVector epochs_;
  uint64_t signature_ = 0;
  uint64_t version_ = 0;
};

}  // namespace serve
}  // namespace elink

#endif  // ELINK_SERVE_READ_VIEW_H_
