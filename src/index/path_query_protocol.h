// A fully distributed, message-passing execution of the Section-7.3 path
// query, run inside the discrete-event simulator on the proto runtime.
//
// PathQueryEngine (path_query.h) is the centralized accounting model; here
// every classification step is a real protocol action: the query routes hop
// by hop from the source to its cluster root, up the leader chain to the
// backbone root, and is then disseminated selectively down the backbone —
// pruned subtrees cost nothing, inconclusive leaders drill their cluster's
// M-tree with per-edge messages, and completion acks aggregate back up.
// The safe-region search that follows classification is the engine's own
// (SearchSafeRegion), run on the assembled safe map.  Tests replay
// identical queries through both implementations and check that outcomes
// and per-category costs agree.
#ifndef ELINK_INDEX_PATH_QUERY_PROTOCOL_H_
#define ELINK_INDEX_PATH_QUERY_PROTOCOL_H_

#include <memory>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "metric/distance.h"
#include "sim/churn.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/observer.h"
#include "sim/topology.h"

namespace elink {

/// Network/run options of the distributed path-query protocol.
struct PathProtocolOptions {
  bool synchronous = true;
  uint64_t seed = 1;
  /// Message-level fault plan (loss, truncation, ...); inert by default.
  FaultPlan fault;
  /// Topology dynamics (sim/churn.h); inert by default.  Churn degrades a
  /// query into a (counted) failed one, never into a wrong answer.
  ChurnPlan churn;
  /// Read-only observer (telemetry/tracer) bound to every Run's network.
  /// Not owned; attaching never changes the query's outcome.
  SimObserver* observer = nullptr;
};

/// \brief Executes path queries as a distributed protocol.
///
/// Each Run() builds a fresh Network and simulates one query on it.  The
/// first Run hands every node its slice of the cluster, index and backbone
/// state (pointers into the inputs, which must outlive the object and not
/// change while it lives) and the object keeps those slices for every later
/// Run.  It also owns one walked-path table and lends it to every Run's
/// Network (Network::Config::shared_paths), so a leader-to-leader pair is
/// routed by BFS once per object, not once per query; a run under churn
/// keeps a private table instead.  Neither is observable: each Run's outcome
/// and ledger equal a fresh object's.
class DistributedPathQuery {
 public:
  DistributedPathQuery(const Topology& topology, const Clustering& clustering,
                       const ClusterIndex& index, const Backbone& backbone,
                       const std::vector<Feature>& features,
                       std::shared_ptr<const DistanceMetric> metric,
                       PathProtocolOptions options = {});
  ~DistributedPathQuery();

  /// Finds a safe path from `source` to `destination` avoiding `danger` by
  /// at least `gamma`.  Outcome semantics match PathQueryEngine::Query; the
  /// returned stats additionally carry the protocol's completion acks under
  /// "path_collect".  Returns InvalidArgument for an endpoint out of range,
  /// a negative or NaN gamma, or a danger feature whose length is not the
  /// deployment's feature dimension or that has a NaN or infinite
  /// component.
  Result<PathQueryResult> Run(int source, int destination,
                              const Feature& danger, double gamma);

  /// One node's slice of the deployment state; defined and used only
  /// inside path_query_protocol.cc.
  struct PathNodeState;

 private:
  const Topology& topology_;
  const Clustering& clustering_;
  const ClusterIndex& index_;
  const Backbone& backbone_;
  const std::vector<Feature>& features_;
  std::shared_ptr<const DistanceMetric> metric_;
  PathProtocolOptions options_;
  UpperIndex upper_;
  // Every node's slice, built by the first Run.
  std::vector<PathNodeState> states_;
  // Lent to every Run's Network.
  WalkedPathTable paths_;
};

}  // namespace elink

#endif  // ELINK_INDEX_PATH_QUERY_PROTOCOL_H_
