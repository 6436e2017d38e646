// High-level facade over the whole system: build a delta-clustered sensor
// network from a dataset, keep it maintained under feature updates, and
// answer range / path queries — the end-to-end pipeline of the paper in one
// object.
//
//   ClusteredSensorNetwork::Options opts;
//   opts.delta = 0.4;
//   auto net = ClusteredSensorNetwork::Build(dataset, opts).value();
//   net->UpdateFeature(node, new_coefficients);   // Section 6 maintenance.
//   Result<RangeQueryResult> hits = net->RangeQuery(initiator, q, r);  // 7.2
//   Result<PathQueryResult> path = net->SafePath(src, dst, danger, gamma);
//
// Both queries (Section 7.3 for the path) come back InvalidArgument for a
// node id outside the deployment, a negative r or gamma, or a query feature
// of the wrong dimension.
//
// The facade re-derives the index and backbone lazily after membership
// changes, and aggregates all communication into one ledger, broken down by
// phase (clustering / index build / maintenance / queries).
#ifndef ELINK_CORE_CLUSTERED_NETWORK_H_
#define ELINK_CORE_CLUSTERED_NETWORK_H_

#include <memory>
#include <optional>
#include <vector>

#include "cluster/elink.h"
#include "cluster/maintenance.h"
#include "common/status.h"
#include "data/dataset.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "index/range_query.h"

namespace elink {

/// \brief One clustered, queryable, maintainable sensor network.
class ClusteredSensorNetwork {
 public:
  struct Options {
    /// Definition 1's threshold.
    double delta = 1.0;
    /// Maintenance slack Delta (Section 6).
    double slack = 0.0;
    /// Scheduling technique; kExplicit also works asynchronously.
    ElinkMode mode = ElinkMode::kImplicit;
    /// Forwarded into ElinkConfig.
    double phi_fraction = 0.1;
    int max_switches = 4;
    bool synchronous = true;
    uint64_t seed = 1;
  };

  /// Clusters `dataset` with ELink and prepares the index layer.
  /// The dataset's topology/features/metric are copied in, so the facade
  /// owns everything it needs.
  static Result<std::unique_ptr<ClusteredSensorNetwork>> Build(
      const SensorDataset& dataset, const Options& options);

  // -- State inspection -------------------------------------------------------

  /// Current clustering (reflects maintenance-driven changes).
  const Clustering& clustering() const;

  int num_nodes() const { return topology_.num_nodes(); }

  /// Deployment topology (positions + radio adjacency) the network was
  /// built over.  The serving layer snapshots it when publishing views.
  const Topology& topology() const { return topology_; }

  /// The distance metric, shareable with read views that outlive a query.
  std::shared_ptr<const DistanceMetric> metric() const { return metric_; }
  int num_clusters() const { return clustering().num_clusters(); }
  double delta() const { return options_.delta; }

  /// Current feature of a node (latest update applied).
  const Feature& feature(int node) const;

  /// Communication ledger across all phases so far.  Categories follow the
  /// subsystem conventions (expand/ack/..., mtree_build, backbone_build,
  /// update_*, query_*, path_*).
  const MessageStats& total_stats() const { return stats_; }

  // -- Checker hooks (elink_check) --------------------------------------------
  //
  // The invariant checkers validate final cluster/index state from outside;
  // these accessors expose it (rebuilding lazily first, like the queries do).

  /// The current M-tree index over the cluster trees (Section 7.1).
  const ClusterIndex& cluster_index();

  /// The current leader backbone (Section 7.2).
  const Backbone& backbone();

  /// Per-node cluster-tree parent (parent[root] == root), matching
  /// cluster_index().
  const std::vector<int>& cluster_tree_parent();

  /// Cost of the initial clustering alone (paper message units).
  uint64_t clustering_cost_units() const { return clustering_cost_units_; }

  // -- Maintenance (Section 6) ------------------------------------------------

  /// Applies a feature update through the A1-A3 slack protocol.
  void UpdateFeature(int node, const Feature& updated);

  /// Verifies the maintained invariant (see MaintenanceSession).
  Status ValidateInvariant() const;

  // -- Queries (Section 7) ----------------------------------------------------

  /// All nodes whose current features are within `r` of `q`.
  /// InvalidArgument for an initiator outside the deployment, a negative or
  /// NaN `r`, or a `q` of the wrong dimension or with a NaN or infinite
  /// component, as RangeQueryDistributed.
  Result<RangeQueryResult> RangeQuery(int initiator, const Feature& q,
                                      double r);

  /// A path from `source` to `destination` on which every node's feature is
  /// at least `gamma` from `danger`, if one exists.  InvalidArgument for an
  /// endpoint outside the deployment, a negative or NaN `gamma`, or a
  /// `danger` of the wrong dimension or with a NaN or infinite component,
  /// as SafePathDistributed.
  Result<PathQueryResult> SafePath(int source, int destination,
                                   const Feature& danger, double gamma);

  // -- Distributed query execution (proto runtime) ----------------------------
  //
  // The engine-backed methods above answer from the centralized accounting
  // models; these run the same queries as actual message-passing protocols
  // in the event simulator (index/query_protocol.h and
  // index/path_query_protocol.h) and report real latencies and wire stats.

  /// Runs the range query as the distributed protocol over the simulated
  /// network.  The aggregate outcome matches RangeQuery's match count.
  Result<DistributedQueryOutcome> RangeQueryDistributed(int initiator,
                                                        const Feature& q,
                                                        double r);

  /// Runs the path query as the distributed protocol; outcome semantics
  /// match SafePath, with the protocol's completion acks added to the stats
  /// under "path_collect".
  Result<PathQueryResult> SafePathDistributed(int source, int destination,
                                              const Feature& danger,
                                              double gamma);

 private:
  ClusteredSensorNetwork(Topology topology,
                         std::shared_ptr<const DistanceMetric> metric,
                         Options options);

  /// (Re)builds cluster trees, M-tree, backbone, and engines from the
  /// current clustering + features; charges index-build messages.
  void RebuildIndex();

  /// Invalidate engines after membership or feature changes.
  void MarkDirty() { index_valid_ = false; }
  void EnsureIndex();

  Topology topology_;
  std::shared_ptr<const DistanceMetric> metric_;
  Options options_;

  std::unique_ptr<MaintenanceSession> maintenance_;
  MessageStats stats_;
  uint64_t clustering_cost_units_ = 0;
  uint64_t maintenance_units_seen_ = 0;

  // Index layer (lazily rebuilt).
  bool index_valid_ = false;
  std::vector<int> tree_parent_;
  std::unique_ptr<ClusterIndex> index_;
  std::unique_ptr<Backbone> backbone_;
  std::unique_ptr<RangeQueryEngine> range_engine_;
  std::unique_ptr<PathQueryEngine> path_engine_;
  std::unique_ptr<DistributedRangeQuery> range_protocol_;
  std::unique_ptr<DistributedPathQuery> path_protocol_;
};

}  // namespace elink

#endif  // ELINK_CORE_CLUSTERED_NETWORK_H_
