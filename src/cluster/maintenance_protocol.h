// A fully distributed, message-passing execution of the Section-6 cluster
// maintenance protocol, run inside the discrete-event simulator.
//
// MaintenanceSession (maintenance.h) applies the A1-A3 logic centrally and
// accounts the messages.  Here every step is a real protocol action: an
// escalating node sends a fetch up its cluster tree hop by hop and the root
// feature travels back down; a detaching node probes its radio neighbors
// and joins over the link it probed; a drifting root pushes its new feature
// down the tree, and nodes orphaned by a detach re-attach or promote
// themselves (the distributed form of the connectivity repair).  Tests
// replay identical update sequences through both implementations and check
// that the outcomes and costs agree.
#ifndef ELINK_CLUSTER_MAINTENANCE_PROTOCOL_H_
#define ELINK_CLUSTER_MAINTENANCE_PROTOCOL_H_

#include <functional>
#include <memory>
#include <vector>

#include "cluster/clustering.h"
#include "cluster/maintenance.h"
#include "common/status.h"
#include "metric/distance.h"
#include "sim/network.h"

namespace elink {

/// \brief Long-lived maintenance protocol over a simulated network.
///
/// Construction deploys the per-node state (verified feature, stored root
/// feature, cluster-tree links).  Each ApplyUpdate injects one feature
/// update at a node and runs the network to quiescence.
///
/// With a non-inert `churn` plan the session becomes *churn-aware*: nodes
/// react to join/leave/crash-repair/link events with local self-healing —
/// orphan adoption when a parent vanishes, restart-as-singleton plus
/// re-probe on repair, cluster split when churn disconnects a tree — and
/// every membership repair bumps a per-cluster epoch observable through
/// cluster_epoch().  A default-constructed plan leaves behavior (and every
/// message) bit-identical to the pre-churn protocol.
class DistributedMaintenance {
 public:
  /// `fault` injects message-level faults (loss, truncation, ...) into the
  /// protocol's network; `churn` schedules topology dynamics.  Both default
  /// plans are inert.
  DistributedMaintenance(const Topology& topology,
                         const Clustering& clustering,
                         const std::vector<Feature>& features,
                         std::shared_ptr<const DistanceMetric> metric,
                         const MaintenanceConfig& config,
                         bool synchronous = true, uint64_t seed = 1,
                         const FaultPlan& fault = {},
                         const ChurnPlan& churn = {});

  ~DistributedMaintenance();

  /// Applies one feature update and simulates until all induced protocol
  /// activity (escalation, detach, probes, pushes, re-attachment) finishes.
  /// Internal when the run stops at the simulator's event cap instead
  /// (a runaway or livelocked protocol); the session is then mid-flight.
  Status ApplyUpdate(int node, const Feature& updated);

  /// Schedules a feature update at absolute simulation time `at` (>= now);
  /// it is injected when the clock reaches `at` — interleaving with churn
  /// events — and silently skipped if the node is absent at that instant
  /// (a sensor that left cannot observe anything).  Drive with
  /// RunToQuiescence (or the next ApplyUpdate).
  void ScheduleUpdate(double at, int node, const Feature& updated);

  /// Drains all pending activity (scheduled updates, churn events, repair
  /// traffic) without injecting anything new.  Internal when the drain
  /// dispatches `max_events` events with work still queued.
  Status RunToQuiescence(uint64_t max_events = Network::kDefaultMaxEvents);

  /// Current clustering as held by the nodes themselves.
  Clustering CurrentClustering() const;

  /// Current feature per node.
  std::vector<Feature> CurrentFeatures() const;

  /// True when `node` is currently deployed under the churn plan (always
  /// true for churn-free sessions).
  bool NodeLive(int node) const;

  /// 0/1 mask of currently-present nodes, sized num_nodes.
  std::vector<char> LiveMask() const;

  /// Radio adjacency as of now (after any link churn), indexed by node.
  /// Identical to the deployment topology for churn-free sessions.
  std::vector<std::vector<int>> LiveAdjacency() const;

  /// Restart count of `node` (churn joins/repairs so far).
  long long node_epoch(int node) const;

  /// Epoch of `node`'s cluster, as counted by its current root: bumped on
  /// every churn-repair membership change the root observed.  0 until the
  /// first re-clustering event.
  long long cluster_epoch(int node) const;

  /// All protocol transmissions so far.
  const MessageStats& stats() const;

  /// Transmissions lost to churn (absent endpoint / removed link); see
  /// Network::churn_drops.
  uint64_t churn_drops() const;

  /// Installs a read-only SimObserver (telemetry/tracer) on the session's
  /// network; subsequent ApplyUpdate calls report through it.  Not owned;
  /// null detaches.  Attaching never changes protocol behavior.
  void set_observer(SimObserver* observer);

  /// Installs a callback fired on every cluster-epoch bump with
  /// (root node, new epoch value) — the invalidation feed of the serving
  /// layer (serve/session.h).  Null detaches.  Observational only: the
  /// hook never changes protocol behavior or message flow.
  void set_epoch_hook(std::function<void(int, long long)> hook);

  /// The Section-6 invariant, evaluated over the nodes' live state:
  /// every present node within `bound` of its (present) root's current
  /// feature.  Churn-absent nodes are skipped; a present node whose root is
  /// absent is a violation (self-healing should have re-rooted it).
  Status ValidateRootDistanceInvariant(double bound) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::shared_ptr<const DistanceMetric> metric_keepalive_;
};

}  // namespace elink

#endif  // ELINK_CLUSTER_MAINTENANCE_PROTOCOL_H_
