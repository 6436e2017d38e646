// Serving sessions: glue between the clustering/maintenance engines and the
// concurrent query frontend.
//
//   * ServeSession wraps a ClusteredSensorNetwork (the static facade):
//     Publish() snapshots the facade's current clustering/features/topology
//     into a fresh ReadView.  Use it to serve a network maintained through
//     UpdateFeature.
//   * MaintenanceServeDriver wraps a DistributedMaintenance session (the
//     message-passing protocol with churn): it registers the protocol's
//     epoch-bump hook, accumulates which nodes' clusters the protocol
//     invalidated, and folds those into the next Publish so cache
//     invalidation is driven by the protocol itself, not only by the
//     frontend's state diff.
//
// Both are single-writer objects: one thread drives maintenance and
// publishes; any number of threads query the embedded frontend.
#ifndef ELINK_SERVE_SESSION_H_
#define ELINK_SERVE_SESSION_H_

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/maintenance_protocol.h"
#include "core/clustered_network.h"
#include "serve/frontend.h"

namespace elink {
namespace serve {

/// \brief Serving over a ClusteredSensorNetwork facade.
class ServeSession {
 public:
  /// Does not take ownership; the network must outlive the session.
  /// Publishes the initial state immediately, so queries work right away.
  ServeSession(ClusteredSensorNetwork* network,
               const ServeFrontend::Options& options);

  /// Re-snapshots the facade (after UpdateFeature batches).  Unchanged
  /// state keeps the cache warm; changed clusters get their epochs bumped.
  void Publish();

  /// Applies a feature update through the facade and republishes.
  void UpdateFeatureAndPublish(int node, const Feature& updated);

  ServeFrontend& frontend() { return frontend_; }
  const ServeFrontend& frontend() const { return frontend_; }

 private:
  ClusteredSensorNetwork* network_;
  ServeFrontend frontend_;
};

/// \brief Serving over a DistributedMaintenance protocol session.
class MaintenanceServeDriver {
 public:
  /// Registers this driver's epoch hook on `maintenance` (replacing any
  /// previous hook).  Does not take ownership.  Publishes the initial state.
  MaintenanceServeDriver(DistributedMaintenance* maintenance,
                         std::shared_ptr<const DistanceMetric> metric,
                         const ServeFrontend::Options& options);
  ~MaintenanceServeDriver();

  /// Applies one update, runs the protocol to quiescence, republishes.  A
  /// run that stops at the event cap publishes nothing and returns its
  /// error: readers keep the last quiescent state.
  Status ApplyUpdateAndPublish(int node, const Feature& updated);

  /// Drains protocol activity (scheduled updates, churn) and republishes;
  /// on a capped drain, returns the error without publishing.
  Status RunToQuiescenceAndPublish();

  /// Republishes the protocol's current state without injecting anything.
  void Publish();

  ServeFrontend& frontend() { return frontend_; }
  const ServeFrontend& frontend() const { return frontend_; }

 private:
  /// Hook-reported nodes, translated to roots at publish time.
  std::vector<int> DrainPendingRoots(const Clustering& clustering,
                                     const std::vector<char>& live);

  DistributedMaintenance* maintenance_;
  ServeFrontend frontend_;
  std::mutex pending_mu_;
  std::vector<int> pending_bumped_nodes_;
};

}  // namespace serve
}  // namespace elink

#endif  // ELINK_SERVE_SESSION_H_
