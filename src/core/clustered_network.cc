#include "core/clustered_network.h"

#include <initializer_list>
#include <vector>

#include "common/strings.h"

namespace elink {
namespace {

// The query arguments the protocols refuse: a node outside the deployment,
// a negative or NaN radius (or gamma), a query feature whose dimension is not
// the deployment's or that has a NaN or infinite component.
Status CheckQueryArgs(const std::vector<Feature>& features,
                      std::initializer_list<int> nodes, const Feature& query,
                      double radius) {
  const int n = static_cast<int>(features.size());
  for (int node : nodes) {
    if (node < 0 || node >= n) {
      return Status::InvalidArgument(
          StringPrintf("query node %d out of range [0, %d)", node, n));
    }
  }
  // Negated, so a NaN radius fails it too.
  if (!(radius >= 0)) {
    return Status::InvalidArgument("query radius must be non-negative");
  }
  if (query.size() != features[*nodes.begin()].size()) {
    return Status::InvalidArgument("query feature has the wrong dimension");
  }
  if (!IsFinite(query)) {
    return Status::InvalidArgument("query feature must be finite");
  }
  return Status::OK();
}

}  // namespace

ClusteredSensorNetwork::ClusteredSensorNetwork(
    Topology topology, std::shared_ptr<const DistanceMetric> metric,
    Options options)
    : topology_(std::move(topology)),
      metric_(std::move(metric)),
      options_(options) {}

Result<std::unique_ptr<ClusteredSensorNetwork>> ClusteredSensorNetwork::Build(
    const SensorDataset& dataset, const Options& options) {
  if (dataset.metric == nullptr) {
    return Status::InvalidArgument("dataset has no metric");
  }

  ElinkConfig cfg;
  cfg.delta = options.delta;
  cfg.slack = options.slack;
  cfg.phi_fraction = options.phi_fraction;
  cfg.max_switches = options.max_switches;
  cfg.synchronous = options.synchronous;
  cfg.seed = options.seed;
  Result<ElinkResult> clustered =
      RunElink(dataset.topology, dataset.features, *dataset.metric, cfg,
               options.mode);
  if (!clustered.ok()) return clustered.status();

  auto net = std::unique_ptr<ClusteredSensorNetwork>(
      new ClusteredSensorNetwork(dataset.topology, dataset.metric, options));
  net->stats_.Merge(clustered.value().stats);
  net->clustering_cost_units_ = clustered.value().stats.total_units();

  MaintenanceConfig mcfg;
  mcfg.delta = options.delta;
  mcfg.slack = options.slack;
  net->maintenance_ = std::make_unique<MaintenanceSession>(
      net->topology_, clustered.value().clustering, dataset.features,
      net->metric_, mcfg);
  net->RebuildIndex();
  return net;
}

const Clustering& ClusteredSensorNetwork::clustering() const {
  return maintenance_->clustering();
}

const Feature& ClusteredSensorNetwork::feature(int node) const {
  return maintenance_->current_features()[node];
}

void ClusteredSensorNetwork::UpdateFeature(int node, const Feature& updated) {
  maintenance_->UpdateFeature(node, updated);
  MarkDirty();
}

Status ClusteredSensorNetwork::ValidateInvariant() const {
  return maintenance_->ValidateRootDistanceInvariant(options_.delta +
                                                     2 * options_.slack);
}

void ClusteredSensorNetwork::RebuildIndex() {
  const Clustering& clustering = maintenance_->clustering();
  const std::vector<Feature>& features = maintenance_->current_features();
  tree_parent_ = BuildClusterTrees(clustering, topology_.adjacency);
  index_ = std::make_unique<ClusterIndex>(ClusterIndex::Build(
      clustering, tree_parent_, features, *metric_, &stats_));
  backbone_ = std::make_unique<Backbone>(
      Backbone::Build(clustering, topology_.adjacency, &stats_, &features,
                      metric_.get()));
  range_engine_ = std::make_unique<RangeQueryEngine>(
      clustering, *index_, *backbone_, features, *metric_, options_.delta);
  path_engine_ = std::make_unique<PathQueryEngine>(
      clustering, *index_, *backbone_, topology_.adjacency, features,
      *metric_, options_.delta);
  DistributedRangeQuery::ProtocolOptions qopt;
  qopt.synchronous = options_.synchronous;
  qopt.seed = options_.seed;
  range_protocol_ = std::make_unique<DistributedRangeQuery>(
      topology_, clustering, *index_, *backbone_, features, metric_, qopt);
  PathProtocolOptions popt;
  popt.synchronous = options_.synchronous;
  popt.seed = options_.seed;
  path_protocol_ = std::make_unique<DistributedPathQuery>(
      topology_, clustering, *index_, *backbone_, features, metric_, popt);
  index_valid_ = true;
}

void ClusteredSensorNetwork::EnsureIndex() {
  // Fold in maintenance messages recorded since the last sync.
  const uint64_t seen = maintenance_->stats().total_units();
  if (seen > maintenance_units_seen_) {
    MessageStats delta_stats;
    // Category detail is preserved by merging the whole ledger once at the
    // end of a run; here we only need the totals to stay consistent, so we
    // re-merge the difference under a single category.
    delta_stats.Record(CategoryIdOf<"maintenance">(),
                       static_cast<int>(seen - maintenance_units_seen_));
    stats_.Merge(delta_stats);
    maintenance_units_seen_ = seen;
  }
  if (!index_valid_) RebuildIndex();
}

const ClusterIndex& ClusteredSensorNetwork::cluster_index() {
  EnsureIndex();
  return *index_;
}

const Backbone& ClusteredSensorNetwork::backbone() {
  EnsureIndex();
  return *backbone_;
}

const std::vector<int>& ClusteredSensorNetwork::cluster_tree_parent() {
  EnsureIndex();
  return tree_parent_;
}

Result<RangeQueryResult> ClusteredSensorNetwork::RangeQuery(int initiator,
                                                            const Feature& q,
                                                            double r) {
  if (Status s = CheckQueryArgs(maintenance_->current_features(), {initiator},
                                q, r);
      !s.ok()) {
    return s;
  }
  EnsureIndex();
  RangeQueryResult result = range_engine_->Query(initiator, q, r);
  stats_.Merge(result.stats);
  return result;
}

Result<PathQueryResult> ClusteredSensorNetwork::SafePath(int source,
                                                         int destination,
                                                         const Feature& danger,
                                                         double gamma) {
  if (Status s = CheckQueryArgs(maintenance_->current_features(),
                                {source, destination}, danger, gamma);
      !s.ok()) {
    return s;
  }
  EnsureIndex();
  PathQueryResult result =
      path_engine_->Query(source, destination, danger, gamma);
  stats_.Merge(result.stats);
  return result;
}

Result<DistributedQueryOutcome> ClusteredSensorNetwork::RangeQueryDistributed(
    int initiator, const Feature& q, double r) {
  EnsureIndex();
  Result<DistributedQueryOutcome> out = range_protocol_->Run(initiator, q, r);
  if (out.ok()) stats_.Merge(out.value().stats);
  return out;
}

Result<PathQueryResult> ClusteredSensorNetwork::SafePathDistributed(
    int source, int destination, const Feature& danger, double gamma) {
  EnsureIndex();
  Result<PathQueryResult> out =
      path_protocol_->Run(source, destination, danger, gamma);
  if (out.ok()) stats_.Merge(out.value().stats);
  return out;
}

}  // namespace elink
