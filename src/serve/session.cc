#include "serve/session.h"

#include <algorithm>

#include "common/status.h"

namespace elink {
namespace serve {

ServeSession::ServeSession(ClusteredSensorNetwork* network,
                           const ServeFrontend::Options& options)
    : network_(network), frontend_(network->metric(), options) {
  ELINK_CHECK(network_ != nullptr);
  Publish();
}

void ServeSession::Publish() {
  const int n = network_->num_nodes();
  std::vector<Feature> features;
  features.reserve(n);
  for (int i = 0; i < n; ++i) features.push_back(network_->feature(i));
  frontend_.Publish(network_->clustering(), features,
                    network_->topology().adjacency);
}

void ServeSession::UpdateFeatureAndPublish(int node, const Feature& updated) {
  network_->UpdateFeature(node, updated);
  Publish();
}

MaintenanceServeDriver::MaintenanceServeDriver(
    DistributedMaintenance* maintenance,
    std::shared_ptr<const DistanceMetric> metric,
    const ServeFrontend::Options& options)
    : maintenance_(maintenance), frontend_(std::move(metric), options) {
  ELINK_CHECK(maintenance_ != nullptr);
  maintenance_->set_epoch_hook([this](int node, long long /*epoch*/) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_bumped_nodes_.push_back(node);
  });
  Publish();
}

MaintenanceServeDriver::~MaintenanceServeDriver() {
  maintenance_->set_epoch_hook(nullptr);
}

Status MaintenanceServeDriver::ApplyUpdateAndPublish(int node,
                                                     const Feature& updated) {
  ELINK_RETURN_NOT_OK(maintenance_->ApplyUpdate(node, updated));
  Publish();
  return Status::OK();
}

Status MaintenanceServeDriver::RunToQuiescenceAndPublish() {
  ELINK_RETURN_NOT_OK(maintenance_->RunToQuiescence());
  Publish();
  return Status::OK();
}

void MaintenanceServeDriver::Publish() {
  const Clustering clustering = maintenance_->CurrentClustering();
  const std::vector<Feature> features = maintenance_->CurrentFeatures();
  const std::vector<char> live = maintenance_->LiveMask();
  const std::vector<int> roots = DrainPendingRoots(clustering, live);
  frontend_.Publish(clustering, features, maintenance_->LiveAdjacency(), live,
                    roots);
}

std::vector<int> MaintenanceServeDriver::DrainPendingRoots(
    const Clustering& clustering, const std::vector<char>& live) {
  std::vector<int> nodes;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    nodes.swap(pending_bumped_nodes_);
  }
  // The protocol reports the node that observed the change; translate each
  // to the cluster it roots (or belongs to) in the state being published.
  std::vector<int> roots;
  roots.reserve(nodes.size());
  const int n = static_cast<int>(clustering.root_of.size());
  for (int node : nodes) {
    if (node < 0 || node >= n) continue;
    if (!live.empty() && !live[node]) continue;
    roots.push_back(clustering.root_of[node]);
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

}  // namespace serve
}  // namespace elink
