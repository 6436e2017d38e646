#include "baselines/centralized_cost.h"

#include "proto/wire.h"
#include "sim/point.h"

namespace elink {

int PickBaseStation(const Topology& topology) {
  ELINK_CHECK(topology.num_nodes() > 0);
  const Point2D center{topology.width / 2.0, topology.height / 2.0};
  int best = 0;
  double best_d = EuclideanDistance(topology.positions[0], center);
  for (int i = 1; i < topology.num_nodes(); ++i) {
    const double d = EuclideanDistance(topology.positions[i], center);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

CentralizedRawUpdater::CentralizedRawUpdater(const Topology& topology,
                                             int base_station)
    : routes_(topology.adjacency, base_station) {}

void CentralizedRawUpdater::Measurement(int node) {
  const int hops = routes_.HopsToRoot(node);
  ELINK_CHECK(hops >= 0);
  // One raw measurement per hop: a minimal frame with a single coefficient.
  const uint64_t frame = wire::NominalFrameSize(0, 1);
  for (int h = 0; h < hops; ++h) {
    stats_.Record(CategoryIdOf<"central_raw">(), 1, frame);
  }
}

CentralizedModelUpdater::CentralizedModelUpdater(
    const Topology& topology, int base_station,
    std::shared_ptr<const DistanceMetric> metric, double slack,
    std::vector<Feature> initial_features)
    : routes_(topology.adjacency, base_station),
      metric_(std::move(metric)),
      slack_(slack),
      last_sent_(std::move(initial_features)) {
  ELINK_CHECK(slack_ >= 0.0);
}

bool CentralizedModelUpdater::UpdateFeature(int node, const Feature& updated) {
  if (metric_->Distance(last_sent_[node], updated) <= slack_ + 1e-12) {
    return false;
  }
  const int hops = routes_.HopsToRoot(node);
  ELINK_CHECK(hops >= 0);
  const int dim = static_cast<int>(updated.size());
  const uint64_t frame = wire::NominalFrameSize(0, updated.size());
  for (int h = 0; h < hops; ++h) {
    stats_.Record(CategoryIdOf<"central_model">(), dim, frame);
  }
  last_sent_[node] = updated;
  return true;
}

}  // namespace elink
