// Tracking a moving contaminant plume (the paper's Section-1 motivation [5]
// and Section-7.3 rescue scenario), built on the high-level
// ClusteredSensorNetwork facade.
//
// A Gaussian puff advects across a 400-sensor field.  The network clusters
// on the initial concentration snapshot; as the plume moves, feature updates
// flow through the slack-based maintenance protocol, and a rescue team
// re-plans a safe route across the region after every few steps.
//
//   ./contaminant_tracking
#include <cstdio>

#include "core/clustered_network.h"
#include "data/plume.h"

using namespace elink;

int main() {
  PlumeConfig plume;
  Result<SensorDataset> ds_r = MakePlumeDataset(plume);
  if (!ds_r.ok()) {
    std::fprintf(stderr, "%s\n", ds_r.status().ToString().c_str());
    return 1;
  }
  SensorDataset& ds = ds_r.value();
  std::printf("deployment: %d sensors over %.0fm x %.0fm; puff released at "
              "(%.0f, %.0f), wind (%.0f, %.0f) m/step\n",
              ds.topology.num_nodes(), plume.side, plume.side,
              plume.source_x, plume.source_y, plume.wind_x, plume.wind_y);

  ClusteredSensorNetwork::Options opts;
  opts.delta = 0.3 * FeatureDiameter(ds);
  opts.slack = 0.1 * opts.delta;
  opts.seed = 4;
  Result<std::unique_ptr<ClusteredSensorNetwork>> net_r =
      ClusteredSensorNetwork::Build(ds, opts);
  if (!net_r.ok()) {
    std::fprintf(stderr, "%s\n", net_r.status().ToString().c_str());
    return 1;
  }
  ClusteredSensorNetwork& net = *net_r.value();
  std::printf("initial clustering: %d concentration zones (delta = %.2f), "
              "%llu units\n\n",
              net.num_clusters(), opts.delta,
              static_cast<unsigned long long>(net.clustering_cost_units()));

  // Mission: cross the region from the southwest to the northeast corner
  // while staying clear of high concentrations.  The danger signature is
  // "concentration like the plume peak at the snapshot"; gamma is the
  // required separation in concentration space.
  int src = 0, dst = 0;
  for (int i = 1; i < ds.topology.num_nodes(); ++i) {
    const Point2D& p = ds.topology.positions[i];
    const Point2D& ps = ds.topology.positions[src];
    const Point2D& pd = ds.topology.positions[dst];
    if (p.x + p.y < ps.x + ps.y) src = i;
    if (p.x + p.y > pd.x + pd.y) dst = i;
  }
  const Feature danger = {plume.peak};
  const double gamma = 0.85 * plume.peak;

  std::printf("%6s %10s %10s %10s %12s\n", "step", "clusters", "routable",
              "path_len", "maint_units");
  for (int step = 0; step < plume.stream_steps; ++step) {
    for (int i = 0; i < ds.topology.num_nodes(); ++i) {
      net.UpdateFeature(i, {ds.streams[i][step]});
    }
    if (step % 8 == 3) {
      const Result<PathQueryResult> route_r =
          net.SafePath(src, dst, danger, gamma);
      if (!route_r.ok()) {
        std::fprintf(stderr, "%s\n", route_r.status().ToString().c_str());
        return 1;
      }
      const PathQueryResult& route = route_r.value();
      std::printf("%6d %10d %10s %10zu %12llu\n", step, net.num_clusters(),
                  route.found ? "yes" : "NO",
                  route.found ? route.path.size() - 1 : 0,
                  static_cast<unsigned long long>(
                      net.total_stats().units("maintenance")));
    }
  }
  const Status invariant = net.ValidateInvariant();
  std::printf("\nmaintenance invariant after the whole episode: %s\n",
              invariant.ToString().c_str());
  std::printf("total communication: %s\n", net.total_stats().ToString().c_str());
  return invariant.ok() ? 0 : 1;
}
