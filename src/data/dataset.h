// Dataset abstraction shared by the experiment harnesses.
//
// A SensorDataset bundles a deployment topology with the per-node clustering
// features (model coefficients) and the metric to compare them, i.e. exactly
// the inputs the delta-clustering problem of Section 2 takes.  Dynamic
// workloads additionally carry raw measurement streams for the maintenance
// and scalability experiments.
#ifndef ELINK_DATA_DATASET_H_
#define ELINK_DATA_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "metric/distance.h"
#include "metric/feature.h"
#include "sim/topology.h"

namespace elink {

/// \brief A ready-to-cluster sensor workload.
struct SensorDataset {
  std::string name;
  Topology topology;
  /// Clustering feature per node (model coefficients).
  std::vector<Feature> features;
  /// Metric on the features.
  std::shared_ptr<const DistanceMetric> metric;
  /// Optional per-node raw measurement stream (empty for static datasets).
  /// streams[i][t] is node i's t-th future measurement, used by the dynamic
  /// maintenance / scalability experiments.
  std::vector<std::vector<double>> streams;
  /// The training prefix the features were fitted on (empty for static
  /// datasets).  Streaming experiments warm-start their per-node models from
  /// this history so the first live updates continue the fitted state
  /// instead of jumping from a cold model.
  std::vector<std::vector<double>> train_streams;
  /// Measurements per "day" for datasets with a daily structure (0 if n/a).
  int measurements_per_day = 0;
};

/// Largest pairwise feature distance across communication-graph edges.
/// Useful for calibrating delta sweeps on a dataset.
double MaxNeighborDistance(const SensorDataset& ds);

/// Largest pairwise feature distance over all node pairs (the feature-space
/// diameter).  O(N) when every feature is one finite value under a
/// WeightedEuclidean metric (synthetic, terrain and plume); an O(N^2) scan of
/// all pairs otherwise (Tao's 4-D features, other metrics, NaN or infinite
/// features).  Both give the same bits.
double FeatureDiameter(const SensorDataset& ds);

/// Evenly spaced delta values in [lo_frac, hi_frac] * FeatureDiameter(ds).
std::vector<double> SuggestDeltaSweep(const SensorDataset& ds, int count,
                                      double lo_frac = 0.1,
                                      double hi_frac = 0.6);

}  // namespace elink

#endif  // ELINK_DATA_DATASET_H_
