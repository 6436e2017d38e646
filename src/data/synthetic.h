// Spatially-uncorrelated synthetic workload (paper Section 8.1, "Synthetic").
//
// Nodes are placed uniformly at random (densities 0.7-0.9).  The radio range
// starts at the paper's ~4 expected neighbors and grows until the deployment
// is connected, so the realized mean degree is 9-12 up to 4,000 nodes and
// higher beyond (MakeRandomTopologyWithDegree).  Node i's data follows
// x_t = alpha_i x_{t-1} + e_t with e_t ~ U(0, 1) and alpha_i ~ U(0.4, 0.8)
// drawn independently per node, so neighboring nodes have *uncorrelated*
// model coefficients.  Every node is initialized with alpha = 1 and updates
// the model on each measurement.
#ifndef ELINK_DATA_SYNTHETIC_H_
#define ELINK_DATA_SYNTHETIC_H_

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace elink {

/// Configuration for the synthetic generator.
struct SyntheticConfig {
  int num_nodes = 400;
  /// Node density (nodes per unit area), paper range 0.7-0.9.
  double density = 0.8;
  /// Mean degree the starting radio range is calibrated for (paper: ~4
  /// nodes in radio range); forced connectivity raises the realized degree.
  double target_avg_degree = 4.0;
  /// Length of the training series used to fit alpha per node.
  int train_length = 500;
  /// Length of the evaluation stream (paper generates 100,000 readings; the
  /// dynamic experiments only consume what they need).
  int stream_length = 2000;
  double alpha_min = 0.4;
  double alpha_max = 0.8;
  uint64_t seed = 11;
};

/// Generates the workload: random topology, per-node AR(1) coefficient
/// feature fitted on the training prefix, plus the evaluation stream.
Result<SensorDataset> MakeSyntheticDataset(const SyntheticConfig& config);

}  // namespace elink

#endif  // ELINK_DATA_SYNTHETIC_H_
