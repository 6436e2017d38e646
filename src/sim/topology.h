// Deployment topologies: node positions plus the communication graph.
//
// The paper evaluates on a 6x9 buoy grid (Tao), 2500 sensors scattered over
// terrain (Death Valley), and uniform-random placements of 100-800 nodes with
// ~4 neighbors in radio range (synthetic).  All three are generated here as
// unit-disk communication graphs.
#ifndef ELINK_SIM_TOPOLOGY_H_
#define ELINK_SIM_TOPOLOGY_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sim/graph.h"
#include "sim/point.h"

namespace elink {

/// \brief Node positions and communication-graph adjacency.
struct Topology {
  std::vector<Point2D> positions;
  /// adjacency[i] lists the ids of i's radio neighbors, sorted ascending.
  std::vector<std::vector<int>> adjacency;
  /// Bounding box of the deployment: [0, width] x [0, height].
  double width = 0.0;
  double height = 0.0;

  int num_nodes() const { return static_cast<int>(positions.size()); }

  /// True when (u, v) is a communication edge.
  bool HasEdge(int u, int v) const;

  /// Number of undirected edges.
  int num_edges() const;

  /// Mean node degree.
  double average_degree() const;

  /// Maximum node degree (the paper's constant d).
  int max_degree() const;
};

/// Regular rows x cols grid with `spacing` between adjacent nodes; the
/// communication graph is 4-connected (N/S/E/W grid neighbors).  Node id of
/// grid cell (r, c) is r * cols + c.
Topology MakeGridTopology(int rows, int cols, double spacing = 1.0);

/// Unit-disk graph on `positions`: i and j are neighbours exactly when
/// EuclideanDistance(positions[i], positions[j]) <= range, and each list is
/// sorted ascending.  Buckets the nodes into a grid of cells about `range`
/// wide, so it costs O(N + E) time and O(N) extra memory.  `range` must be
/// positive, and the positions finite and less than DBL_MAX apart along
/// each axis.
AdjacencyList UnitDiskAdjacency(const std::vector<Point2D>& positions,
                                double range);

/// Uniform-random placement of n nodes on a square of side `side`, connected
/// as a unit-disk graph with `radio_range`.  When `force_connectivity` is
/// set, the radio range is grown (by 10% steps) until the graph is connected,
/// which mirrors common sensor-network evaluation practice.
Result<Topology> MakeRandomTopology(int n, double side, double radio_range,
                                    Rng* rng, bool force_connectivity = true);

/// Uniform-random placement whose starting radio range would give a Poisson
/// field of `density` = n / side^2 a mean degree of `target_avg_degree` (the
/// paper's synthetic setup uses ~4).  Forced connectivity then grows the
/// range, so the realized mean degree is well above the target: for target 4
/// at density 0.8 it is 9.4-11.6 at 200-4,000 nodes, 12.5 at 16k-32k and
/// 15.1 at 100k.
Result<Topology> MakeRandomTopologyWithDegree(int n, double density,
                                              double target_avg_degree,
                                              Rng* rng);

}  // namespace elink

#endif  // ELINK_SIM_TOPOLOGY_H_
