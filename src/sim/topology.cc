#include "sim/topology.h"

#include <algorithm>
#include <cmath>

#include "sim/graph.h"

namespace elink {

bool Topology::HasEdge(int u, int v) const {
  const auto& nb = adjacency[u];
  return std::binary_search(nb.begin(), nb.end(), v);
}

int Topology::num_edges() const {
  size_t twice = 0;
  for (const auto& nb : adjacency) twice += nb.size();
  return static_cast<int>(twice / 2);
}

double Topology::average_degree() const {
  if (positions.empty()) return 0.0;
  return 2.0 * num_edges() / static_cast<double>(positions.size());
}

int Topology::max_degree() const {
  size_t d = 0;
  for (const auto& nb : adjacency) d = std::max(d, nb.size());
  return static_cast<int>(d);
}

Topology MakeGridTopology(int rows, int cols, double spacing) {
  ELINK_CHECK(rows > 0 && cols > 0 && spacing > 0);
  Topology t;
  t.width = (cols - 1) * spacing;
  t.height = (rows - 1) * spacing;
  t.positions.resize(static_cast<size_t>(rows) * cols);
  t.adjacency.resize(t.positions.size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int id = r * cols + c;
      t.positions[id] = {c * spacing, r * spacing};
      if (r > 0) t.adjacency[id].push_back(id - cols);
      if (c > 0) t.adjacency[id].push_back(id - 1);
      if (c + 1 < cols) t.adjacency[id].push_back(id + 1);
      if (r + 1 < rows) t.adjacency[id].push_back(id + cols);
    }
  }
  for (auto& nb : t.adjacency) std::sort(nb.begin(), nb.end());
  return t;
}

AdjacencyList UnitDiskAdjacency(const std::vector<Point2D>& positions,
                                double range) {
  ELINK_CHECK(range > 0);
  const int n = static_cast<int>(positions.size());
  AdjacencyList adj(n);
  if (n == 0) return adj;
  Point2D lo = positions[0];
  Point2D hi = positions[0];
  for (const Point2D& p : positions) {
    ELINK_CHECK(std::isfinite(p.x) && std::isfinite(p.y));
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const double ex = hi.x - lo.x;
  const double ey = hi.y - lo.y;
  ELINK_CHECK(std::isfinite(ex) && std::isfinite(ey));
  // Square cells a hair wider than `range`: the relative term covers the
  // rounding of the distance, the extent term that of the cell index, so an
  // in-range pair never lands two cells apart and the 3x3 block around a
  // node holds all its neighbours.  Cells widen when `range` is tiny
  // against the field, which keeps their count below 3n + 1.
  const double side =
      std::max({range * (1 + 1e-9) + std::max(ex, ey) * 1e-12,
                std::sqrt(ex * ey / n), ex / n, ey / n});
  const int nx = static_cast<int>(ex / side) + 1;
  const int ny = static_cast<int>(ey / side) + 1;
  // Bucket the ids by cell with a counting sort: cell c holds
  // bucket[start[c] .. start[c + 1]).
  std::vector<int> cell_of(n);
  std::vector<int> start(static_cast<size_t>(nx) * ny + 1, 0);
  for (int i = 0; i < n; ++i) {
    const int cx = std::min(static_cast<int>((positions[i].x - lo.x) / side),
                            nx - 1);
    const int cy = std::min(static_cast<int>((positions[i].y - lo.y) / side),
                            ny - 1);
    cell_of[i] = cy * nx + cx;
    ++start[cell_of[i]];
  }
  for (size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<int> bucket(n);
  for (int i = n - 1; i >= 0; --i) bucket[--start[cell_of[i]]] = i;

  for (int i = 0; i < n; ++i) {
    // adj[i] already holds its neighbours below i, in ascending order; the
    // scan appends those above i, which are then sorted in place.
    const size_t below = adj[i].size();
    const int cx = cell_of[i] % nx;
    const int cy = cell_of[i] / nx;
    for (int y = std::max(cy - 1, 0); y <= std::min(cy + 1, ny - 1); ++y) {
      for (int x = std::max(cx - 1, 0); x <= std::min(cx + 1, nx - 1); ++x) {
        const int c = y * nx + x;
        for (int k = start[c]; k < start[c + 1]; ++k) {
          const int j = bucket[k];
          if (j > i &&
              EuclideanDistance(positions[i], positions[j]) <= range) {
            adj[i].push_back(j);
            adj[j].push_back(i);
          }
        }
      }
    }
    std::sort(adj[i].begin() + below, adj[i].end());
  }
  return adj;
}

Result<Topology> MakeRandomTopology(int n, double side, double radio_range,
                                    Rng* rng, bool force_connectivity) {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (!(side > 0) || !std::isfinite(side) || !(radio_range > 0) ||
      !std::isfinite(radio_range)) {
    return Status::InvalidArgument(
        "side and radio_range must be positive and finite");
  }
  ELINK_CHECK(rng != nullptr);
  Topology t;
  t.width = side;
  t.height = side;
  t.positions.resize(n);
  for (auto& p : t.positions) {
    p = {rng->Uniform(0, side), rng->Uniform(0, side)};
  }
  double range = radio_range;
  t.adjacency = UnitDiskAdjacency(t.positions, range);
  if (force_connectivity) {
    // Grow the range until the unit-disk graph is connected.  The diagonal
    // of the region is a hard upper bound, so this always terminates.
    const double max_range = std::sqrt(2.0) * side + 1.0;
    while (!IsConnected(t.adjacency) && range < max_range) {
      range *= 1.1;
      t.adjacency = UnitDiskAdjacency(t.positions, range);
    }
    if (!IsConnected(t.adjacency)) {
      return Status::Internal("failed to connect random topology");
    }
  }
  return t;
}

Result<Topology> MakeRandomTopologyWithDegree(int n, double density,
                                              double target_avg_degree,
                                              Rng* rng) {
  if (!(density > 0) || !std::isfinite(density) ||
      !(target_avg_degree > 0) || !std::isfinite(target_avg_degree)) {
    return Status::InvalidArgument(
        "density and degree must be positive and finite");
  }
  const double side = std::sqrt(n / density);
  // For a Poisson process of intensity `density`, the expected number of
  // neighbors within radius r is density * pi * r^2; invert for r.
  const double range =
      std::sqrt(target_avg_degree / (density * M_PI));
  return MakeRandomTopology(n, side, range, rng, /*force_connectivity=*/true);
}

}  // namespace elink
