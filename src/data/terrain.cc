#include "data/terrain.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace elink {

Heightmap Heightmap::DiamondSquare(int exponent, double roughness,
                                   double min_elev, double max_elev,
                                   Rng* rng) {
  ELINK_CHECK(exponent >= 1 && exponent <= 12);
  ELINK_CHECK(roughness > 0.0 && roughness < 1.0);
  const int size = (1 << exponent) + 1;
  Heightmap hm(size);
  auto cell = [&](int r, int c) -> double& {
    return hm.cells_[r * size + c];
  };

  // Seed the corners.
  cell(0, 0) = rng->Uniform(-1, 1);
  cell(0, size - 1) = rng->Uniform(-1, 1);
  cell(size - 1, 0) = rng->Uniform(-1, 1);
  cell(size - 1, size - 1) = rng->Uniform(-1, 1);

  double scale = 1.0;
  for (int step = size - 1; step > 1; step /= 2) {
    const int half = step / 2;
    // Diamond step: centers of squares.
    for (int r = half; r < size; r += step) {
      for (int c = half; c < size; c += step) {
        const double avg = (cell(r - half, c - half) + cell(r - half, c + half) +
                            cell(r + half, c - half) + cell(r + half, c + half)) /
                           4.0;
        cell(r, c) = avg + rng->Uniform(-scale, scale);
      }
    }
    // Square step: edge midpoints.
    for (int r = 0; r < size; r += half) {
      for (int c = (r + half) % step; c < size; c += step) {
        double sum = 0.0;
        int count = 0;
        if (r >= half) {
          sum += cell(r - half, c);
          ++count;
        }
        if (r + half < size) {
          sum += cell(r + half, c);
          ++count;
        }
        if (c >= half) {
          sum += cell(r, c - half);
          ++count;
        }
        if (c + half < size) {
          sum += cell(r, c + half);
          ++count;
        }
        cell(r, c) = sum / count + rng->Uniform(-scale, scale);
      }
    }
    scale *= roughness;
  }

  // Rescale to the requested elevation range.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : hm.cells_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  for (double& v : hm.cells_) {
    v = min_elev + (v - lo) / span * (max_elev - min_elev);
  }
  return hm;
}

double Heightmap::Sample(double u, double v) const {
  u = std::clamp(u, 0.0, 1.0);
  v = std::clamp(v, 0.0, 1.0);
  const double fx = u * (size_ - 1);
  const double fy = v * (size_ - 1);
  const int x0 = std::min(static_cast<int>(fx), size_ - 2);
  const int y0 = std::min(static_cast<int>(fy), size_ - 2);
  const double tx = fx - x0;
  const double ty = fy - y0;
  const double a = at(y0, x0);
  const double b = at(y0, x0 + 1);
  const double c = at(y0 + 1, x0);
  const double d = at(y0 + 1, x0 + 1);
  return a * (1 - tx) * (1 - ty) + b * tx * (1 - ty) + c * (1 - tx) * ty +
         d * tx * ty;
}

Result<SensorDataset> MakeTerrainDataset(const TerrainConfig& config) {
  if (config.num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  if (config.max_elevation <= config.min_elevation) {
    return Status::InvalidArgument("elevation range is empty");
  }
  if (config.heightmap_exponent < 1 || config.heightmap_exponent > 12) {
    return Status::InvalidArgument("heightmap_exponent must be in [1, 12]");
  }
  if (!(config.roughness > 0.0 && config.roughness < 1.0)) {
    return Status::InvalidArgument("roughness must be in (0, 1)");
  }
  Rng rng(config.seed);
  Heightmap hm =
      Heightmap::DiamondSquare(config.heightmap_exponent, config.roughness,
                               config.min_elevation, config.max_elevation,
                               &rng);

  const double side = 1.0;
  Result<Topology> topo =
      MakeRandomTopology(config.num_nodes, side,
                         side * config.radio_range_fraction, &rng,
                         /*force_connectivity=*/true);
  if (!topo.ok()) return topo.status();

  SensorDataset ds;
  ds.name = "terrain-like";
  ds.topology = std::move(topo).value();
  ds.metric = std::make_shared<WeightedEuclidean>(
      WeightedEuclidean::Euclidean(1));
  ds.features.resize(config.num_nodes);
  for (int i = 0; i < config.num_nodes; ++i) {
    const Point2D& p = ds.topology.positions[i];
    ds.features[i] = {hm.Sample(p.x / side, p.y / side)};
  }
  return ds;
}

}  // namespace elink
