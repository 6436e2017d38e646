// Death-Valley-like terrain workload (paper Section 8.1, "Death Valley").
//
// The paper scatters sensors over the USGS Death Valley elevation raster and
// uses the terrain elevation at each sensor as its (static) feature, with
// altitude range (175, 1996); results are averaged over 5 random topologies
// of 2500 samples.  The raster itself is not redistributable here, so we
// synthesize fractal terrain with the diamond-square algorithm — the
// standard model for natural-terrain spatial autocorrelation — and rescale
// it to the published altitude range.  What the experiments need from the
// data is a static, spatially-correlated scalar field with valley/ridge
// structure, which diamond-square provides.
#ifndef ELINK_DATA_TERRAIN_H_
#define ELINK_DATA_TERRAIN_H_

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace elink {

/// Configuration for the terrain generator.
struct TerrainConfig {
  /// Number of scattered sensors (paper: 2500).
  int num_nodes = 2500;
  /// Heightmap resolution exponent in [1, 12]: the raster is (2^k + 1)^2.
  int heightmap_exponent = 7;
  /// Diamond-square roughness in (0, 1); higher is more rugged.
  double roughness = 0.55;
  /// Published elevation range.
  double min_elevation = 175.0;
  double max_elevation = 1996.0;
  /// Radio range as a fraction of the deployment side length.
  double radio_range_fraction = 0.035;
  uint64_t seed = 7;
};

/// \brief A synthetic elevation raster.
class Heightmap {
 public:
  /// Generates a (2^exponent + 1)-sided fractal heightmap, rescaled to
  /// [min_elev, max_elev].
  static Heightmap DiamondSquare(int exponent, double roughness,
                                 double min_elev, double max_elev, Rng* rng);

  int size() const { return size_; }
  double at(int row, int col) const { return cells_[row * size_ + col]; }

  /// Bilinear sample at normalized coordinates (u, v) in [0, 1]^2.
  double Sample(double u, double v) const;

 private:
  Heightmap(int size) : size_(size), cells_(size * size, 0.0) {}

  int size_;
  std::vector<double> cells_;
};

/// Generates one terrain workload: `num_nodes` sensors scattered uniformly,
/// unit-disk communication graph (grown until connected), and 1-dimensional
/// elevation features under plain Euclidean distance.
Result<SensorDataset> MakeTerrainDataset(const TerrainConfig& config);

}  // namespace elink

#endif  // ELINK_DATA_TERRAIN_H_
