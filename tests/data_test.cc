// Tests for src/data: the Tao-like, terrain, and synthetic generators and
// the dataset helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "data/dataset.h"
#include "sim/graph.h"
#include "data/plume.h"
#include "data/synthetic.h"
#include "data/tao.h"
#include "data/terrain.h"

namespace elink {
namespace {

// Mean pairwise feature distance between communication-graph neighbors vs.
// between random non-neighbor pairs; spatially correlated data must have the
// former clearly smaller.
std::pair<double, double> NeighborVsGlobalDistance(const SensorDataset& ds) {
  double nb_sum = 0.0;
  int nb_count = 0;
  const int n = ds.topology.num_nodes();
  for (int i = 0; i < n; ++i) {
    for (int j : ds.topology.adjacency[i]) {
      if (j <= i) continue;
      nb_sum += ds.metric->Distance(ds.features[i], ds.features[j]);
      ++nb_count;
    }
  }
  double all_sum = 0.0;
  int all_count = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      all_sum += ds.metric->Distance(ds.features[i], ds.features[j]);
      ++all_count;
    }
  }
  return {nb_sum / nb_count, all_sum / all_count};
}

TEST(TaoDatasetTest, ShapeMatchesPaperSetup) {
  TaoConfig cfg;
  cfg.measurements_per_day = 48;  // Keep the test fast.
  cfg.train_days = 10;
  cfg.eval_days = 5;
  Result<SensorDataset> ds = MakeTaoDataset(cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().topology.num_nodes(), 54);  // 6 x 9 grid.
  EXPECT_EQ(ds.value().features.size(), 54u);
  for (const auto& f : ds.value().features) EXPECT_EQ(f.size(), 4u);
  for (const auto& s : ds.value().streams) {
    EXPECT_EQ(s.size(), static_cast<size_t>(5 * 48));
  }
  EXPECT_EQ(ds.value().measurements_per_day, 48);
}

TEST(TaoDatasetTest, TemperaturesInPlausibleSeaSurfaceRange) {
  TaoConfig cfg;
  cfg.measurements_per_day = 48;
  cfg.train_days = 10;
  cfg.eval_days = 2;
  Result<SensorDataset> ds = MakeTaoDataset(cfg);
  ASSERT_TRUE(ds.ok());
  double lo = 1e9, hi = -1e9, sum = 0.0;
  long long count = 0;
  for (const auto& s : ds.value().streams) {
    for (double v : s) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
      ++count;
    }
  }
  // Paper's December-1998 statistics: range (19.57, 32.79), mean 25.61.
  EXPECT_GT(lo, 19.0);
  EXPECT_LT(hi, 33.0);
  EXPECT_NEAR(sum / count, 25.6, 1.5);
}

TEST(TaoDatasetTest, SpatiallyCorrelated) {
  TaoConfig cfg;
  cfg.measurements_per_day = 48;
  cfg.train_days = 12;
  cfg.eval_days = 1;
  Result<SensorDataset> ds = MakeTaoDataset(cfg);
  ASSERT_TRUE(ds.ok());
  const auto [nb, global] = NeighborVsGlobalDistance(ds.value());
  EXPECT_LT(nb, 0.8 * global);
}

TEST(TaoDatasetTest, DeterministicForSeed) {
  TaoConfig cfg;
  cfg.measurements_per_day = 24;
  cfg.train_days = 6;
  cfg.eval_days = 1;
  Result<SensorDataset> a = MakeTaoDataset(cfg);
  Result<SensorDataset> b = MakeTaoDataset(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().features, b.value().features);
}

TEST(TaoDatasetTest, RejectsBadConfig) {
  TaoConfig cfg;
  cfg.train_days = 2;
  EXPECT_FALSE(MakeTaoDataset(cfg).ok());
  TaoConfig cfg2;
  cfg2.num_regimes = 0;
  EXPECT_FALSE(MakeTaoDataset(cfg2).ok());
}

TEST(TaoDatasetTest, DistanceWeightsMatchPaper) {
  const auto w = TaoDistanceWeights();
  EXPECT_EQ(w, (std::vector<double>{0.5, 0.3, 0.2, 0.1}));
}

TEST(HeightmapTest, DiamondSquareCoversRequestedRange) {
  Rng rng(3);
  Heightmap hm = Heightmap::DiamondSquare(5, 0.5, 175.0, 1996.0, &rng);
  EXPECT_EQ(hm.size(), 33);
  double lo = 1e9, hi = -1e9;
  for (int r = 0; r < hm.size(); ++r) {
    for (int c = 0; c < hm.size(); ++c) {
      lo = std::min(lo, hm.at(r, c));
      hi = std::max(hi, hm.at(r, c));
    }
  }
  EXPECT_DOUBLE_EQ(lo, 175.0);
  EXPECT_DOUBLE_EQ(hi, 1996.0);
}

TEST(HeightmapTest, BilinearSampleInterpolates) {
  Rng rng(5);
  Heightmap hm = Heightmap::DiamondSquare(4, 0.5, 0.0, 100.0, &rng);
  // Corner samples equal the corner cells.
  EXPECT_DOUBLE_EQ(hm.Sample(0.0, 0.0), hm.at(0, 0));
  EXPECT_DOUBLE_EQ(hm.Sample(1.0, 1.0), hm.at(hm.size() - 1, hm.size() - 1));
  // Any sample stays within the map's range.
  for (double u = 0.0; u <= 1.0; u += 0.13) {
    for (double v = 0.0; v <= 1.0; v += 0.17) {
      const double s = hm.Sample(u, v);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 100.0);
    }
  }
}

TEST(TerrainDatasetTest, ShapeAndElevationRange) {
  TerrainConfig cfg;
  cfg.num_nodes = 300;  // Keep the test fast.
  cfg.radio_range_fraction = 0.1;
  Result<SensorDataset> ds = MakeTerrainDataset(cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().topology.num_nodes(), 300);
  EXPECT_TRUE(IsConnected(ds.value().topology.adjacency));
  for (const auto& f : ds.value().features) {
    ASSERT_EQ(f.size(), 1u);
    EXPECT_GE(f[0], 175.0);
    EXPECT_LE(f[0], 1996.0);
  }
  EXPECT_TRUE(ds.value().streams.empty());  // Static dataset.
}

TEST(TerrainDatasetTest, SpatiallyCorrelated) {
  TerrainConfig cfg;
  cfg.num_nodes = 400;
  cfg.radio_range_fraction = 0.08;
  Result<SensorDataset> ds = MakeTerrainDataset(cfg);
  ASSERT_TRUE(ds.ok());
  const auto [nb, global] = NeighborVsGlobalDistance(ds.value());
  EXPECT_LT(nb, 0.6 * global);
}

TEST(TerrainDatasetTest, DifferentSeedsDifferentTerrain) {
  TerrainConfig a, b;
  a.num_nodes = b.num_nodes = 100;
  a.radio_range_fraction = b.radio_range_fraction = 0.15;
  a.seed = 1;
  b.seed = 2;
  Result<SensorDataset> da = MakeTerrainDataset(a);
  Result<SensorDataset> db = MakeTerrainDataset(b);
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_NE(da.value().features, db.value().features);
}

// Out-of-range heightmap parameters used to abort inside DiamondSquare.
TEST(TerrainDatasetTest, RejectsBadHeightmapParameters) {
  for (int exponent : {-1, 0, 13}) {
    TerrainConfig cfg;
    cfg.num_nodes = 50;
    cfg.heightmap_exponent = exponent;
    Result<SensorDataset> ds = MakeTerrainDataset(cfg);
    ASSERT_FALSE(ds.ok()) << "exponent " << exponent;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  }
  for (double roughness : {-0.5, 0.0, 1.0, 1.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
    TerrainConfig cfg;
    cfg.num_nodes = 50;
    cfg.roughness = roughness;
    Result<SensorDataset> ds = MakeTerrainDataset(cfg);
    ASSERT_FALSE(ds.ok()) << "roughness " << roughness;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SyntheticDatasetTest, AlphaFeaturesInConfiguredRange) {
  SyntheticConfig cfg;
  cfg.num_nodes = 150;
  cfg.train_length = 400;
  cfg.stream_length = 50;
  Result<SensorDataset> ds = MakeSyntheticDataset(cfg);
  ASSERT_TRUE(ds.ok());
  for (const auto& f : ds.value().features) {
    ASSERT_EQ(f.size(), 1u);
    // Fitted AR(1) coefficients estimate alpha in U(0.4, 0.8); allow noise.
    EXPECT_GT(f[0], 0.2);
    EXPECT_LT(f[0], 0.95);
  }
}

TEST(SyntheticDatasetTest, SpatiallyUncorrelated) {
  SyntheticConfig cfg;
  cfg.num_nodes = 300;
  Result<SensorDataset> ds = MakeSyntheticDataset(cfg);
  ASSERT_TRUE(ds.ok());
  const auto [nb, global] = NeighborVsGlobalDistance(ds.value());
  // No spatial structure: neighbor distances are like global distances.
  EXPECT_GT(nb, 0.7 * global);
  EXPECT_LT(nb, 1.3 * global);
}

TEST(SyntheticDatasetTest, ConnectedWithTargetDegree) {
  SyntheticConfig cfg;
  cfg.num_nodes = 250;
  cfg.density = 0.7;
  Result<SensorDataset> ds = MakeSyntheticDataset(cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(IsConnected(ds.value().topology.adjacency));
  EXPECT_GE(ds.value().topology.average_degree(), 3.0);
}

TEST(SyntheticDatasetTest, RejectsBadConfig) {
  SyntheticConfig cfg;
  cfg.alpha_min = 0.9;
  cfg.alpha_max = 0.5;
  EXPECT_FALSE(MakeSyntheticDataset(cfg).ok());
  SyntheticConfig cfg2;
  cfg2.train_length = 3;
  EXPECT_FALSE(MakeSyntheticDataset(cfg2).ok());
}

TEST(DatasetHelpersTest, DiameterAndSweep) {
  SensorDataset ds;
  ds.topology = MakeGridTopology(1, 3);
  ds.features = {{0.0}, {4.0}, {10.0}};
  ds.metric =
      std::make_shared<WeightedEuclidean>(WeightedEuclidean::Euclidean(1));
  EXPECT_DOUBLE_EQ(FeatureDiameter(ds), 10.0);
  EXPECT_DOUBLE_EQ(MaxNeighborDistance(ds), 6.0);
  const auto sweep = SuggestDeltaSweep(ds, 3, 0.1, 0.5);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep.front(), 1.0);
  EXPECT_DOUBLE_EQ(sweep.back(), 5.0);
  EXPECT_DOUBLE_EQ(sweep[1], 3.0);
}


// -- Plume (contaminant flow) ---------------------------------------------------

TEST(PlumeDatasetTest, ShapeAndNonNegativity) {
  PlumeConfig cfg;
  cfg.num_nodes = 150;
  cfg.radio_range_fraction = 0.12;
  Result<SensorDataset> ds = MakePlumeDataset(cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().topology.num_nodes(), 150);
  EXPECT_TRUE(IsConnected(ds.value().topology.adjacency));
  for (const auto& f : ds.value().features) {
    ASSERT_EQ(f.size(), 1u);
    EXPECT_GE(f[0], 0.0);
  }
  for (const auto& s : ds.value().streams) {
    EXPECT_EQ(s.size(), static_cast<size_t>(cfg.stream_steps));
  }
}

TEST(PlumeDatasetTest, ConcentrationPeaksAtPuffCenter) {
  PlumeConfig cfg;
  const double cx = cfg.source_x + cfg.wind_x * 5;
  const double cy = cfg.source_y + cfg.wind_y * 5;
  const double at_center = PlumeConcentration(cfg, cx, cy, 5);
  EXPECT_GT(at_center, PlumeConcentration(cfg, cx + 100, cy, 5));
  EXPECT_GT(at_center, PlumeConcentration(cfg, cx, cy + 100, 5));
  // Diffusion: the peak decays over time.
  EXPECT_GT(PlumeConcentration(cfg, cfg.source_x, cfg.source_y, 0),
            at_center);
}

TEST(PlumeDatasetTest, PlumeAdvectsDownwind) {
  PlumeConfig cfg;
  // A point downwind of the source sees its concentration rise as the puff
  // arrives.
  const double px = cfg.source_x + cfg.wind_x * 20;
  const double py = cfg.source_y + cfg.wind_y * 20;
  EXPECT_GT(PlumeConcentration(cfg, px, py, 20),
            PlumeConcentration(cfg, px, py, 0));
}

TEST(PlumeDatasetTest, SpatiallyCorrelated) {
  PlumeConfig cfg;
  cfg.num_nodes = 250;
  cfg.radio_range_fraction = 0.1;
  Result<SensorDataset> ds = MakePlumeDataset(cfg);
  ASSERT_TRUE(ds.ok());
  const auto [nb, global] = NeighborVsGlobalDistance(ds.value());
  EXPECT_LT(nb, 0.7 * global);
}

TEST(PlumeDatasetTest, RejectsBadConfig) {
  PlumeConfig cfg;
  cfg.num_nodes = 0;
  EXPECT_FALSE(MakePlumeDataset(cfg).ok());
  PlumeConfig cfg2;
  cfg2.sigma0 = 0.0;
  EXPECT_FALSE(MakePlumeDataset(cfg2).ok());
}

}  // namespace
}  // namespace elink
