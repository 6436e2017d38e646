// Tests for src/data: the Tao-like, terrain, and synthetic generators and
// the dataset helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "sim/graph.h"
#include "data/plume.h"
#include "data/synthetic.h"
#include "data/tao.h"
#include "data/terrain.h"
#include "metric/distance.h"

namespace elink {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

// A NaN radio range used to fail as Internal ("failed to connect"), and an
// infinite one returned a complete graph.
TEST(TerrainDatasetTest, RejectsBadRadioRange) {
  for (double fraction : {0.0, -0.1, kNaN, kInf}) {
    TerrainConfig cfg;
    cfg.num_nodes = 50;
    cfg.radio_range_fraction = fraction;
    Result<SensorDataset> ds = MakeTerrainDataset(cfg);
    ASSERT_FALSE(ds.ok()) << "radio_range_fraction " << fraction;
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
  // A negative stream length used to read past the end of each node's
  // series; a length that overflows train_length + stream_length is
  // rejected too.
  for (int stream_length : {-5, -600, std::numeric_limits<int>::max()}) {
    SyntheticConfig c;
    c.num_nodes = 20;
    c.stream_length = stream_length;
    EXPECT_EQ(MakeSyntheticDataset(c).status().code(),
              StatusCode::kInvalidArgument)
        << "stream_length " << stream_length;
  }
  for (double bad : {0.0, -1.0, kNaN, kInf}) {
    SyntheticConfig c;
    c.num_nodes = 20;
    c.density = bad;
    EXPECT_EQ(MakeSyntheticDataset(c).status().code(),
              StatusCode::kInvalidArgument)
        << "density " << bad;
    c.density = 0.8;
    c.target_avg_degree = bad;
    EXPECT_EQ(MakeSyntheticDataset(c).status().code(),
              StatusCode::kInvalidArgument)
        << "target_avg_degree " << bad;
  }
}

TEST(SyntheticDatasetTest, EmptyStreamKeepsTopologyAndFeatures) {
  SyntheticConfig with_stream;
  with_stream.num_nodes = 120;
  SyntheticConfig without = with_stream;
  without.stream_length = 0;
  Result<SensorDataset> a = MakeSyntheticDataset(with_stream);
  Result<SensorDataset> b = MakeSyntheticDataset(without);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().topology.adjacency, b.value().topology.adjacency);
  EXPECT_EQ(a.value().features, b.value().features);
  for (const auto& s : b.value().streams) EXPECT_TRUE(s.empty());
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
  for (double bad : {0.0, -1.0, kNaN, kInf}) {
    PlumeConfig c;
    c.num_nodes = 30;
    c.side = bad;
    EXPECT_EQ(MakePlumeDataset(c).status().code(),
              StatusCode::kInvalidArgument)
        << "side " << bad;
    c.side = 1000.0;
    c.radio_range_fraction = bad;
    EXPECT_EQ(MakePlumeDataset(c).status().code(),
              StatusCode::kInvalidArgument)
        << "radio_range_fraction " << bad;
  }
}

// -- FeatureDiameter: the one-dimensional fast path vs the pair scan --------

// The all-pairs scan: FeatureDiameter's only implementation for the inputs
// its fast path leaves out, and the reference for both.
double PairScanDiameter(const SensorDataset& ds) {
  double m = 0.0;
  const int n = ds.topology.num_nodes();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      m = std::max(m, ds.metric->Distance(ds.features[i], ds.features[j]));
    }
  }
  return m;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

SensorDataset FeaturesOnly(std::vector<Feature> features,
                           std::shared_ptr<const DistanceMetric> metric) {
  SensorDataset ds;
  ds.topology.positions.resize(features.size());
  ds.topology.adjacency.resize(features.size());
  ds.features = std::move(features);
  ds.metric = std::move(metric);
  return ds;
}

void ExpectDiameterMatchesPairScan(const SensorDataset& ds,
                                   const std::string& label) {
  const double want = PairScanDiameter(ds);
  const double got = FeatureDiameter(ds);
  EXPECT_EQ(Bits(got), Bits(want)) << label << ": " << got << " vs " << want;
}

std::shared_ptr<const DistanceMetric> Weighted(std::vector<double> w) {
  return std::make_shared<WeightedEuclidean>(std::move(w));
}

TEST(FeatureDiameterDiffTest, OneDimensionalMatchesPairScanBitForBit) {
  Rng rng(404);
  for (double w : {1.0, 0.37, 2.5, 1e-3, 7.0}) {
    for (int n : {0, 1, 2, 3, 17, 400}) {
      for (int trial = 0; trial < 6; ++trial) {
        // Negative values, wide magnitudes and duplicates (small integers).
        std::vector<Feature> f(n);
        for (Feature& x : f) {
          switch (rng.UniformInt(4)) {
            case 0: x = {rng.Uniform(-1, 1)}; break;
            case 1: x = {rng.Uniform(-1e6, 1e6)}; break;
            case 2: x = {std::round(rng.Uniform(-5, 5))}; break;
            default: x = {rng.Uniform(0.4, 0.8)};
          }
        }
        ExpectDiameterMatchesPairScan(
            FeaturesOnly(f, Weighted({w})),
            "w=" + std::to_string(w) + " n=" + std::to_string(n));
      }
    }
    // Every node on one value, and values whose difference overflows.
    ExpectDiameterMatchesPairScan(
        FeaturesOnly({{-3.0}, {-3.0}, {-3.0}}, Weighted({w})), "duplicates");
    ExpectDiameterMatchesPairScan(
        FeaturesOnly({{1e308}, {-1e308}, {0.0}}, Weighted({w})), "overflow");
  }
}

TEST(FeatureDiameterDiffTest, NonFiniteFeaturesTakeThePairScan) {
  const std::vector<std::vector<Feature>> cases = {
      {{kNaN}, {1.0}, {5.0}},        {{1.0}, {kNaN}, {5.0}},
      {{1.0}, {5.0}, {kNaN}},        {{kNaN}, {kNaN}},
      {{kNaN}, {kNaN}, {2.0}},       {{kNaN}},
      {{kInf}, {kInf}},              {{-kInf}, {-kInf}, {3.0}},
      {{kInf}, {1.0}, {-2.0}},       {{-kInf}, {kInf}},
      {{kNaN}, {kInf}, {3.0}, {-1.0}}};
  for (double w : {1.0, 0.37}) {
    for (size_t c = 0; c < cases.size(); ++c) {
      ExpectDiameterMatchesPairScan(FeaturesOnly(cases[c], Weighted({w})),
                                    "case " + std::to_string(c));
    }
  }
}

TEST(FeatureDiameterDiffTest, OtherMetricsAndDimensionsUseThePairScan) {
  Rng rng(405);
  std::vector<Feature> two_d(150);
  for (Feature& x : two_d) x = {rng.Uniform(-2, 2), rng.Uniform(0, 9)};
  ExpectDiameterMatchesPairScan(FeaturesOnly(two_d, Weighted({1.0, 1.0})),
                                "2-D Euclidean");
  ExpectDiameterMatchesPairScan(FeaturesOnly(two_d, Weighted({0.5, 0.3})),
                                "2-D weighted");
  const auto l1 = std::make_shared<ManhattanDistance>();
  ExpectDiameterMatchesPairScan(FeaturesOnly(two_d, l1), "2-D Manhattan");
  std::vector<Feature> one_d(150);
  for (Feature& x : one_d) x = {rng.Uniform(-2, 2)};
  ExpectDiameterMatchesPairScan(FeaturesOnly(one_d, l1), "1-D Manhattan");
  // A table metric on item indices: its diameter is the largest entry,
  // which has nothing to do with the largest and smallest index.
  Result<TableMetric> table = TableMetric::Create(
      {{0, 9, 1, 2}, {9, 0, 3, 4}, {1, 3, 0, 5}, {2, 4, 5, 0}});
  ASSERT_TRUE(table.ok());
  const auto tm = std::make_shared<TableMetric>(std::move(table).value());
  const SensorDataset items = FeaturesOnly({{0}, {1}, {2}, {3}}, tm);
  ExpectDiameterMatchesPairScan(items, "table");
  EXPECT_EQ(FeatureDiameter(items), 9.0);
}

TEST(FeatureDiameterDiffTest, GeneratedDatasetsMatchPairScan) {
  SyntheticConfig scfg;
  scfg.num_nodes = 300;
  scfg.stream_length = 0;
  Result<SensorDataset> synthetic = MakeSyntheticDataset(scfg);
  TerrainConfig tcfg;
  tcfg.num_nodes = 300;
  tcfg.radio_range_fraction = 0.1;
  Result<SensorDataset> terrain = MakeTerrainDataset(tcfg);
  PlumeConfig pcfg;
  pcfg.num_nodes = 200;
  Result<SensorDataset> plume = MakePlumeDataset(pcfg);
  TaoConfig taocfg;
  taocfg.measurements_per_day = 24;
  taocfg.train_days = 6;
  taocfg.eval_days = 1;
  Result<SensorDataset> tao = MakeTaoDataset(taocfg);
  ASSERT_TRUE(synthetic.ok() && terrain.ok() && plume.ok() && tao.ok());
  ExpectDiameterMatchesPairScan(synthetic.value(), "synthetic");
  ExpectDiameterMatchesPairScan(terrain.value(), "terrain");
  ExpectDiameterMatchesPairScan(plume.value(), "plume");
  ExpectDiameterMatchesPairScan(tao.value(), "tao");
}

}  // namespace
}  // namespace elink
