// Tests for the ELink algorithm (paper Sections 3-5): the worked example of
// Fig. 5, validity invariants under parameter sweeps (TEST_P), implicit vs.
// explicit agreement, asynchronous operation, complexity bounds, and the
// quality relation to the exact optimum.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "baselines/exact.h"
#include "cluster/elink.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "data/tao.h"
#include "data/plume.h"
#include "data/terrain.h"
#include "metric/distance.h"
#include "sim/topology.h"

namespace elink {
namespace {

WeightedEuclidean OneDim() { return WeightedEuclidean::Euclidean(1); }

ElinkConfig BaseConfig(double delta, uint64_t seed = 1) {
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.seed = seed;
  return cfg;
}

/// Asserts the full Definition-1 validity of a run and returns it.
ElinkResult RunAndValidate(const Topology& t,
                           const std::vector<Feature>& features,
                           const DistanceMetric& metric,
                           const ElinkConfig& cfg, ElinkMode mode) {
  Result<ElinkResult> r = RunElink(t, features, metric, cfg, mode);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const Status valid = ValidateDeltaClustering(
      r.value().clustering, t.adjacency, features, metric, cfg.delta);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  return std::move(r).value();
}

TEST(ElinkTest, SingleNodeNetwork) {
  Topology t = MakeGridTopology(1, 1);
  std::vector<Feature> f = {{0.0}};
  for (ElinkMode mode :
       {ElinkMode::kImplicit, ElinkMode::kExplicit, ElinkMode::kUnordered}) {
    const ElinkResult r = RunAndValidate(t, f, OneDim(), BaseConfig(1.0), mode);
    EXPECT_EQ(r.clustering.num_clusters(), 1);
  }
}

TEST(ElinkTest, UniformFeaturesGiveOneCluster) {
  Topology t = MakeGridTopology(4, 4);
  std::vector<Feature> f(16, Feature{5.0});
  for (ElinkMode mode : {ElinkMode::kImplicit, ElinkMode::kExplicit}) {
    const ElinkResult r = RunAndValidate(t, f, OneDim(), BaseConfig(1.0), mode);
    EXPECT_EQ(r.clustering.num_clusters(), 1) << "mode " << (int)mode;
  }
}

TEST(ElinkTest, TinyDeltaGivesSingletons) {
  Topology t = MakeGridTopology(3, 3);
  std::vector<Feature> f;
  for (int i = 0; i < 9; ++i) f.push_back({static_cast<double>(i * 10)});
  for (ElinkMode mode : {ElinkMode::kImplicit, ElinkMode::kExplicit}) {
    const ElinkResult r =
        RunAndValidate(t, f, OneDim(), BaseConfig(0.5), mode);
    EXPECT_EQ(r.clustering.num_clusters(), 9);
  }
}

TEST(ElinkTest, TwoBandsSplitAtBoundary) {
  // 1x6 path: features 0,0,0,100,100,100 and delta 10 -> exactly 2 clusters.
  Topology t = MakeGridTopology(1, 6);
  std::vector<Feature> f = {{0.0}, {0.0}, {0.0}, {100.0}, {100.0}, {100.0}};
  for (ElinkMode mode : {ElinkMode::kImplicit, ElinkMode::kExplicit}) {
    const ElinkResult r =
        RunAndValidate(t, f, OneDim(), BaseConfig(10.0), mode);
    EXPECT_EQ(r.clustering.num_clusters(), 2);
    EXPECT_TRUE(r.clustering.SameCluster(0, 2));
    EXPECT_TRUE(r.clustering.SameCluster(3, 5));
    EXPECT_FALSE(r.clustering.SameCluster(2, 3));
  }
}

TEST(ElinkTest, Figure5ExpansionSemantics) {
  // Reproduce the paper's Fig. 5 situation: a sentinel D expands with
  // delta = 6, including neighbors with d <= 3 and stopping at node C with
  // d(F_D, F_C) = 4 > 3.  Topology (communication edges):
  //   A-B, B-C, B-D, D-E, D-F, F-G  (a small tree around D).
  // Use 1-D features placed so distances *to D* match Fig. 5a:
  //   A: 3, B: 2, C: 4, D: 0, E: 3, F: 1, G: 2.
  // D sits exactly at the bounding-box center so the quadtree elects it as
  // the level-0 sentinel, reproducing "sentinel D expands first".
  Topology t;
  t.width = 4;
  t.height = 2;
  //            A        B        C        D        E        F        G
  t.positions = {{0, 0}, {1, 0}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}};
  t.adjacency = {{1}, {0, 2, 3}, {1}, {1, 4, 5}, {3}, {3, 6}, {5}};
  std::vector<Feature> f = {{3.0}, {2.0}, {4.0}, {0.0}, {3.0}, {1.0}, {2.0}};

  ElinkConfig cfg = BaseConfig(6.0);
  const ElinkResult r =
      RunAndValidate(t, f, OneDim(), cfg, ElinkMode::kExplicit);
  const int d_root = r.clustering.root_of[3];
  // D, F, B, E, G, A end up together; C is excluded.
  for (int member : {0, 1, 3, 4, 5, 6}) {
    EXPECT_EQ(r.clustering.root_of[member], d_root) << "node " << member;
  }
  EXPECT_NE(r.clustering.root_of[2], d_root);
}

TEST(ElinkTest, ImplicitRequiresSynchronousNetwork) {
  Topology t = MakeGridTopology(2, 2);
  std::vector<Feature> f(4, Feature{0.0});
  ElinkConfig cfg = BaseConfig(1.0);
  cfg.synchronous = false;
  Result<ElinkResult> r =
      RunElink(t, f, OneDim(), cfg, ElinkMode::kImplicit);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ElinkTest, RejectsInvalidArguments) {
  Topology t = MakeGridTopology(2, 2);
  std::vector<Feature> f(4, Feature{0.0});
  ElinkConfig bad_delta = BaseConfig(-1.0);
  EXPECT_FALSE(RunElink(t, f, OneDim(), bad_delta, ElinkMode::kImplicit).ok());
  ElinkConfig bad_slack = BaseConfig(1.0);
  bad_slack.slack = 0.7;
  EXPECT_FALSE(RunElink(t, f, OneDim(), bad_slack, ElinkMode::kImplicit).ok());
  std::vector<Feature> wrong_size(3, Feature{0.0});
  EXPECT_FALSE(
      RunElink(t, wrong_size, OneDim(), BaseConfig(1.0), ElinkMode::kImplicit)
          .ok());
}

// A negative slack used to pass validation and cluster against a threshold
// above delta (on this terrain at delta 60, slack -30: d(4, 70) = 76.3 in one
// cluster), and a NaN delta or slack passed both sign tests.
TEST(ElinkTest, RejectsNegativeSlackAndNanParameters) {
  TerrainConfig tcfg;
  tcfg.num_nodes = 400;
  tcfg.radio_range_fraction = 0.08;
  const SensorDataset ds = MakeTerrainDataset(tcfg).value();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bad[] = {
      {60.0, -30.0}, {nan, 0.0}, {60.0, nan}, {nan, nan}};
  for (const auto& [delta, slack] : bad) {
    ElinkConfig cfg = BaseConfig(delta);
    cfg.slack = slack;
    for (ElinkMode mode : {ElinkMode::kImplicit, ElinkMode::kExplicit}) {
      Result<ElinkResult> r = RunElink(ds, cfg, mode);
      ASSERT_FALSE(r.ok()) << "delta " << delta << " slack " << slack;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ElinkTest, ImplicitAndExplicitAgreeOnSynchronousNetworks) {
  // The paper asserts both techniques output the same clusters; our explicit
  // variant adds a settled-switch restriction (DESIGN.md), so cluster
  // *counts* must agree closely and both must be valid.
  Rng seed_rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    SyntheticConfig scfg;
    scfg.num_nodes = 120;
    scfg.seed = 100 + trial;
    Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
    ASSERT_TRUE(ds.ok());
    const double delta = 0.25 * FeatureDiameter(ds.value());
    ElinkConfig cfg = BaseConfig(delta, 50 + trial);
    const ElinkResult imp = RunAndValidate(
        ds.value().topology, ds.value().features, *ds.value().metric, cfg,
        ElinkMode::kImplicit);
    const ElinkResult exp = RunAndValidate(
        ds.value().topology, ds.value().features, *ds.value().metric, cfg,
        ElinkMode::kExplicit);
    const int ci = imp.clustering.num_clusters();
    const int ce = exp.clustering.num_clusters();
    EXPECT_LE(std::abs(ci - ce), std::max(2, ci / 10))
        << "trial " << trial << ": implicit " << ci << " explicit " << ce;
  }
}

TEST(ElinkTest, ExplicitWorksOnAsynchronousNetworks) {
  SyntheticConfig scfg;
  scfg.num_nodes = 100;
  scfg.seed = 77;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  const double delta = 0.3 * FeatureDiameter(ds.value());
  ElinkConfig cfg = BaseConfig(delta, 3);
  cfg.synchronous = false;
  const ElinkResult r =
      RunAndValidate(ds.value().topology, ds.value().features,
                     *ds.value().metric, cfg, ElinkMode::kExplicit);
  EXPECT_GT(r.clustering.num_clusters(), 0);
}

TEST(ElinkTest, ExplicitCostsMoreThanImplicit) {
  // Fig. 13: the explicit technique pays for its synchronization.
  SyntheticConfig scfg;
  scfg.num_nodes = 200;
  scfg.seed = 9;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  const double delta = 0.3 * FeatureDiameter(ds.value());
  ElinkConfig cfg = BaseConfig(delta, 5);
  const ElinkResult imp =
      RunAndValidate(ds.value().topology, ds.value().features,
                     *ds.value().metric, cfg, ElinkMode::kImplicit);
  const ElinkResult exp =
      RunAndValidate(ds.value().topology, ds.value().features,
                     *ds.value().metric, cfg, ElinkMode::kExplicit);
  EXPECT_GT(exp.stats.total_units(), imp.stats.total_units());
  // Implicit mode sends only expand messages.
  EXPECT_EQ(imp.stats.units("ack1"), 0u);
  EXPECT_EQ(imp.stats.units("phase1"), 0u);
  EXPECT_GT(exp.stats.units("phase1"), 0u);
  EXPECT_GT(exp.stats.units("start"), 0u);
}

TEST(ElinkTest, MessageComplexityLinearInN) {
  // Theorem 2: implicit ELink sends O(N) messages; verify messages-per-node
  // does not grow across a 4x size range.
  std::vector<double> per_node;
  for (int n : {100, 200, 400}) {
    SyntheticConfig scfg;
    scfg.num_nodes = n;
    scfg.seed = 1000 + n;
    Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
    ASSERT_TRUE(ds.ok());
    const double delta = 0.3 * FeatureDiameter(ds.value());
    ElinkConfig cfg = BaseConfig(delta, n);
    const ElinkResult r =
        RunAndValidate(ds.value().topology, ds.value().features,
                       *ds.value().metric, cfg, ElinkMode::kImplicit);
    per_node.push_back(static_cast<double>(r.stats.total_units()) / n);
    // Hard bound from Theorem 2: d(c+1)N expand messages.
    const double bound = ds.value().topology.max_degree() *
                         (cfg.max_switches + 1.0) * n;
    EXPECT_LE(r.stats.total_units(), bound);
  }
  EXPECT_LT(per_node.back(), per_node.front() * 2.0);
}

TEST(ElinkTest, CompletionTimeWithinTheorem2Bound) {
  // T <= 2 kappa alpha, with kappa = (1 + gamma) sqrt(N / 2).
  for (int side : {8, 12}) {
    Topology t = MakeGridTopology(side, side);
    std::vector<Feature> f(t.num_nodes(), Feature{0.0});
    ElinkConfig cfg = BaseConfig(1.0);
    const ElinkResult r =
        RunAndValidate(t, f, OneDim(), cfg, ElinkMode::kImplicit);
    const double kappa = (1.0 + cfg.gamma) * std::sqrt(t.num_nodes() / 2.0);
    EXPECT_LE(r.completion_time, 2.0 * kappa * r.num_levels + 1e-9);
  }
}

TEST(ElinkTest, UnorderedFasterButNoBetterQuality) {
  SyntheticConfig scfg;
  scfg.num_nodes = 200;
  scfg.seed = 31;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  const double delta = 0.3 * FeatureDiameter(ds.value());
  ElinkConfig cfg = BaseConfig(delta, 8);
  const ElinkResult ordered =
      RunAndValidate(ds.value().topology, ds.value().features,
                     *ds.value().metric, cfg, ElinkMode::kImplicit);
  const ElinkResult unordered =
      RunAndValidate(ds.value().topology, ds.value().features,
                     *ds.value().metric, cfg, ElinkMode::kUnordered);
  // Section 5's closing remark: O(sqrt N) time, worse quality.
  EXPECT_LT(unordered.completion_time, ordered.completion_time);
  EXPECT_GE(unordered.clustering.num_clusters(),
            ordered.clustering.num_clusters());
}

TEST(ElinkTest, NeverWorseThanSingletonsAndAtLeastOptimal) {
  // Small instances: optimal count <= ELink count <= N.
  Rng rng(41);
  for (int trial = 0; trial < 5; ++trial) {
    Result<Topology> t = MakeRandomTopology(9, 3.0, 1.5, &rng);
    ASSERT_TRUE(t.ok());
    std::vector<Feature> f;
    for (int i = 0; i < 9; ++i) f.push_back({rng.Uniform(0, 10)});
    const double delta = 4.0;
    Result<Clustering> opt =
        ExactOptimalClustering(t.value().adjacency, f, OneDim(), delta);
    ASSERT_TRUE(opt.ok());
    const ElinkResult r = RunAndValidate(t.value(), f, OneDim(),
                                         BaseConfig(delta, 100 + trial),
                                         ElinkMode::kExplicit);
    EXPECT_GE(r.clustering.num_clusters(), opt.value().num_clusters());
    EXPECT_LE(r.clustering.num_clusters(), 9);
  }
}

TEST(ElinkTest, SlackTightensEffectiveDelta) {
  // With slack, clustering uses delta - 2*slack: more clusters, and the
  // tighter compactness holds.
  Topology t = MakeGridTopology(1, 8);
  std::vector<Feature> f;
  for (int i = 0; i < 8; ++i) f.push_back({i * 1.0});
  ElinkConfig no_slack = BaseConfig(4.0, 3);
  ElinkConfig with_slack = BaseConfig(4.0, 3);
  with_slack.slack = 1.0;  // Effective delta 2.
  const ElinkResult loose =
      RunAndValidate(t, f, OneDim(), no_slack, ElinkMode::kExplicit);
  Result<ElinkResult> tight_r =
      RunElink(t, f, OneDim(), with_slack, ElinkMode::kExplicit);
  ASSERT_TRUE(tight_r.ok());
  EXPECT_GE(tight_r.value().clustering.num_clusters(),
            loose.clustering.num_clusters());
  // The slack run satisfies the *tighter* threshold.
  EXPECT_TRUE(ValidateDeltaClustering(tight_r.value().clustering, t.adjacency,
                                      f, OneDim(), 2.0)
                  .ok());
}

TEST(ElinkTest, DeterministicForFixedSeed) {
  SyntheticConfig scfg;
  scfg.num_nodes = 80;
  scfg.seed = 5;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  ElinkConfig cfg = BaseConfig(0.3 * FeatureDiameter(ds.value()), 11);
  cfg.synchronous = false;
  Result<ElinkResult> a =
      RunElink(ds.value(), cfg, ElinkMode::kExplicit);
  Result<ElinkResult> b =
      RunElink(ds.value(), cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().clustering.root_of, b.value().clustering.root_of);
  EXPECT_EQ(a.value().stats.total_units(), b.value().stats.total_units());
}

// Sanitizer shadow memory and ASan's quarantine of freed blocks inflate the
// high-water mark: the run below raises it by ~130 MB under ASan and ~100 MB
// under TSan, against ~19 MB in a plain build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// The high-water mark of this process's resident memory, in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

// Explicit ELink routes phase1 up to each quadtree parent and phase2/start
// down to each child, so every node becomes a routing destination.  With an
// N-wide parent array per destination, this 8,000-node run raised the
// high-water mark by ~255 MB (4 bytes x N^2); routes kept sparse until their
// ball is large raise it by ~19 MB.  ctest runs each test in its own
// process, so the mark is this run's own.
TEST(ElinkTest, RouteMemoryGrowsWithTheRoutesNotWithNSquared) {
  SyntheticConfig scfg;
  scfg.num_nodes = 8000;
  scfg.train_length = 50;
  scfg.stream_length = 1;
  scfg.seed = 41;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  // One-dimensional features: the diameter is max - min.
  const auto [lo, hi] = std::minmax_element(ds.value().features.begin(),
                                            ds.value().features.end());
  ElinkConfig cfg = BaseConfig(0.2 * ((*hi)[0] - (*lo)[0]), 3);
  cfg.synchronous = false;
  const double before = PeakRssMb();
  Result<ElinkResult> r = RunElink(ds.value(), cfg, ElinkMode::kExplicit);
  const double growth = PeakRssMb() - before;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().completed);
  if (kSanitized) GTEST_SKIP() << "peak RSS is not comparable under sanitizers";
  EXPECT_LT(growth, 64.0) << "peak RSS grew by " << growth << " MB";
}

TEST(ElinkTest, ImplicitScheduleMatchesFormulas) {
  const ImplicitSchedule s = ComputeImplicitSchedule(128, 4, 0.3);
  EXPECT_NEAR(s.kappa, 1.3 * std::sqrt(64.0), 1e-12);
  EXPECT_NEAR(s.window[0], s.kappa, 1e-12);
  EXPECT_NEAR(s.window[1], s.kappa * 1.5, 1e-12);
  EXPECT_NEAR(s.window[2], s.kappa * 1.75, 1e-12);
  EXPECT_NEAR(s.start[0], 0.0, 1e-12);
  EXPECT_NEAR(s.start[2], s.window[0] + s.window[1], 1e-12);
  // Windows increase and are bounded by 2 kappa (Theorem 2's proof).
  for (size_t l = 0; l + 1 < s.window.size(); ++l) {
    EXPECT_LT(s.window[l], s.window[l + 1]);
  }
  EXPECT_LT(s.window.back(), 2.0 * s.kappa);
}

// -- Property sweep: every mode x dataset x delta yields a valid clustering --

struct SweepParam {
  int mode;           // 0 implicit, 1 explicit, 2 unordered, 3 explicit-async.
  int dataset;        // 0 synthetic, 1 tao, 2 terrain, 3 plume.
  double delta_frac;  // Fraction of the feature diameter.
};

std::string SweepParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  static const char* const modes[] = {"Implicit", "Explicit", "Unordered",
                                      "ExplicitAsync"};
  static const char* const datasets[] = {"Synthetic", "Tao", "Terrain",
                                         "Plume"};
  return std::string(modes[info.param.mode]) + datasets[info.param.dataset] +
         "D" + std::to_string(static_cast<int>(info.param.delta_frac * 100));
}

class ElinkSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ElinkSweepTest, ProducesValidDeltaClustering) {
  const SweepParam p = GetParam();
  SensorDataset ds;
  switch (p.dataset) {
    case 0: {
      SyntheticConfig cfg;
      cfg.num_nodes = 150;
      cfg.seed = 23;
      ds = std::move(MakeSyntheticDataset(cfg)).value();
      break;
    }
    case 1: {
      TaoConfig cfg;
      cfg.measurements_per_day = 48;
      cfg.train_days = 8;
      cfg.eval_days = 1;
      ds = std::move(MakeTaoDataset(cfg)).value();
      break;
    }
    case 2: {
      TerrainConfig cfg;
      cfg.num_nodes = 200;
      cfg.radio_range_fraction = 0.1;
      ds = std::move(MakeTerrainDataset(cfg)).value();
      break;
    }
    default: {
      PlumeConfig cfg;
      cfg.num_nodes = 180;
      cfg.radio_range_fraction = 0.12;
      ds = std::move(MakePlumeDataset(cfg)).value();
      break;
    }
  }
  ElinkConfig cfg = BaseConfig(p.delta_frac * FeatureDiameter(ds), 7);
  ElinkMode mode = ElinkMode::kImplicit;
  if (p.mode == 1 || p.mode == 3) mode = ElinkMode::kExplicit;
  if (p.mode == 2) mode = ElinkMode::kUnordered;
  if (p.mode == 3) cfg.synchronous = false;

  Result<ElinkResult> r = RunElink(ds, cfg, mode);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Status valid =
      ValidateDeltaClustering(r.value().clustering, ds.topology.adjacency,
                              ds.features, *ds.metric, cfg.delta);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_GE(r.value().clustering.num_clusters(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    ModesDatasetsDeltas, ElinkSweepTest,
    ::testing::Values(
        SweepParam{0, 0, 0.15}, SweepParam{0, 0, 0.4}, SweepParam{0, 1, 0.2},
        SweepParam{0, 1, 0.5}, SweepParam{0, 2, 0.15}, SweepParam{0, 2, 0.4},
        SweepParam{1, 0, 0.15}, SweepParam{1, 0, 0.4}, SweepParam{1, 1, 0.2},
        SweepParam{1, 1, 0.5}, SweepParam{1, 2, 0.15}, SweepParam{1, 2, 0.4},
        SweepParam{2, 0, 0.25}, SweepParam{2, 1, 0.3}, SweepParam{2, 2, 0.25},
        SweepParam{3, 0, 0.25}, SweepParam{3, 1, 0.3}, SweepParam{3, 2, 0.25},
        SweepParam{0, 3, 0.2}, SweepParam{1, 3, 0.3}, SweepParam{3, 3, 0.25}),
    SweepParamName);

// -- Switch-rule ablation ------------------------------------------------------

TEST(ElinkSwitchRuleTest, LiteralFigureRuleStillValid) {
  SyntheticConfig scfg;
  scfg.num_nodes = 120;
  scfg.seed = 67;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  ElinkConfig cfg = BaseConfig(0.3 * FeatureDiameter(ds.value()), 2);
  cfg.literal_figure_switch_rule = true;
  Result<ElinkResult> r =
      RunElink(ds.value(), cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ValidateDeltaClustering(
                  r.value().clustering, ds.value().topology.adjacency,
                  ds.value().features, *ds.value().metric, cfg.delta)
                  .ok());
}

TEST(ElinkSwitchRuleTest, ZeroSwitchBudgetDisablesSwitching) {
  SyntheticConfig scfg;
  scfg.num_nodes = 120;
  scfg.seed = 71;
  Result<SensorDataset> ds = MakeSyntheticDataset(scfg);
  ASSERT_TRUE(ds.ok());
  ElinkConfig cfg = BaseConfig(0.3 * FeatureDiameter(ds.value()), 2);
  cfg.max_switches = 0;
  Result<ElinkResult> r = RunElink(ds.value(), cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().total_switches, 0);
}

}  // namespace
}  // namespace elink
