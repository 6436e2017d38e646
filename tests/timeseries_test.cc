// Tests for src/timeseries: AR fitting, the Appendix-A RLS update, and the
// seasonal Tao model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <string>

#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/solve.h"
#include "timeseries/ar_model.h"
#include "timeseries/order_selection.h"
#include "timeseries/rls.h"
#include "timeseries/seasonal.h"

// Heap allocations on this thread while counting is on.  The replaceable
// global operator new below feeds the count, so a test can assert that a
// call allocates nothing.
namespace {
thread_local bool count_allocations = false;
thread_local long allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (count_allocations) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not inline free() into a caller of new and
// report a new/free mismatch that the pair above makes correct.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace elink {
namespace {

Vector SimulateAr(const Vector& coeffs, int length, double noise_sigma,
                  Rng* rng) {
  const int k = static_cast<int>(coeffs.size());
  Vector series(length, 0.0);
  for (int t = 0; t < length; ++t) {
    double x = rng->Normal(0.0, noise_sigma);
    for (int j = 0; j < k; ++j) {
      if (t - 1 - j >= 0) x += coeffs[j] * series[t - 1 - j];
    }
    series[t] = x;
  }
  return series;
}

TEST(ArModelTest, RecoversCoefficientsOfNoiselessProcess) {
  // Deterministic AR(2) (after a noise-driven warmup) is fit exactly.
  Rng rng(3);
  Vector series = SimulateAr({0.5, 0.3}, 50, 1.0, &rng);
  // Continue deterministically so the regression is exactly consistent.
  // (Kept short: with coefficient sum < 1 the deterministic tail decays, and
  // a long tail would underflow into ill-conditioning.)
  for (int t = 0; t < 40; ++t) {
    const size_t n = series.size();
    series.push_back(0.5 * series[n - 1] + 0.3 * series[n - 2]);
  }
  // Fit only on the deterministic tail.
  Vector tail(series.end() - 40, series.end());
  Result<ArModel> fit = FitAr(tail, 2);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().coefficients[0], 0.5, 1e-6);
  EXPECT_NEAR(fit.value().coefficients[1], 0.3, 1e-6);
  EXPECT_NEAR(fit.value().noise_variance, 0.0, 1e-9);
}

TEST(ArModelTest, RecoversCoefficientsUnderNoise) {
  Rng rng(7);
  Vector series = SimulateAr({0.6, 0.2}, 20000, 0.5, &rng);
  Result<ArModel> fit = FitAr(series, 2);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().coefficients[0], 0.6, 0.03);
  EXPECT_NEAR(fit.value().coefficients[1], 0.2, 0.03);
  EXPECT_NEAR(fit.value().noise_variance, 0.25, 0.02);
}

TEST(ArModelTest, PredictUsesCoefficients) {
  ArModel m;
  m.coefficients = {0.5, 0.25};
  EXPECT_DOUBLE_EQ(m.Predict({2.0, 4.0}), 2.0);
  EXPECT_EQ(m.order(), 2);
}

TEST(ArModelTest, RejectsShortSeries) {
  EXPECT_FALSE(FitAr({1.0, 2.0, 3.0}, 2).ok());
  EXPECT_FALSE(FitAr({1.0, 2.0, 3.0, 4.0}, 0).ok());
}

TEST(ArModelTest, BuildLagRegressionShape) {
  Matrix x;
  Vector y;
  ASSERT_TRUE(BuildLagRegression({1, 2, 3, 4, 5}, 2, &x, &y).ok());
  ASSERT_EQ(x.rows(), 2u);
  ASSERT_EQ(x.cols(), 3u);
  ASSERT_EQ(y.size(), 3u);
  // y[0] = series[2] = 3, regressors (series[1], series[0]) = (2, 1).
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 0), 1.0);
}

// -- RLS (Appendix A) --------------------------------------------------------

TEST(RlsTest, MatchesBatchSolutionAfterWarmStart) {
  // Property (Appendix A): warm-starting from a batch fit over m points and
  // observing t more reproduces the batch fit over all m + t points.
  Rng rng(11);
  const int k = 3, m = 40, extra = 25;
  Matrix x_all(k, m + extra);
  Vector y_all(m + extra);
  for (int t = 0; t < m + extra; ++t) {
    for (int j = 0; j < k; ++j) x_all(j, t) = rng.Uniform(-1, 1);
    y_all[t] = 1.5 * x_all(0, t) - 0.7 * x_all(1, t) + 0.2 * x_all(2, t) +
               rng.Normal(0, 0.1);
  }
  Matrix x_head(k, m);
  Vector y_head(m);
  for (int t = 0; t < m; ++t) {
    for (int j = 0; j < k; ++j) x_head(j, t) = x_all(j, t);
    y_head[t] = y_all[t];
  }
  Result<RlsEstimator> est = RlsEstimator::FromBatch(x_head, y_head);
  ASSERT_TRUE(est.ok());
  for (int t = m; t < m + extra; ++t) {
    Vector xt(k);
    for (int j = 0; j < k; ++j) xt[j] = x_all(j, t);
    est.value().Observe(xt, y_all[t]);
  }
  Result<Vector> batch = SolveNormalEquations(x_all, y_all);
  ASSERT_TRUE(batch.ok());
  for (int j = 0; j < k; ++j) {
    EXPECT_NEAR(est.value().coefficients()[j], batch.value()[j], 1e-8);
  }
  EXPECT_EQ(est.value().observation_count(), m + extra);
}

TEST(RlsTest, ColdStartConvergesToBatch) {
  Rng rng(13);
  const int k = 2, m = 500;
  RlsEstimator est(k, 1e8);
  Matrix x(k, m);
  Vector y(m);
  for (int t = 0; t < m; ++t) {
    Vector xt = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const double yt = 0.9 * xt[0] + 0.4 * xt[1] + rng.Normal(0, 0.05);
    x(0, t) = xt[0];
    x(1, t) = xt[1];
    y[t] = yt;
    est.Observe(xt, yt);
  }
  Result<Vector> batch = SolveNormalEquations(x, y);
  ASSERT_TRUE(batch.ok());
  EXPECT_NEAR(est.coefficients()[0], batch.value()[0], 1e-5);
  EXPECT_NEAR(est.coefficients()[1], batch.value()[1], 1e-5);
}

TEST(RlsTest, PMatrixStaysSymmetric) {
  Rng rng(17);
  RlsEstimator est(3);
  for (int t = 0; t < 100; ++t) {
    est.Observe({rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                rng.Uniform(-1, 1));
  }
  EXPECT_TRUE(est.p().IsSymmetric(1e-6));
}

TEST(RlsTest, FromBatchRejectsSingular) {
  // Two identical regressor rows: X X^T singular.
  Matrix x = Matrix::FromRows({{1, 2, 3}, {1, 2, 3}});
  EXPECT_FALSE(RlsEstimator::FromBatch(x, {1, 2, 3}).ok());
}

// Wider than any model here (they fit k = 1 and 3).
constexpr int kWideK = 10;

TEST(RlsTest, ObserveAllocatesNothing) {
  for (int k : {1, 3, kWideK}) {
    RlsEstimator est(k);
    const Vector x(k, 0.5);
    allocations = 0;
    count_allocations = true;
    est.Observe(x, 1.0);
    est.Observe(std::span<const double>(x), -1.0);
    if (k == 1) est.Observe({0.25}, 2.0);
    count_allocations = false;
    EXPECT_EQ(allocations, 0) << "k = " << k;
  }
  // A warm start sizes the scratch too.
  Result<RlsEstimator> warm = RlsEstimator::FromBatch(
      Matrix::FromRows({{1, 2, 3, 4}, {1, -1, 2, 0}}), {1, 0, 2, 1});
  ASSERT_TRUE(warm.ok());
  allocations = 0;
  count_allocations = true;
  warm.value().Observe({0.5, 0.25}, 1.0);
  count_allocations = false;
  EXPECT_EQ(allocations, 0) << "after FromBatch";
  // The count is live: constructing an estimator allocates its storage.
  count_allocations = true;
  const RlsEstimator probe(2);
  count_allocations = false;
  EXPECT_GT(allocations, 0);
}

// -- RLS against its elink_linalg reference -----------------------------------

// Reference for Observe: the rank-one update written with the elink_linalg
// helpers (Multiply, Dot, Scale, Multiply), the arithmetic every recorded
// fingerprint was produced with.  Calling the helpers themselves keeps it
// computing what they compute under any compiler flags.
class ReferenceRls {
 public:
  explicit ReferenceRls(const RlsEstimator& start)
      : p_(start.p()), alpha_(start.coefficients()) {}

  void Observe(const Vector& x, double y) {
    const Vector g = p_.Multiply(x);
    const double denom = 1.0 + Dot(x, g);
    const size_t k = x.size();
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        p_(i, j) -= g[i] * g[j] / denom;
      }
    }
    const double innovation = Dot(x, alpha_) - y;
    const Vector correction = p_.Multiply(Scale(x, innovation));
    for (size_t i = 0; i < k; ++i) alpha_[i] -= correction[i];
  }

  const Matrix& p() const { return p_; }
  const Vector& coefficients() const { return alpha_; }

 private:
  Matrix p_;
  Vector alpha_;
};

// Feeds (x, y) through one of Observe's three entry shapes, by step: a
// Vector, an explicit span, or a braced list.
void ObserveVia(int step, const Vector& x, double y, RlsEstimator* est) {
  if (step % 3 == 0) return est->Observe(x, y);
  if (step % 3 == 1) return est->Observe(std::span<const double>(x), y);
  switch (x.size()) {
    case 1:
      return est->Observe({x[0]}, y);
    case 2:
      return est->Observe({x[0], x[1]}, y);
    case 3:
      return est->Observe({x[0], x[1], x[2]}, y);
    case 4:
      return est->Observe({x[0], x[1], x[2], x[3]}, y);
    case kWideK:
      return est->Observe(
          {x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7], x[8], x[9]}, y);
  }
  FAIL() << "no braced shape for k = " << x.size();
}

// Identical bit patterns, or NaN on both sides.  IEEE 754 leaves open which
// NaN an operation on two NaNs returns, and the compiler orders the operands
// of a product freely: an infinite regressor with a NaN response turns P
// into the default NaN (inf / inf) and alpha into the product of it with the
// response's NaN, whose sign then differs between Observe (either body) and
// the reference chain.
bool SameBitsOrNaN(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

// Runs RlsEstimator and the reference side by side.  EXPECT_DOUBLE_EQ would
// forgive 4 ulps; Step demands identical bit patterns in alpha and P (any
// NaN matching any NaN).
class RlsLockstep {
 public:
  explicit RlsLockstep(int k) : est_(k), ref_(est_) {}
  explicit RlsLockstep(RlsEstimator start)
      : est_(std::move(start)), ref_(est_) {}

  ::testing::AssertionResult Step(const Vector& x, double y) {
    ObserveVia(step_, x, y, &est_);
    ref_.Observe(x, y);
    ++step_;
    const size_t k = x.size();
    for (size_t i = 0; i < k; ++i) {
      if (!SameBitsOrNaN(est_.coefficients()[i], ref_.coefficients()[i])) {
        return ::testing::AssertionFailure()
               << "alpha[" << i << "] differs after step " << step_ << ": "
               << Hex(est_.coefficients()[i]) << " vs reference "
               << Hex(ref_.coefficients()[i]);
      }
      for (size_t j = 0; j < k; ++j) {
        if (!SameBitsOrNaN(est_.p()(i, j), ref_.p()(i, j))) {
          return ::testing::AssertionFailure()
                 << "P(" << i << "," << j << ") differs after step " << step_
                 << ": " << Hex(est_.p()(i, j)) << " vs reference "
                 << Hex(ref_.p()(i, j));
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  static std::string Hex(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
  }

  RlsEstimator est_;
  ReferenceRls ref_;
  int step_ = 0;
};

TEST(RlsDiffTest, SyntheticTrainAndReplayStreamsMatchBitForBit) {
  // k = 1 on demeaned lags, warmed on the training prefix and then fed the
  // replay stream: what fig13 and the end-to-end benchmark feed.
  SyntheticConfig cfg;
  cfg.num_nodes = 40;
  cfg.stream_length = 300;
  cfg.seed = 5;
  Result<SensorDataset> ds = MakeSyntheticDataset(cfg);
  ASSERT_TRUE(ds.ok());
  for (int i = 0; i < cfg.num_nodes; ++i) {
    const Vector& train = ds.value().train_streams[i];
    double s = 0.0;
    for (double v : train) s += v;
    const double mean = s / static_cast<double>(train.size());
    RlsLockstep lock(1);
    for (size_t t = 1; t < train.size(); ++t) {
      ASSERT_TRUE(lock.Step({train[t - 1] - mean}, train[t] - mean))
          << "node " << i << ", training";
    }
    double prev = train.back() - mean;
    for (double v : ds.value().streams[i]) {
      const double x = v - mean;
      ASSERT_TRUE(lock.Step({prev}, x)) << "node " << i << ", replay";
      prev = x;
    }
  }
}

TEST(RlsDiffTest, RandomRegressorsMatchBitForBit) {
  // k = 2..4 cold starts, plus one wide k.
  for (int k : {2, 3, 4, kWideK}) {
    Rng rng(900 + k);
    Vector truth(k);
    for (double& c : truth) c = rng.Uniform(-1.0, 1.0);
    RlsLockstep lock(k);
    for (int t = 0; t < 400; ++t) {
      Vector x(k);
      double y = rng.Normal(0.0, 0.1);
      for (int j = 0; j < k; ++j) {
        x[j] = rng.Uniform(-1.0, 1.0) * (1.0 + j);
        y += truth[j] * x[j];
      }
      ASSERT_TRUE(lock.Step(x, y)) << "k = " << k;
    }
  }
}

TEST(RlsDiffTest, SpecialValuesMatchBitForBit) {
  // Signed zeros, subnormals, infinities and NaN as regressor and as
  // response, each pair fed once between ordinary steps, from a cold start
  // and from a FromBatch warm start: k = 1 runs Observe's one-regressor
  // body, k = 2 the general one.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double subnormal = std::numeric_limits<double>::min() / 3.0;
  const std::vector<double> specials = {
      0.0, -0.0, tiny, -tiny, subnormal, -subnormal, 1.0, -2.5, 1e300,
      inf, -inf, nan, -nan};
  const Result<RlsEstimator> warm1 = RlsEstimator::FromBatch(
      Matrix::FromRows({{0.5, -1.0, 2.0, 0.25}}), {0.3, -0.7, 1.1, 0.2});
  const Result<RlsEstimator> warm2 = RlsEstimator::FromBatch(
      Matrix::FromRows({{1, 2, 3, 4}, {1, -1, 2, 0}}), {1, 0, 2, 1});
  ASSERT_TRUE(warm1.ok());
  ASSERT_TRUE(warm2.ok());
  for (int k : {1, 2}) {
    for (bool warm : {false, true}) {
      for (double sx : specials) {
        for (double sy : specials) {
          RlsLockstep lock = warm ? RlsLockstep(k == 1 ? warm1.value()
                                                       : warm2.value())
                                  : RlsLockstep(k);
          Rng rng(31);
          for (int t = 0; t < 7; ++t) {
            Vector x(k);
            for (double& v : x) v = rng.Uniform(-2.0, 2.0);
            double y = rng.Uniform(-1.0, 1.0);
            if (t == 3) {
              x[0] = sx;
              y = sy;
            }
            ASSERT_TRUE(lock.Step(x, y))
                << "k = " << k << (warm ? ", warm" : ", cold") << ", x = "
                << sx << ", y = " << sy;
          }
        }
      }
    }
  }
}

// -- Seasonal Tao model ------------------------------------------------------

TEST(SeasonalTest, TrainRequiresFiveDays) {
  Vector short_history(4 * 10, 20.0);
  EXPECT_FALSE(SeasonalArModel::Train(short_history, 10).ok());
}

TEST(SeasonalTest, FeatureHasFourCoefficients) {
  Vector history(6 * 12, 0.0);
  Rng rng(19);
  for (auto& v : history) v = 20.0 + rng.Normal(0, 0.1);
  Result<SeasonalArModel> m = SeasonalArModel::Train(history, 12);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().Feature().size(), 4u);
  EXPECT_EQ(m.value().completed_days(), 6);
}

TEST(SeasonalTest, RecoversIntraDayPersistence) {
  // Generate a process with known AR(1) persistence around a constant mean.
  Rng rng(23);
  const int per_day = 48, days = 40;
  const double a1 = 0.65;
  Vector history;
  double fluct = 0.0;
  for (int d = 0; d < days; ++d) {
    for (int t = 0; t < per_day; ++t) {
      fluct = a1 * fluct + rng.Normal(0, 0.1);
      history.push_back(fluct);
    }
  }
  Result<SeasonalArModel> m = SeasonalArModel::Train(history, per_day);
  ASSERT_TRUE(m.ok());
  // Feature[0] is the intra-day AR(1) coefficient.
  EXPECT_NEAR(m.value().Feature()[0], a1, 0.07);
}

TEST(SeasonalTest, RecoversDailyMeanDynamics) {
  // Daily means follow mu_T = 0.8 mu_{T-1}; within-day values sit exactly at
  // the mean, so the daily regression sees a noiseless AR(1) in the means and
  // must put its weight on b1.
  const int per_day = 24, days = 60;
  Vector history;
  double mu = 4.0;
  for (int d = 0; d < days; ++d) {
    for (int t = 0; t < per_day; ++t) history.push_back(mu);
    mu = 0.8 * mu;
  }
  Result<SeasonalArModel> m = SeasonalArModel::Train(history, per_day);
  ASSERT_TRUE(m.ok());
  const Vector f = m.value().Feature();
  // Predicted mean from the three lags should reproduce the AR(1) decay:
  // b1 * mu + b2 * mu/0.8 + b3 * mu/0.64 = 0.8 mu.
  const double combo = f[1] + f[2] / 0.8 + f[3] / 0.64;
  EXPECT_NEAR(combo, 0.8, 1e-6);
}

TEST(SeasonalTest, StreamingMatchesTrainOnSameData) {
  Rng rng(29);
  const int per_day = 24;
  Vector history;
  for (int i = 0; i < per_day * 10; ++i) {
    history.push_back(25.0 + rng.Normal(0, 0.3));
  }
  Result<SeasonalArModel> trained = SeasonalArModel::Train(history, per_day);
  ASSERT_TRUE(trained.ok());
  SeasonalArModel streamed(per_day);
  for (double x : history) streamed.Observe(x);
  const Vector a = trained.value().Feature();
  const Vector b = streamed.Feature();
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
}


// -- Order selection (AIC) -----------------------------------------------------

TEST(OrderSelectionTest, PicksTrueOrderOfAr2Process) {
  Rng rng(101);
  Vector series = SimulateAr({0.6, 0.25}, 8000, 0.4, &rng);
  Result<OrderSelection> sel = SelectArOrder(series, 6);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().order, 2);
  EXPECT_NEAR(sel.value().model.coefficients[0], 0.6, 0.05);
  EXPECT_NEAR(sel.value().model.coefficients[1], 0.25, 0.05);
  EXPECT_EQ(sel.value().candidate_aic.size(), 6u);
}

TEST(OrderSelectionTest, WhiteNoisePrefersSmallOrder) {
  Rng rng(103);
  Vector series;
  for (int t = 0; t < 4000; ++t) series.push_back(rng.Normal());
  Result<OrderSelection> sel = SelectArOrder(series, 5);
  ASSERT_TRUE(sel.ok());
  // AIC's 2k penalty keeps spurious higher orders out.
  EXPECT_LE(sel.value().order, 2);
}

TEST(OrderSelectionTest, CandidateScoresCoverAllOrders) {
  Rng rng(107);
  Vector series = SimulateAr({0.5}, 2000, 0.3, &rng);
  Result<OrderSelection> sel = SelectArOrder(series, 4);
  ASSERT_TRUE(sel.ok());
  // The winner's AIC is the minimum of the candidates.
  double min_aic = sel.value().candidate_aic[0];
  for (double a : sel.value().candidate_aic) min_aic = std::min(min_aic, a);
  EXPECT_DOUBLE_EQ(sel.value().aic, min_aic);
}

TEST(OrderSelectionTest, RejectsBadArguments) {
  EXPECT_FALSE(SelectArOrder({1, 2, 3}, 0).ok());
  EXPECT_FALSE(SelectArOrder({1, 2, 3}, 5).ok());
}

}  // namespace
}  // namespace elink
