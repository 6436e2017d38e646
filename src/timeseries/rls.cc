#include "timeseries/rls.h"

#include "linalg/solve.h"

namespace elink {

RlsEstimator::RlsEstimator(int num_regressors, double initial_p_scale) {
  ELINK_CHECK(num_regressors > 0);
  ELINK_CHECK(initial_p_scale > 0);
  p_ = Matrix::Identity(num_regressors).Scale(initial_p_scale);
  alpha_.assign(num_regressors, 0.0);
  g_.resize(num_regressors);
}

Result<RlsEstimator> RlsEstimator::FromBatch(const Matrix& x, const Vector& y,
                                             double ridge) {
  const size_t k = x.rows();
  if (y.size() != x.cols()) {
    return Status::InvalidArgument("RlsEstimator::FromBatch: size mismatch");
  }
  Matrix xxt(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i; j < k; ++j) {
      double s = 0.0;
      for (size_t m = 0; m < x.cols(); ++m) s += x(i, m) * x(j, m);
      xxt(i, j) = s;
      xxt(j, i) = s;
    }
    xxt(i, i) += ridge;
  }
  Result<Matrix> inv = Invert(xxt);
  if (!inv.ok()) return inv.status();
  Result<Vector> alpha = SolveNormalEquations(x, y, ridge);
  if (!alpha.ok()) return alpha.status();

  RlsEstimator est;
  est.p_ = std::move(inv).value();
  est.alpha_ = std::move(alpha).value();
  est.g_.resize(k);
  est.count_ = static_cast<long long>(y.size());
  return est;
}

void RlsEstimator::Observe(std::span<const double> x, double y) {
  ELINK_CHECK(x.size() == alpha_.size());
  // Keep every sum below in the order Matrix::Multiply and Dot run it:
  // timeseries_test pins Observe to that Multiply/Dot/Scale chain bit for
  // bit, so no fingerprint moves.
  const size_t k = x.size();
  if (k == 1) {
    // The general body below with its one-term sums written out.  Each
    // `0.0 +` is the sum's start value and stays: it changes the sign of a
    // zero, and it keeps a build that contracts to FMA from fusing the
    // product into the add that follows.  g feeds only products, where
    // that sign cannot show, so it goes without.
    double& p = p_(0, 0);
    const double g = p * x[0];
    const double denom = 1.0 + (0.0 + x[0] * g);
    p -= g * g / denom;
    const double innovation = (0.0 + x[0] * alpha_[0]) - y;
    alpha_[0] -= 0.0 + p * (x[0] * innovation);
    ++count_;
    return;
  }
  // g = P_{k-1} x
  for (size_t i = 0; i < k; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < k; ++j) s += p_(i, j) * x[j];
    g_[i] = s;
  }
  // denom = 1 + x^T P_{k-1} x
  double xg = 0.0;
  for (size_t i = 0; i < k; ++i) xg += x[i] * g_[i];
  const double denom = 1.0 + xg;
  // P_k = P_{k-1} - g g^T / denom   (equation 7)
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      p_(i, j) -= g_[i] * g_[j] / denom;
    }
  }
  // alpha_k = alpha_{k-1} - P_k (x x^T alpha_{k-1} - x y)   (equation 8)
  double xa = 0.0;
  for (size_t i = 0; i < k; ++i) xa += x[i] * alpha_[i];
  const double innovation = xa - y;  // x^T alpha - y
  for (size_t i = 0; i < k; ++i) {
    // Keep the parentheses: x[j] * innovation is rounded on its own, as
    // Scale rounds it, and FMA contraction cannot absorb a product that
    // feeds a multiply.
    double correction = 0.0;
    for (size_t j = 0; j < k; ++j) correction += p_(i, j) * (x[j] * innovation);
    alpha_[i] -= correction;
  }
  ++count_;
}

}  // namespace elink
