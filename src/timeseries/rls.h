// Recursive least squares — the online model update of paper Appendix A.
//
// The estimator maintains P_k = (X X^T)^{-1} and the coefficient vector
// alpha, and folds in each new (x_k, y_k) observation with the rank-one
// updates of equations (6)-(8):
//   b_k = b_{k-1} + x_k y_k
//   P_k = P_{k-1} - P_{k-1} x_k [1 + x_k^T P_{k-1} x_k]^{-1} x_k^T P_{k-1}
//   alpha_k = alpha_{k-1} - P_k (x_k x_k^T alpha_{k-1} - x_k y_k)
// so a sensor node never re-solves the normal equations.
#ifndef ELINK_TIMESERIES_RLS_H_
#define ELINK_TIMESERIES_RLS_H_

#include <initializer_list>
#include <span>

#include "common/status.h"
#include "linalg/matrix.h"

namespace elink {

/// \brief Online least-squares estimator over a fixed set of k regressors.
class RlsEstimator {
 public:
  /// Cold start: alpha = 0, P = initial_p_scale * I.  A large
  /// initial_p_scale (default 1e6) makes the estimate converge to the batch
  /// least-squares solution as observations arrive.
  explicit RlsEstimator(int num_regressors, double initial_p_scale = 1e6);

  /// Warm start from a batch solve: P = (X X^T)^{-1}, alpha from the batch
  /// fit.  Subsequent Observe() calls continue that exact trajectory, i.e.
  /// after t more observations the estimate equals the batch fit over all
  /// m + t observations.  Errors if X X^T is singular.
  static Result<RlsEstimator> FromBatch(const Matrix& x, const Vector& y,
                                        double ridge = 0.0);

  /// Folds in one observation (regressor vector x, response y).  O(k^2),
  /// and allocation-free: its scratch is sized once, with the estimator.
  void Observe(std::span<const double> x, double y);

  /// Braced regressors, e.g. Observe({x_prev}, y), without building a
  /// Vector per step.
  void Observe(std::initializer_list<double> x, double y) {
    Observe(std::span<const double>(x.begin(), x.size()), y);
  }

  /// Current coefficient estimate.
  const Vector& coefficients() const { return alpha_; }

  /// Number of observations folded in (including any batch warm start).
  long long observation_count() const { return count_; }

  int num_regressors() const { return static_cast<int>(alpha_.size()); }

  /// Access to the inverse information matrix (tests).
  const Matrix& p() const { return p_; }

 private:
  RlsEstimator() = default;

  Matrix p_;      // (X X^T)^{-1}
  Vector alpha_;  // Coefficients.
  Vector g_;      // Observe's scratch for g = P x; k entries.
  long long count_ = 0;
};

}  // namespace elink

#endif  // ELINK_TIMESERIES_RLS_H_
