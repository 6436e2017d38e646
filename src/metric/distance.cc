#include "metric/distance.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "metric/simd.h"

namespace elink {

std::string FeatureToString(const Feature& f) {
  std::string out = "(";
  for (size_t i = 0; i < f.size(); ++i) {
    if (i) out += ", ";
    out += FormatDouble(f[i]);
  }
  out += ")";
  return out;
}

bool IsFinite(const Feature& f) {
  return std::all_of(f.begin(), f.end(),
                     [](double c) { return std::isfinite(c); });
}

WeightedEuclidean::WeightedEuclidean(std::vector<double> weights)
    : weights_(std::move(weights)) {
  ELINK_CHECK(!weights_.empty());
  for (double w : weights_) ELINK_CHECK(w > 0.0);
}

WeightedEuclidean WeightedEuclidean::Euclidean(int dim) {
  return WeightedEuclidean(std::vector<double>(dim, 1.0));
}

double WeightedEuclidean::Distance(const Feature& a, const Feature& b) const {
  ELINK_CHECK(a.size() == weights_.size() && b.size() == weights_.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += weights_[i] * d * d;
  }
  return std::sqrt(s);
}

void DistanceMetric::BatchDistance(const Feature& q, const FeaturePool& pool,
                                   double* out) const {
  Feature scratch;
  for (size_t j = 0; j < pool.size(); ++j) {
    pool.CopyTo(j, &scratch);
    out[j] = Distance(q, scratch);
  }
}

void DistanceMetric::BatchDistanceIndexed(const Feature& q,
                                          const FeaturePool& pool,
                                          const int* idx, size_t count,
                                          double* out) const {
  Feature scratch;
  for (size_t j = 0; j < count; ++j) {
    pool.CopyTo(static_cast<size_t>(idx[j]), &scratch);
    out[j] = Distance(q, scratch);
  }
}

void WeightedEuclidean::BatchDistance(const Feature& q, const FeaturePool& pool,
                                      double* out) const {
  if (pool.empty()) return;
  ELINK_CHECK(q.size() == weights_.size() && pool.dim() == weights_.size());
  WeightedL2SoA()(pool.soa(), pool.stride(), pool.size(), pool.dim(), q.data(),
                  weights_.data(), out);
}

void WeightedEuclidean::BatchDistanceIndexed(const Feature& q,
                                             const FeaturePool& pool,
                                             const int* idx, size_t count,
                                             double* out) const {
  if (count == 0) return;
  ELINK_CHECK(q.size() == weights_.size() && pool.dim() == weights_.size());
  WeightedL2Indexed()(pool.soa(), pool.stride(), idx, count, pool.dim(),
                      q.data(), weights_.data(), out);
}

double ManhattanDistance::Distance(const Feature& a, const Feature& b) const {
  ELINK_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

Result<TableMetric> TableMetric::Create(
    std::vector<std::vector<double>> table) {
  const size_t n = table.size();
  for (size_t i = 0; i < n; ++i) {
    if (table[i].size() != n) {
      return Status::InvalidArgument("TableMetric: table must be square");
    }
    if (table[i][i] != 0.0) {
      return Status::InvalidArgument("TableMetric: diagonal must be zero");
    }
    for (size_t j = 0; j < n; ++j) {
      if (table[i][j] < 0.0) {
        return Status::InvalidArgument("TableMetric: negative distance");
      }
      if (table[i][j] != table[j][i]) {
        return Status::InvalidArgument("TableMetric: table must be symmetric");
      }
    }
  }
  return TableMetric(std::move(table));
}

double TableMetric::Distance(const Feature& a, const Feature& b) const {
  ELINK_CHECK(a.size() == 1 && b.size() == 1);
  const int i = static_cast<int>(a[0]);
  const int j = static_cast<int>(b[0]);
  ELINK_CHECK(i >= 0 && i < size() && j >= 0 && j < size());
  return table_[i][j];
}

Status CheckMetricAxioms(const DistanceMetric& metric,
                         const std::vector<Feature>& samples, double tol) {
  const size_t n = samples.size();
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(metric.Distance(samples[i], samples[i])) > tol) {
      return Status::FailedPrecondition("d(x, x) != 0");
    }
    for (size_t j = i + 1; j < n; ++j) {
      const double dij = metric.Distance(samples[i], samples[j]);
      const double dji = metric.Distance(samples[j], samples[i]);
      if (dij < -tol) return Status::FailedPrecondition("negative distance");
      if (std::fabs(dij - dji) > tol) {
        return Status::FailedPrecondition("distance not symmetric");
      }
      for (size_t k = 0; k < n; ++k) {
        const double dik = metric.Distance(samples[i], samples[k]);
        const double dkj = metric.Distance(samples[k], samples[j]);
        if (dij > dik + dkj + tol) {
          return Status::FailedPrecondition("triangle inequality violated");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace elink
