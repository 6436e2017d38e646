#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace elink {

double MaxNeighborDistance(const SensorDataset& ds) {
  double m = 0.0;
  const int n = ds.topology.num_nodes();
  for (int i = 0; i < n; ++i) {
    for (int j : ds.topology.adjacency[i]) {
      if (j <= i) continue;
      m = std::max(m, ds.metric->Distance(ds.features[i], ds.features[j]));
    }
  }
  return m;
}

double FeatureDiameter(const SensorDataset& ds) {
  const int n = ds.topology.num_nodes();
  // One finite value per node under a weighted Euclidean metric: the
  // diameter is the distance between the smallest and the largest value.
  // Rounding is monotone, so fl(hi - lo) >= |fl(a - b)| for every pair, and
  // sqrt(0 + (w * d) * d) is nondecreasing in |d| for w > 0 (elink_metric
  // builds without FMA contraction): the result is the pair scan's, bit for
  // bit.  Any other input takes the pair scan below.
  const auto* wl2 = dynamic_cast<const WeightedEuclidean*>(ds.metric.get());
  if (wl2 != nullptr && wl2->weights().size() == 1 && n > 0) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    int i = 0;
    for (; i < n; ++i) {
      const Feature& f = ds.features[i];
      if (f.size() != 1 || !std::isfinite(f[0])) break;
      lo = std::min(lo, f[0]);
      hi = std::max(hi, f[0]);
    }
    if (i == n) return ds.metric->Distance({hi}, {lo});
  }
  double m = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      m = std::max(m, ds.metric->Distance(ds.features[i], ds.features[j]));
    }
  }
  return m;
}

std::vector<double> SuggestDeltaSweep(const SensorDataset& ds, int count,
                                      double lo_frac, double hi_frac) {
  const double diameter = FeatureDiameter(ds);
  std::vector<double> out;
  out.reserve(count);
  if (count == 1) {
    out.push_back(lo_frac * diameter);
    return out;
  }
  for (int i = 0; i < count; ++i) {
    const double f =
        lo_frac + (hi_frac - lo_frac) * static_cast<double>(i) / (count - 1);
    out.push_back(f * diameter);
  }
  return out;
}

}  // namespace elink
