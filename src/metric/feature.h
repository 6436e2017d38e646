// Node features for clustering (paper Section 2.2).
//
// A feature is the coefficient vector of a node's fitted data model; all
// clustering, maintenance, and query decisions compare features through a
// metric distance (metric/distance.h), never raw data.
#ifndef ELINK_METRIC_FEATURE_H_
#define ELINK_METRIC_FEATURE_H_

#include <string>
#include <vector>

namespace elink {

/// A feature vector (model coefficients).  Dimension is workload dependent:
/// 4 for the Tao model (a1, b1..b3), 1 for terrain elevation or AR(1).
using Feature = std::vector<double>;

/// Renders a feature as "(c1, c2, ...)" for diagnostics.
std::string FeatureToString(const Feature& f);

/// True when no component is NaN or infinite.
bool IsFinite(const Feature& f);

}  // namespace elink

#endif  // ELINK_METRIC_FEATURE_H_
