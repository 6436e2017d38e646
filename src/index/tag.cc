#include "index/tag.h"

#include "index/screen.h"

namespace elink {

TagAggregator::TagAggregator(const AdjacencyList& adjacency, int base_station,
                             const std::vector<Feature>& features,
                             const DistanceMetric& metric)
    : features_(features),
      metric_(metric),
      pool_(features),
      base_station_(base_station) {
  const std::vector<int> parents = BfsTreeParents(adjacency, base_station);
  int edges = 0;
  for (size_t i = 0; i < parents.size(); ++i) {
    ELINK_CHECK(parents[i] >= 0);  // Connected networks only.
    if (parents[i] != static_cast<int>(i)) ++edges;
  }
  num_tree_edges_ = edges;
  feature_dim_ =
      features_.empty() ? 0 : static_cast<int>(features_[0].size());
}

std::vector<int> TagAggregator::RangeQuery(const Feature& q, double r,
                                           MessageStats* stats) const {
  if (stats != nullptr) {
    for (int e = 0; e < num_tree_edges_; ++e) {
      stats->Record(CategoryIdOf<"tag_distribute">(), feature_dim_ + 1);
      stats->Record(CategoryIdOf<"tag_collect">(), 1);
    }
  }
  std::vector<int> matches;
  std::vector<double> dists(pool_.size());
  metric_.BatchDistance(q, pool_, dists.data());
  for (size_t i = 0; i < dists.size(); ++i) {
    if (screen::InRange(dists[i], r)) matches.push_back(static_cast<int>(i));
  }
  return matches;
}

}  // namespace elink
