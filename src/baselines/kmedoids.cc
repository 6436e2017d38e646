#include "baselines/kmedoids.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace elink {

namespace {

/// One PAM run for a fixed k: greedy k-medoids++ seeding, then swap
/// improvement until no swap reduces the total assignment cost (or the round
/// budget is exhausted).  Returns the assignment and the iteration count.
struct PamOutcome {
  std::vector<int> medoids;
  std::vector<int> assignment;
  int iterations = 0;
};

PamOutcome RunPam(const std::vector<Feature>& features,
                  const FeaturePool& pool, const DistanceMetric& metric, int k,
                  int max_rounds, Rng* rng) {
  const int n = static_cast<int>(features.size());
  PamOutcome out;
  // Seeding: first medoid uniform, then farthest-point-style proportional
  // to distance from the nearest chosen medoid.  Each candidate medoid is
  // measured against the whole set with one batch scan (bit-identical
  // distances, so seeding draws and picks are unchanged).
  out.medoids.push_back(static_cast<int>(rng->UniformInt(n)));
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::vector<double> d_medoid(n);
  while (static_cast<int>(out.medoids.size()) < k) {
    metric.BatchDistance(features[out.medoids.back()], pool, d_medoid.data());
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], d_medoid[i]);
      total += nearest[i];
    }
    if (total <= 0) {
      out.medoids.push_back(static_cast<int>(rng->UniformInt(n)));
      continue;
    }
    double target = rng->Uniform01() * total;
    int pick = n - 1;
    for (int i = 0; i < n; ++i) {
      target -= nearest[i];
      if (target <= 0) {
        pick = i;
        break;
      }
    }
    out.medoids.push_back(pick);
  }

  // k whole-set batch scans (one per medoid), then the same nearest-medoid
  // selection loop in the same c order — identical ties, identical
  // assignment.
  std::vector<double> d_all(static_cast<size_t>(k) * n);
  auto assign_cost = [&](const std::vector<int>& medoids,
                         std::vector<int>* assignment) {
    for (int c = 0; c < k; ++c) {
      metric.BatchDistance(features[medoids[c]], pool,
                           d_all.data() + static_cast<size_t>(c) * n);
    }
    double cost = 0.0;
    assignment->assign(n, 0);
    for (int i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const double d = d_all[static_cast<size_t>(c) * n + i];
        if (d < best) {
          best = d;
          (*assignment)[i] = c;
        }
      }
      cost += best;
    }
    return cost;
  };

  double cost = assign_cost(out.medoids, &out.assignment);
  for (int round = 0; round < max_rounds; ++round) {
    ++out.iterations;
    bool improved = false;
    // Swap each medoid with the best in-cluster candidate.
    for (int c = 0; c < k && !improved; ++c) {
      for (int cand = 0; cand < n; ++cand) {
        if (out.assignment[cand] != c || cand == out.medoids[c]) continue;
        std::vector<int> trial = out.medoids;
        trial[c] = cand;
        std::vector<int> trial_assignment;
        const double trial_cost = assign_cost(trial, &trial_assignment);
        if (trial_cost + 1e-12 < cost) {
          cost = trial_cost;
          out.medoids = std::move(trial);
          out.assignment = std::move(trial_assignment);
          improved = true;
          break;
        }
      }
    }
    if (!improved) break;
  }
  return out;
}

}  // namespace

Result<KMedoidsResult> KMedoidsDeltaClustering(
    const AdjacencyList& adjacency, const std::vector<Feature>& features,
    const DistanceMetric& metric, const KMedoidsConfig& config) {
  const int n = static_cast<int>(adjacency.size());
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (features.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("features size mismatch");
  }
  if (config.delta < 0) {
    return Status::InvalidArgument("delta must be non-negative");
  }
  Rng rng(config.seed);
  const FeaturePool pool(features);
  const int dim = static_cast<int>(features[0].size());

  KMedoidsResult result;
  result.chosen_k = 0;
  int best_count = n + 1;

  // Validates a partition the same way the spectral baseline does: split
  // each group into connected components, require pairwise compactness.
  auto evaluate = [&](const std::vector<int>& assignment, int k,
                      Clustering* out) {
    std::vector<std::vector<int>> groups(k);
    for (int i = 0; i < n; ++i) groups[assignment[i]].push_back(i);
    out->root_of.assign(n, -1);
    for (const auto& group : groups) {
      if (group.empty()) continue;
      std::vector<char> mask(n, 0);
      for (int m : group) mask[m] = 1;
      const std::vector<int> comp = InducedComponents(adjacency, mask);
      std::map<int, std::vector<int>> comps;
      for (int m : group) comps[comp[m]].push_back(m);
      for (const auto& [cid, members] : comps) {
        (void)cid;
        for (size_t a = 0; a < members.size(); ++a) {
          for (size_t b = a + 1; b < members.size(); ++b) {
            if (metric.Distance(features[members[a]], features[members[b]]) >
                config.delta + 1e-12) {
              return false;
            }
          }
        }
        for (int m : members) out->root_of[m] = members.front();
      }
    }
    return true;
  };

  const int k_cap = std::min(n, 128);
  for (int k = 1; k <= k_cap && k < best_count; ++k) {
    const PamOutcome pam =
        RunPam(features, pool, metric, k, config.max_swap_rounds, &rng);
    result.total_iterations += pam.iterations;
    // Distributed cost of this k: every iteration floods the k medoid
    // features through the network (N - 1 spanning-tree transmissions per
    // flood, k * dim units each), plus each node reporting its choice
    // (1 unit up the tree).
    for (int it = 0; it < pam.iterations; ++it) {
      for (int e = 0; e + 1 < n; ++e) {
        result.hypothetical_stats.Record(CategoryIdOf<"kmedoids_broadcast">(),
                                         k * dim);
        result.hypothetical_stats.Record(CategoryIdOf<"kmedoids_report">(), 1);
      }
    }
    Clustering out;
    if (evaluate(pam.assignment, k, &out)) {
      const int count = out.num_clusters();
      if (count < best_count) {
        best_count = count;
        result.clustering = std::move(out);
        result.chosen_k = k;
      }
    }
  }
  if (result.chosen_k == 0) {
    // Fall back to singletons (always valid).
    result.clustering.root_of.resize(n);
    for (int i = 0; i < n; ++i) result.clustering.root_of[i] = i;
    result.chosen_k = n;
  }
  return result;
}

}  // namespace elink
