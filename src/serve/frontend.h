// Thread-safe concurrent query frontend over the clustered network
// (elink_serve) — ROADMAP item 3.
//
// The frontend separates one writer (maintenance) from many readers
// (clients):
//
//   * Readers call Range / SafePath from any number of threads.  Each query
//     pins the current immutable ReadView (a shared_ptr copy under a tiny
//     lock), consults the sharded epoch-keyed ResultCache, and on a miss
//     computes on the pinned view and inserts the answer stamped with the
//     view's epoch vector.
//   * The single logical writer calls Publish with the post-maintenance
//     state.  Publish diffs against the previously published state, bumps
//     the epoch of every cluster something observable happened to (feature
//     drift, membership change, node join/leave/crash/repair, link flip),
//     folds in the epoch bumps the distributed maintenance protocol
//     reported through its hook, builds a fresh ReadView, swaps it in, and
//     sweeps stale cache entries.
//
// What is (and is not) linearizable: each individual query is linearizable
// — it observes exactly one published view, atomically.  A client issuing
// query B after its own query A returned may observe an older view for B
// only if no publish happened in between (views are swapped atomically and
// monotonically, so versions never go backwards).  Multi-query read
// transactions are NOT provided: two queries may straddle a publish.  The
// coherence guarantee the test battery enforces is per-answer: every served
// answer (hit or miss) byte-equals a fresh recomputation against the view
// whose epoch vector it carries, and a cache hit's epoch vector is current
// at serve time.
#ifndef ELINK_SERVE_FRONTEND_H_
#define ELINK_SERVE_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "serve/read_view.h"
#include "serve/result_cache.h"

namespace elink {
namespace serve {

/// Canonical cache-key bytes of a range predicate: kind tag + IEEE754-LE
/// coefficients + radius (with -0.0 canonicalized to +0.0).  Initiator is
/// deliberately excluded — the answer is initiator-independent.
std::string CanonicalRangeKey(const Feature& q, double r);

/// Canonical cache-key bytes of a path predicate.
std::string CanonicalPathKey(int source, int destination,
                             const Feature& danger, double gamma);

/// A served answer plus its provenance (what the test battery inspects).
struct ServedRange {
  RangeAnswer answer;
  bool from_cache = false;
  uint64_t view_version = 0;
  uint64_t epoch_signature = 0;
  EpochVector epochs;
};

struct ServedPath {
  PathAnswer answer;
  bool from_cache = false;
  uint64_t view_version = 0;
  uint64_t epoch_signature = 0;
  EpochVector epochs;
};

/// Deterministic serving counters (monotone; exact under any interleaving).
struct ServeCounters {
  uint64_t range_queries = 0;
  uint64_t path_queries = 0;
  uint64_t publishes = 0;
  uint64_t views_built = 0;   // Publishes that actually changed state.
  uint64_t epoch_bumps = 0;   // Cluster epochs bumped across all publishes.
  uint64_t hook_bumps = 0;    // Bumps reported by the maintenance hook.
  CacheCounters cache;
};

/// \brief Concurrent query-serving frontend with epoch-keyed caching.
class ServeFrontend {
 public:
  struct Options {
    bool enable_cache = true;
    ResultCache::Options cache;
  };

  ServeFrontend(std::shared_ptr<const DistanceMetric> metric,
                const Options& options);
  ~ServeFrontend();

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  // -- Writer side (one logical writer; calls are serialized) -------------

  /// Publishes the current clustering state.  `live` empty means every node
  /// present.  `hook_bumped_roots` are cluster roots the maintenance
  /// protocol's epoch hook reported since the last publish (deployment
  /// numbering); the frontend's own state diff is merged with them, so a
  /// bump is never missed even when the diff cannot see it (e.g. a
  /// membership change that changed back within one quiescence window).
  /// The first publish seeds the state; later ones bump epochs per changed
  /// cluster.  Publishing an unchanged state is a no-op that keeps the
  /// cache warm.
  void Publish(const Clustering& clustering,
               const std::vector<Feature>& features,
               const AdjacencyList& adjacency,
               const std::vector<char>& live = {},
               const std::vector<int>& hook_bumped_roots = {});

  // -- Reader side (any thread) -------------------------------------------

  ServedRange Range(const Feature& q, double r);
  ServedPath SafePath(int source, int destination, const Feature& danger,
                      double gamma);

  /// The currently published view (never null after the first Publish).
  std::shared_ptr<const ReadView> View() const;

  ServeCounters Counters() const;

  /// Entries currently resident in the result cache.
  size_t CacheSize() const { return cache_.Size(); }

  /// Deterministic JSON of the serving counters, e.g. for
  /// RunReport::SetSectionJson("serve", ...).  Stable key order.
  std::string CountersJson() const;

 private:
  void SwapView(std::shared_ptr<const ReadView> view);

  std::shared_ptr<const DistanceMetric> metric_;
  Options options_;
  ResultCache cache_;

  mutable std::mutex view_mu_;  // Guards view_ swap/copy only.
  std::shared_ptr<const ReadView> view_;

  std::mutex writer_mu_;  // Serializes Publish.
  // Last published full-deployment state (writer-owned).
  Clustering last_clustering_;
  std::vector<Feature> last_features_;
  AdjacencyList last_adjacency_;
  std::vector<char> last_live_;
  /// Epoch of the cluster currently rooted at node r; persists across root
  /// turnover so a reused root id never repeats an old epoch value.
  std::vector<long long> epoch_by_root_;
  uint64_t version_ = 0;

  std::atomic<uint64_t> range_queries_{0};
  std::atomic<uint64_t> path_queries_{0};
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> views_built_{0};
  std::atomic<uint64_t> epoch_bumps_{0};
  std::atomic<uint64_t> hook_bumps_{0};
};

}  // namespace serve
}  // namespace elink

#endif  // ELINK_SERVE_FRONTEND_H_
