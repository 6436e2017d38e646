// Sharded, version-keyed result cache for the serving layer (elink_serve).
//
// Entries are keyed by the canonicalized predicate bytes of a query and
// stamped with the version of the ReadView the answer was computed on.  A
// lookup only hits when the stored version equals the version of the view
// currently being served.  That is the whole coherence argument: the
// frontend publishes a new view exactly when some cluster changed (feature,
// membership, liveness, link), so an equal version means the cached answer
// byte-equals a fresh recomputation (tests/serve_parity_test.cc proves this
// under fuzzed concurrent maintenance).
//
// Invalidation is push + pull: every publish calls InvalidateStale(version)
// to sweep entries eagerly, and any entry that survives a sweep — because it
// raced the publish — is caught lazily at lookup time by the version check
// and evicted then.  Correctness never depends on the sweep; the sweep only
// bounds memory and keeps the hit path short.
//
// Sharding: keys hash onto kShards independent shards, each with its own
// mutex and map, so concurrent clients on different predicates never
// contend.  Per-shard capacity is bounded with second-chance (CLOCK)
// eviction.
#ifndef ELINK_SERVE_RESULT_CACHE_H_
#define ELINK_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "serve/read_view.h"

namespace elink {
namespace serve {

/// Deterministic 64-bit FNV-1a over the canonical predicate bytes; used
/// both for shard selection and as the map hash.
uint64_t HashKey(const std::string& key);

/// One cached answer.
struct CacheEntry {
  std::variant<RangeAnswer, PathAnswer> answer;
  /// Version of the view the answer was computed on.
  uint64_t version = 0;
  /// Second-chance bit for CLOCK eviction.
  bool referenced = false;
};

/// Monotone counters of cache behavior.  Individually exact; concurrent
/// snapshots are not cross-field atomic.
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_evictions = 0;  // Lazily dropped at lookup (old version).
  uint64_t invalidated = 0;      // Swept by InvalidateStale.
  uint64_t capacity_evictions = 0;
  uint64_t insertions = 0;
};

/// \brief Thread-safe sharded cache of served answers.
class ResultCache {
 public:
  struct Options {
    int shards = 16;              // Clamped to [1, 256].
    int capacity_per_shard = 512; // Entries per shard; >= 1.
  };

  explicit ResultCache(const Options& options);
  ResultCache() : ResultCache(Options()) {}

  /// Looks up `key`; hits only when the stored version equals `version`.
  /// A stale entry under the key is evicted and counted.
  std::optional<CacheEntry> Lookup(const std::string& key, uint64_t version);

  /// Inserts (or replaces) the entry under `key`, evicting a victim when
  /// the shard is full.
  void Insert(const std::string& key, CacheEntry entry);

  /// Sweeps out every entry whose version differs from `current_version`;
  /// returns how many were dropped.  Called by the frontend at every
  /// publish of a new view.
  uint64_t InvalidateStale(uint64_t current_version);

  /// Drops everything (testing / reconfiguration).
  void Clear();

  /// Entries currently resident across all shards.
  size_t Size() const;

  CacheCounters Counters() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, CacheEntry> map;
    /// CLOCK hand: iteration order of `map` is stable between rehashes, so
    /// a plain round-robin over keys approximates second chance; we keep a
    /// vector of keys in insertion order instead for determinism.
    std::vector<std::string> order;
    size_t clock_hand = 0;
  };

  Shard& ShardFor(const std::string& key);

  int num_shards_;
  int capacity_per_shard_;
  std::vector<Shard> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_evictions_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> capacity_evictions_{0};
  std::atomic<uint64_t> insertions_{0};
};

}  // namespace serve
}  // namespace elink

#endif  // ELINK_SERVE_RESULT_CACHE_H_
