#include "serve/result_cache.h"

#include <algorithm>

namespace elink {
namespace serve {

uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

ResultCache::ResultCache(const Options& options)
    : num_shards_(std::clamp(options.shards, 1, 256)),
      capacity_per_shard_(std::max(options.capacity_per_shard, 1)),
      shards_(static_cast<size_t>(num_shards_)) {}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  return shards_[HashKey(key) % static_cast<uint64_t>(num_shards_)];
}

std::optional<CacheEntry> ResultCache::Lookup(const std::string& key,
                                              uint64_t version) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (it->second.version != version) {
    // Raced a publish past the eager sweep: drop it here, never serve it.
    shard.map.erase(it);
    shard.order.erase(
        std::find(shard.order.begin(), shard.order.end(), key));
    stale_evictions_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  it->second.referenced = true;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void ResultCache::Insert(const std::string& key, CacheEntry entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second = std::move(entry);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (shard.map.size() >= static_cast<size_t>(capacity_per_shard_)) {
    // Second chance over insertion order: skip (and strip) referenced
    // entries, evict the first cold one.
    while (true) {
      if (shard.clock_hand >= shard.order.size()) shard.clock_hand = 0;
      const std::string victim = shard.order[shard.clock_hand];
      auto vit = shard.map.find(victim);
      if (vit->second.referenced) {
        vit->second.referenced = false;
        ++shard.clock_hand;
        continue;
      }
      shard.map.erase(vit);
      shard.order.erase(shard.order.begin() +
                        static_cast<long>(shard.clock_hand));
      capacity_evictions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  shard.map.emplace(key, std::move(entry));
  shard.order.push_back(key);
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t ResultCache::InvalidateStale(uint64_t current_version) {
  uint64_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < shard.order.size();) {
      auto it = shard.map.find(shard.order[i]);
      if (it->second.version != current_version) {
        shard.map.erase(it);
        shard.order.erase(shard.order.begin() + static_cast<long>(i));
        ++dropped;
      } else {
        ++i;
      }
    }
    shard.clock_hand = 0;
  }
  invalidated_.fetch_add(dropped, std::memory_order_relaxed);
  return dropped;
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.order.clear();
    shard.clock_hand = 0;
  }
}

size_t ResultCache::Size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

CacheCounters ResultCache::Counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.stale_evictions = stale_evictions_.load(std::memory_order_relaxed);
  c.invalidated = invalidated_.load(std::memory_order_relaxed);
  c.capacity_evictions = capacity_evictions_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace serve
}  // namespace elink
