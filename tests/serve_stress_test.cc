// Thread-safety stress for the serving layer: many client threads, a tiny
// cache (constant eviction pressure), and a writer republishing state while
// queries are in flight.  Run under TSan/ASan/UBSan in CI; the assertions
// here are structural (counter consistency, bounded residency, sorted
// answers) — answer-level coherence is serve_parity_test's job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/terrain.h"
#include "serve/frontend.h"
#include "serve/result_cache.h"
#include "serve/session.h"
#include "serve/workload.h"

namespace elink {
namespace serve {
namespace {

SensorDataset StressDs() {
  TerrainConfig cfg;
  cfg.num_nodes = 120;
  cfg.radio_range_fraction = 0.12;
  cfg.seed = 21;
  return std::move(MakeTerrainDataset(cfg)).value();
}

TEST(ServeStressTest, ConcurrentClientsDuringPublishesAndEviction) {
  const SensorDataset ds = StressDs();
  ClusteredSensorNetwork::Options nopts;
  nopts.delta = 0.3 * FeatureDiameter(ds);
  nopts.seed = 5;
  auto net = std::move(ClusteredSensorNetwork::Build(ds, nopts)).value();

  ServeFrontend::Options fopt;
  fopt.cache.shards = 2;
  fopt.cache.capacity_per_shard = 4;  // Tiny: every client fights for slots.
  ServeSession session(net.get(), fopt);

  WorkloadConfig wcfg;
  wcfg.num_clients = 6;
  wcfg.ops_per_client = 150;
  wcfg.predicate_pool = 24;  // 3x the cache capacity: guaranteed eviction.
  wcfg.unique_fraction = 0.05;
  WorkloadGenerator gen(ds.features, ds.topology.num_nodes(), wcfg, 99);

  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < wcfg.num_clients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<WorkloadOp> ops = gen.ClientOps(c);
      int pass = 0;
      do {
        for (const WorkloadOp& op : ops) {
          if (op.is_range) {
            const ServedRange r =
                session.frontend().Range(op.feature, op.scalar);
            EXPECT_TRUE(std::is_sorted(r.answer.matches.begin(),
                                       r.answer.matches.end()));
          } else {
            const ServedPath p = session.frontend().SafePath(
                op.source, op.destination, op.feature, op.scalar);
            if (!p.answer.found) EXPECT_TRUE(p.answer.path.empty());
          }
        }
        ++pass;
      } while (!done.load(std::memory_order_acquire) && pass < 40);
    });
  }

  // Writer: keep publishing new versions (feature nudges re-cluster
  // nothing but change the touched cluster) while clients run.
  std::thread writer([&] {
    Rng rng(7);
    for (int round = 0; round < 30; ++round) {
      const int node = static_cast<int>(rng.UniformInt(120));
      Feature f = net->feature(node);
      f[0] += rng.Uniform(-0.01, 0.01);
      session.UpdateFeatureAndPublish(node, f);
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& t : clients) t.join();

  const ServeCounters c = session.frontend().Counters();
  // Every query either hit or missed; nothing is double-counted.
  EXPECT_EQ(c.cache.hits + c.cache.misses,
            c.range_queries + c.path_queries);
  // Every miss inserted exactly one entry.
  EXPECT_EQ(c.cache.insertions, c.cache.misses);
  // Residency stays within the configured bound.
  EXPECT_LE(session.frontend().CacheSize(), 2u * 4u);
  // 30 publishes with one touched cluster each: versions moved, and the
  // invalidation machinery actually fired.
  EXPECT_EQ(c.publishes, 31u);  // Initial + 30 rounds.
  EXPECT_GE(c.epoch_bumps, 30u);
  EXPECT_GT(c.cache.hits, 0u);
  EXPECT_GT(c.cache.capacity_evictions, 0u);
}

TEST(ServeStressTest, InvalidationCountersAreConsistent) {
  ResultCache::Options opt;
  opt.shards = 4;
  opt.capacity_per_shard = 16;
  ResultCache cache(opt);

  std::vector<std::thread> threads;
  std::atomic<uint64_t> version{1};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 2000; ++i) {
        const std::string key =
            "k" + std::to_string(rng.UniformInt(64));
        const uint64_t current = version.load(std::memory_order_relaxed);
        if (!cache.Lookup(key, current).has_value()) {
          cache.Insert(key, CacheEntry{RangeAnswer{}, current});
        }
      }
    });
  }
  std::thread invalidator([&] {
    for (int i = 0; i < 50; ++i) {
      cache.InvalidateStale(version.fetch_add(1, std::memory_order_relaxed) +
                            1);
    }
  });
  for (std::thread& t : threads) t.join();
  invalidator.join();

  const CacheCounters c = cache.Counters();
  EXPECT_EQ(c.hits + c.misses, 4u * 2000u);
  EXPECT_EQ(c.insertions, c.misses);
  EXPECT_LE(cache.Size(), 4u * 16u);
}

}  // namespace
}  // namespace serve
}  // namespace elink
