// Concurrent query serving over a clustered deployment (ROADMAP item 3).
//
// A ServeSession wraps a ClusteredSensorNetwork behind the thread-safe
// elink_serve frontend: client threads issue range and safe-path queries
// concurrently, and repeated predicates are answered from a result cache
// keyed by the published view's version.  A feature update that changes a
// cluster publishes a new view, and the sweep drops every cached answer (a
// cluster change can affect any predicate); republishing an unchanged state
// keeps the view and the cache as they are.
//
// Every printed count is independent of thread timing, so two runs print the
// same bytes.  Hit and miss counts are not printed: concurrent readers that
// miss on the same predicate at once both compute it, so the split between
// hits and misses varies from run to run.
//
//   ./query_serving
#include <cstdio>
#include <thread>
#include <vector>

#include "core/clustered_network.h"
#include "data/terrain.h"
#include "serve/session.h"
#include "serve/workload.h"

using namespace elink;

int main() {
  // 1. Deploy 300 sensors on fractal terrain and cluster by elevation.
  TerrainConfig tcfg;
  tcfg.num_nodes = 300;
  tcfg.radio_range_fraction = 0.1;
  tcfg.seed = 42;
  Result<SensorDataset> ds_r = MakeTerrainDataset(tcfg);
  if (!ds_r.ok()) {
    std::fprintf(stderr, "%s\n", ds_r.status().ToString().c_str());
    return 1;
  }
  const SensorDataset ds = std::move(ds_r).value();

  ClusteredSensorNetwork::Options nopts;
  nopts.delta = 0.25 * FeatureDiameter(ds);
  nopts.seed = 7;
  auto net_r = ClusteredSensorNetwork::Build(ds, nopts);
  if (!net_r.ok()) {
    std::fprintf(stderr, "%s\n", net_r.status().ToString().c_str());
    return 1;
  }
  auto net = std::move(net_r).value();
  std::printf("deployment: %d sensors, %d clusters\n",
              ds.topology.num_nodes(), net->clustering().num_clusters());

  // 2. Open a serving session (publishes the initial view immediately).
  serve::ServeSession session(net.get(), serve::ServeFrontend::Options{});

  // 3. Four client threads replay skewed workloads concurrently; repeated
  //    predicates hit the cache.
  serve::WorkloadConfig wcfg;
  wcfg.num_clients = 4;
  wcfg.ops_per_client = 500;
  wcfg.predicate_pool = 32;
  serve::WorkloadGenerator gen(ds.features, ds.topology.num_nodes(), wcfg,
                               /*seed=*/11);
  std::vector<std::thread> clients;
  for (int c = 0; c < wcfg.num_clients; ++c) {
    clients.emplace_back([&session, &gen, c] {
      for (const serve::WorkloadOp& op : gen.ClientOps(c)) {
        if (op.is_range) {
          session.frontend().Range(op.feature, op.scalar);
        } else {
          session.frontend().SafePath(op.source, op.destination, op.feature,
                                      op.scalar);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const serve::ServeCounters after_load = session.frontend().Counters();
  std::printf("served %llu queries, %zu distinct answers cached\n",
              static_cast<unsigned long long>(after_load.range_queries +
                                              after_load.path_queries),
              session.frontend().CacheSize());
  if (after_load.cache.hits == 0) {
    std::fprintf(stderr, "expected cache hits on the skewed workload\n");
    return 1;
  }

  // 4. One sensor reading changes: republish.  The changed clusters are
  //    counted as epoch bumps; any change publishes a new view version, so
  //    the sweep drops every cached answer and the next read recomputes.
  //    Republishing an *unchanged* state publishes nothing and keeps the
  //    cache warm — that is the common steady state.
  Feature f = net->feature(0);
  f[0] += 1.0;
  session.UpdateFeatureAndPublish(0, f);
  const serve::ServedRange again =
      session.frontend().Range(gen.pool()[0].feature, gen.pool()[0].scalar);
  const serve::ServeCounters after_update = session.frontend().Counters();
  std::printf("after update: view v%llu, epoch bumps %llu, views built %llu, "
              "invalidated %llu, re-served %zu matches (%s)\n",
              static_cast<unsigned long long>(again.view_version),
              static_cast<unsigned long long>(after_update.epoch_bumps),
              static_cast<unsigned long long>(after_update.views_built),
              static_cast<unsigned long long>(after_update.cache.invalidated),
              again.answer.matches.size(),
              again.from_cache ? "cache" : "recomputed");
  if (after_update.epoch_bumps == 0) {
    std::fprintf(stderr, "expected an epoch bump after the update\n");
    return 1;
  }
  return 0;
}
