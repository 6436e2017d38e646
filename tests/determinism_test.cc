// Bit-reproducibility regression tests for the simulator core.
//
// The golden values below were captured from the seed build (the
// std::priority_queue/std::function event queue, std::map-based stats and
// fault tables) and pin the full observable outcome of two end-to-end ELink
// runs: clustering assignment, per-category message ledger, and completion
// time.  Any event-core change that reorders same-seed dispatch, perturbs an
// RNG call sequence, or miscounts a ledger entry shows up here as a concrete
// diff, not a flaky downstream assertion.
//
// Also checks that the bench thread pool (ParallelTrialRunner) is outcome-
// transparent: trials run under it produce the same bits as serial runs.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "cluster/elink.h"
#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/terrain.h"
#include "obs/trace.h"
#include "serve/session.h"
#include "serve/workload.h"

namespace elink {
namespace {

// FNV-1a over the cluster-root assignment; collapses the whole partition
// into one comparable (and greppable) number.
uint64_t HashClustering(const Clustering& c) {
  uint64_t h = 1469598103934665603ULL;
  for (int r : c.root_of) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(r));
    h *= 1099511628211ULL;
  }
  return h;
}

SensorDataset GoldenDataset() {
  TerrainConfig tcfg;
  tcfg.num_nodes = 120;
  tcfg.radio_range_fraction = 0.12;
  auto ds = MakeTerrainDataset(tcfg);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

// Captured from the seed build; FeatureDiameter is pure geometry, but a
// drift here would silently re-seed both golden runs, so it is pinned too.
constexpr double kGoldenDelta = 408.66203056546743;

// Asynchronous explicit ELink under loss, a crash/recovery and a link
// outage, carried by the reliable transport.
ElinkConfig FaultedReliableConfig() {
  ElinkConfig cfg;
  cfg.delta = kGoldenDelta;
  cfg.seed = 77;
  cfg.synchronous = false;
  cfg.fault.drop_probability = 0.15;
  cfg.fault.node_crashes.push_back({7, 40.0, 90.0});
  cfg.fault.link_outages.push_back({3, 11, 5.0, 50.0});
  cfg.reliable_transport = true;
  cfg.reliable.rto = 8.0;
  cfg.reliable.backoff = 1.5;
  cfg.reliable.max_retries = 8;
  cfg.completion_timeout = 450.0;
  return cfg;
}

TEST(DeterminismGoldenTest, FaultedReliableExplicitRunIsBitIdentical) {
  const SensorDataset ds = GoldenDataset();
  ASSERT_DOUBLE_EQ(0.3 * FeatureDiameter(ds), kGoldenDelta);

  auto res = RunElink(ds, FaultedReliableConfig(), ElinkMode::kExplicit);
  ASSERT_TRUE(res.ok());
  const ElinkResult& r = res.value();

  EXPECT_EQ(HashClustering(r.clustering), 1498488352856467774ULL);
  EXPECT_EQ(r.stats.ToString(),
            "sends=5124 units=5124 (ack1=89, ack1.ack=102, ack1.retx=32, "
            "ack2=90, ack2.ack=102, ack2.retx=34, expand=871, "
            "expand.ack=1002, expand.retx=325, nack=767, nack.ack=900, "
            "nack.retx=264, phase1=45, phase1.ack=74, phase1.retx=136, "
            "phase2=17, phase2.ack=28, phase2.retx=30, start=33, "
            "start.ack=71, start.retx=112) dropped=864/864");
  EXPECT_DOUBLE_EQ(r.completion_time, 1800.0);
  EXPECT_EQ(r.total_switches, 0);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.unclustered_nodes, 8);
}

TEST(DeterminismGoldenTest, FaultedReliableExplicitTraceIsBitIdentical) {
  // The same faulted run, traced: every send, relay hop, drop and delivery
  // annotation (with its causal ids) is pinned through one digest of the
  // JSONL export, so a transmit-path change that reorders an emission or a
  // causal-id draw shows up here even when the ledger above still matches.
  const SensorDataset ds = GoldenDataset();
  obs::Tracer tracer(1 << 15);  // ~17k events recorded.
  ElinkConfig cfg = FaultedReliableConfig();
  cfg.observer = &tracer;
  auto res = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(tracer.overwritten(), 0u);  // The digest covers the whole run.

  const std::string jsonl = tracer.ExportJsonl();
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : jsonl) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  EXPECT_EQ(h, 2082673757583193874ULL);
}

TEST(DeterminismGoldenTest, CleanAsynchronousExplicitRunIsBitIdentical) {
  const SensorDataset ds = GoldenDataset();

  ElinkConfig cfg;
  cfg.delta = kGoldenDelta;
  cfg.seed = 77;
  cfg.synchronous = false;
  auto res = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(res.ok());
  const ElinkResult& r = res.value();

  EXPECT_EQ(HashClustering(r.clustering), 5438894716173134638ULL);
  EXPECT_EQ(r.stats.ToString(),
            "sends=3213 units=3213 (ack1=105, ack2=105, expand=1059, "
            "nack=954, phase1=495, phase2=332, start=163)");
  EXPECT_DOUBLE_EQ(r.completion_time, 153.51833153945844);
  EXPECT_EQ(r.total_switches, 0);
}

TEST(ParallelTrialRunnerTest, RunsEveryTrialExactlyOnce) {
  bench::ParallelTrialRunner runner(8);
  std::vector<int> hits(100, 0);
  runner.Run(static_cast<int>(hits.size()), [&hits](int i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);

  // Degenerate shapes: empty batch, single trial, more threads than trials.
  runner.Run(0, [](int) { FAIL() << "no trials to run"; });
  int single = 0;
  bench::ParallelTrialRunner wide(16);
  wide.Run(1, [&single](int) { ++single; });
  EXPECT_EQ(single, 1);
}

TEST(ParallelTrialRunnerTest, TrialsUnderThreadsMatchSerialBits) {
  const SensorDataset ds = GoldenDataset();
  auto run_hash = [&ds](uint64_t seed) {
    ElinkConfig cfg;
    cfg.delta = kGoldenDelta;
    cfg.seed = seed;
    cfg.synchronous = false;
    auto res = RunElink(ds, cfg, ElinkMode::kExplicit);
    EXPECT_TRUE(res.ok());
    return HashClustering(res.value().clustering);
  };

  const std::vector<uint64_t> seeds = {1, 2, 3, 77, 91, 104};
  std::vector<uint64_t> serial(seeds.size()), parallel(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) serial[i] = run_hash(seeds[i]);
  bench::ParallelTrialRunner runner(4);
  runner.Run(static_cast<int>(seeds.size()),
             [&](int i) { parallel[i] = run_hash(seeds[i]); });
  EXPECT_EQ(parallel, serial);
}

// ---------------------------------------------------------------------------
// Serving-layer replay determinism: a single-threaded serve replay (clients
// interleaved round-robin with maintenance publishes) digests to the same
// pinned bits on every run, through the cache or straight from the pinned
// view, and whether the replay runs serially or inside bench worker threads.
// Wall-clock latency deliberately never enters the digest — timing lives in
// bench/perf_serve.cc only.

/// Replays the seed's workload.  `through_cache` serves every read through
/// the frontend; otherwise each read is answered by ReadView::Range /
/// SafePath on the current view, the uncached reference.  `counters`, when
/// set, receives the frontend's counters at the end of the replay.
uint64_t ServeReplayDigest(const SensorDataset& ds, uint64_t seed,
                           bool through_cache,
                           serve::ServeCounters* counters = nullptr) {
  ClusteredSensorNetwork::Options opts;
  opts.delta = kGoldenDelta;
  opts.seed = 5;
  auto net = std::move(ClusteredSensorNetwork::Build(ds, opts)).value();
  serve::ServeFrontend::Options fopt;
  fopt.cache.capacity_per_shard = 8;  // Evictions are part of the replay.
  serve::ServeSession session(net.get(), fopt);
  serve::ServeFrontend& frontend = session.frontend();

  serve::WorkloadConfig wcfg;
  wcfg.num_clients = 2;
  wcfg.ops_per_client = 30;
  wcfg.predicate_pool = 10;
  serve::WorkloadGenerator gen(ds.features, ds.topology.num_nodes(), wcfg,
                               seed);
  uint64_t h = 1469598103934665603ULL;
  Rng rng(seed);
  for (int round = 0; round < 3; ++round) {
    for (int client = 0; client < wcfg.num_clients; ++client) {
      for (const serve::WorkloadOp& op : gen.ClientOps(client)) {
        if (op.is_range) {
          h = serve::DigestRange(
              h, through_cache
                     ? frontend.Range(op.feature, op.scalar).answer
                     : frontend.View()->Range(op.feature, op.scalar));
        } else {
          h = serve::DigestPath(
              h, through_cache
                     ? frontend
                           .SafePath(op.source, op.destination, op.feature,
                                     op.scalar)
                           .answer
                     : frontend.View()->SafePath(op.source, op.destination,
                                                 op.feature, op.scalar));
        }
      }
    }
    const int node = static_cast<int>(rng.UniformInt(120));
    Feature f = net->feature(node);
    f[0] += rng.Uniform(-5.0, 5.0);
    session.UpdateFeatureAndPublish(node, f);
  }
  if (counters != nullptr) *counters = frontend.Counters();
  return h;
}

// Served-answer goldens: recorded while views still answered through the
// backbone-routed engines, so they pin that the exact scan path serves the
// same bytes.  Any served range or path id that moves changes a digest.
constexpr uint64_t kGoldenServeDigestSeed17 = 6348521719372856709ULL;
const std::vector<uint64_t> kGoldenServeDigestSeeds567 = {
    3243591939457380998ULL, 15839266960782143684ULL, 7784704872524771893ULL};

TEST(ServeDeterminismTest, ReplayBitsMatchAcrossRunsAndCacheModes) {
  const SensorDataset ds = GoldenDataset();
  serve::ServeCounters counters;
  const uint64_t cached =
      ServeReplayDigest(ds, 17, /*through_cache=*/true, &counters);
  const uint64_t cached_again =
      ServeReplayDigest(ds, 17, /*through_cache=*/true);
  const uint64_t uncached = ServeReplayDigest(ds, 17, /*through_cache=*/false);
  EXPECT_EQ(cached, cached_again);
  // Coherence in digest form: caching must never change a served answer.
  EXPECT_EQ(cached, uncached);
  EXPECT_EQ(cached, kGoldenServeDigestSeed17);
  EXPECT_EQ(uncached, kGoldenServeDigestSeed17);
  // The cache's ledger of the same replay, recorded while the cache was
  // keyed by a per-cluster epoch vector: keying it by the view version
  // serves, sweeps and evicts exactly the same entries.
  EXPECT_EQ(counters.cache.hits, 138u);
  EXPECT_EQ(counters.cache.misses, 42u);
  EXPECT_EQ(counters.cache.insertions, 42u);
  EXPECT_EQ(counters.cache.invalidated, 42u);
  EXPECT_EQ(counters.cache.stale_evictions, 0u);
  EXPECT_EQ(counters.cache.capacity_evictions, 0u);
  EXPECT_EQ(counters.epoch_bumps, 3u);
  EXPECT_EQ(counters.views_built, 4u);
}

TEST(ServeDeterminismTest, ReplayBitsMatchUnderBenchThreads) {
  const SensorDataset ds = GoldenDataset();
  const std::vector<uint64_t> seeds = {5, 6, 7};
  std::vector<uint64_t> serial(seeds.size()), parallel(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    serial[i] = ServeReplayDigest(ds, seeds[i], true);
  }
  bench::ParallelTrialRunner runner(3);
  runner.Run(static_cast<int>(seeds.size()), [&](int i) {
    parallel[i] = ServeReplayDigest(ds, seeds[i], true);
  });
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(serial, kGoldenServeDigestSeeds567);
}

}  // namespace
}  // namespace elink
