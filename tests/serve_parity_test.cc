// Serve coherence under real concurrency: 100+ fuzzed scenarios in which
// client threads hammer a ServeFrontend while the maintenance protocol
// (with churn, faults, and feature updates) publishes state changes
// underneath them.
//
// Every published view is logged by its epoch signature (epochs are
// monotone per cluster, so signatures never recur across distinct states).
// After the threads join, every served answer — cache hit or miss — is
// checked against
//   (a) a fresh recomputation on the exact view it was served from,
//   (b) the exact linear-scan / BFS oracles over that view's live state,
//   (c) for cache hits, the requirement that the carried epoch vector was
//       current at serve time (a stale hit is the coherence failure).
// Failures print the scenario seed and the offending op for reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "check/invariants.h"
#include "check/scenario.h"
#include "cluster/elink.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "serve/session.h"
#include "serve/workload.h"

namespace elink {
namespace serve {
namespace {

using check::MakeScenario;
using check::NodeIsSafe;
using check::RangeOracle;
using check::SafePathExists;
using check::Scenario;

constexpr int kScenarios = 100;

struct ServedOp {
  WorkloadOp op;
  int client = 0;
  int index = 0;
  bool is_range = true;
  RangeAnswer range;
  PathAnswer path;
  bool from_cache = false;
  uint64_t signature = 0;
  EpochVector epochs;
};

// Thread-safe signature -> published-view log.  The writer records every
// view right after Publish; shared_ptrs keep superseded views alive for the
// post-hoc audit.
class ViewLog {
 public:
  void Record(std::shared_ptr<const ReadView> view) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = views_.emplace(view->epoch_signature(), view);
    if (!inserted) {
      // Same signature must mean the same published state (no-op publish).
      ASSERT_EQ(it->second->version(), view->version())
          << "epoch signature collision between distinct views";
    }
  }

  std::shared_ptr<const ReadView> Find(uint64_t signature) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = views_.find(signature);
    return it == views_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const ReadView>> views_;
};

// The fault-free initial clustering, as the fuzz runner builds it.
Clustering InitialClustering(const Scenario& s) {
  ElinkConfig cfg;
  cfg.delta = s.delta;
  cfg.slack = s.slack;
  cfg.synchronous = true;
  cfg.seed = s.seed;
  auto r = RunElink(s.topology, s.features, *s.metric, cfg,
                    ElinkMode::kExplicit);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value().clustering;
}

void AuditAnswer(const Scenario& s, const ViewLog& log, const ServedOp& rec) {
  SCOPED_TRACE(testing::Message()
               << "repro: seed=" << s.seed << " client=" << rec.client
               << " op=" << rec.index
               << (rec.is_range ? " range r=" : " path gamma=")
               << rec.op.scalar << " src=" << rec.op.source
               << " dst=" << rec.op.destination
               << " cached=" << rec.from_cache << " sig=" << rec.signature);
  std::shared_ptr<const ReadView> view = log.Find(rec.signature);
  ASSERT_NE(view, nullptr) << "answer served from an unlogged view";
  if (rec.from_cache) {
    EXPECT_EQ(rec.epochs, view->epochs())
        << "stale hit: cached epoch vector was not current at serve time";
  }
  std::vector<int> remap(s.topology.num_nodes(), -1);
  for (int c = 0; c < view->num_live(); ++c) {
    remap[view->original_id(c)] = c;
  }
  if (rec.is_range) {
    const RangeAnswer fresh = view->Range(rec.op.feature, rec.op.scalar);
    EXPECT_TRUE(rec.range == fresh)
        << "served range answer differs from fresh recomputation at the "
           "served epoch";
    std::vector<int> oracle = RangeOracle(view->compact_features(), *s.metric,
                                          rec.op.feature, rec.op.scalar);
    for (int& id : oracle) id = view->original_id(id);
    EXPECT_EQ(rec.range.matches, oracle)
        << "served range answer differs from the linear-scan oracle";
  } else {
    const PathAnswer fresh = view->SafePath(rec.op.source, rec.op.destination,
                                            rec.op.feature, rec.op.scalar);
    EXPECT_TRUE(rec.path == fresh)
        << "served path answer differs from fresh recomputation at the "
           "served epoch";
    const bool live = view->node_live(rec.op.source) &&
                      view->node_live(rec.op.destination);
    const bool oracle =
        live && SafePathExists(view->compact_adjacency(),
                               view->compact_features(), *s.metric,
                               rec.op.feature, rec.op.scalar,
                               remap[rec.op.source],
                               remap[rec.op.destination]);
    EXPECT_EQ(rec.path.found, oracle)
        << "served path found-ness differs from the BFS oracle";
    if (rec.path.found) {
      const std::vector<int>& p = rec.path.path;
      ASSERT_FALSE(p.empty());
      EXPECT_EQ(p.front(), rec.op.source);
      EXPECT_EQ(p.back(), rec.op.destination);
      for (size_t i = 0; i < p.size(); ++i) {
        ASSERT_TRUE(view->node_live(p[i])) << "path walks absent node";
        EXPECT_TRUE(NodeIsSafe(view->compact_features()[remap[p[i]]],
                               *s.metric, rec.op.feature, rec.op.scalar))
            << "path walks unsafe node " << p[i];
        if (i + 1 < p.size()) {
          const auto& nbrs = view->compact_adjacency()[remap[p[i]]];
          EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), remap[p[i + 1]]) !=
                      nbrs.end())
              << "path hops a non-edge " << p[i] << "->" << p[i + 1];
        }
      }
    } else {
      EXPECT_TRUE(rec.path.path.empty());
    }
  }
}

void RunScenarioWithClients(uint64_t seed) {
  auto sr = MakeScenario(seed);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  const Scenario s = std::move(sr).value();
  const int n = s.topology.num_nodes();
  const Clustering initial = InitialClustering(s);

  MaintenanceConfig mcfg;
  mcfg.delta = s.delta;
  mcfg.slack = s.slack;
  DistributedMaintenance dm(s.topology, initial, s.features, s.metric, mcfg,
                            s.synchronous, s.seed, FaultPlan{}, s.churn);

  ServeFrontend::Options fopt;
  fopt.cache.shards = 4;
  fopt.cache.capacity_per_shard = 32;  // Small enough to force eviction.
  MaintenanceServeDriver driver(&dm, s.metric, fopt);

  ViewLog log;
  log.Record(driver.frontend().View());

  WorkloadConfig wcfg;
  wcfg.num_clients = std::max(2, s.serve_clients);
  wcfg.ops_per_client = std::max(12, s.serve_ops);
  wcfg.range_fraction = s.serve_range_fraction;
  wcfg.predicate_pool = s.serve_pool;
  wcfg.zipf_s = s.serve_zipf;
  wcfg.unique_fraction = 0.1;
  WorkloadGenerator gen(s.features, n, wcfg, seed * 1000003ULL);

  std::vector<std::vector<ServedOp>> recorded(wcfg.num_clients);
  std::atomic<bool> writer_done{false};

  // Client threads: replay their deterministic streams (looping until the
  // writer finishes, so queries overlap every publish) and record each
  // served answer with its provenance.
  std::vector<std::thread> clients;
  clients.reserve(wcfg.num_clients);
  for (int c = 0; c < wcfg.num_clients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<WorkloadOp> ops = gen.ClientOps(c);
      std::vector<ServedOp>& out = recorded[c];
      int pass = 0;
      do {
        for (size_t k = 0; k < ops.size(); ++k) {
          ServedOp rec;
          rec.op = ops[k];
          rec.client = c;
          rec.index = static_cast<int>(k);
          rec.is_range = ops[k].is_range;
          if (ops[k].is_range) {
            const ServedRange sr2 =
                driver.frontend().Range(ops[k].feature, ops[k].scalar);
            rec.range = sr2.answer;
            rec.from_cache = sr2.from_cache;
            rec.signature = sr2.epoch_signature;
            rec.epochs = sr2.epochs;
          } else {
            const ServedPath sp = driver.frontend().SafePath(
                ops[k].source, ops[k].destination, ops[k].feature,
                ops[k].scalar);
            rec.path = sp.answer;
            rec.from_cache = sp.from_cache;
            rec.signature = sp.epoch_signature;
            rec.epochs = sp.epochs;
          }
          out.push_back(std::move(rec));
        }
        ++pass;
      } while (!writer_done.load(std::memory_order_acquire) && pass < 50);
    });
  }

  // Writer thread: the single maintenance driver.  Publishes after every
  // quiescent step.  A client may serve from a view before the writer logs
  // it, but the log is only read after both sides join, so every signature
  // a client recorded is resolvable by then.
  std::thread writer([&] {
    for (const check::TimedUpdate& u : s.scheduled_updates) {
      dm.ScheduleUpdate(u.at, u.node, u.feature);
    }
    Rng urng(seed ^ 0x5EB7E);
    const int dim = s.feature_dim;
    if (s.churn.enabled()) {
      for (int u = 0; u < s.num_updates; ++u) {
        const int node = static_cast<int>(urng.UniformInt(n));
        Feature f = dm.CurrentFeatures()[node];
        for (int k = 0; k < dim; ++k) {
          f[k] += urng.Uniform(-0.2, 0.2) * s.delta;
        }
        dm.ScheduleUpdate(urng.Uniform(1.0, 100.0), node, f);
      }
      driver.RunToQuiescenceAndPublish();
      log.Record(driver.frontend().View());
    } else {
      for (int u = 0; u < s.num_updates; ++u) {
        const int node = static_cast<int>(urng.UniformInt(n));
        Feature f = dm.CurrentFeatures()[node];
        if (urng.Bernoulli(0.5)) {
          for (int k = 0; k < dim; ++k) {
            f[k] += urng.Uniform(-0.15, 0.15) * s.delta;
          }
        } else {
          const Feature& target = s.features[urng.UniformInt(n)];
          for (int k = 0; k < dim; ++k) {
            f[k] = target[k] + urng.Uniform(-0.1, 0.1) * s.delta;
          }
        }
        driver.ApplyUpdateAndPublish(node, f);
        log.Record(driver.frontend().View());
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& t : clients) t.join();

  size_t answers = 0;
  size_t hits = 0;
  for (const auto& per_client : recorded) {
    for (const ServedOp& rec : per_client) {
      AuditAnswer(s, log, rec);
      ++answers;
      if (rec.from_cache) ++hits;
    }
  }
  EXPECT_GT(answers, 0u);
  // Pooled predicates repeat, so a scenario that served more than one full
  // client pass must have produced hits.
  if (answers > 2 * static_cast<size_t>(wcfg.ops_per_client)) {
    EXPECT_GT(hits, 0u) << "no cache hits across " << answers
                        << " pooled queries (seed " << seed << ")";
  }
}

TEST(ServeParityTest, HundredFuzzedScenariosUnderConcurrentMaintenance) {
  for (uint64_t seed = 1; seed <= kScenarios; ++seed) {
    RunScenarioWithClients(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "fatal failure at scenario seed " << seed;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace elink
