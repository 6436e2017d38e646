#include "check/runner.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "check/causal.h"
#include "check/conservation.h"
#include "check/invariants.h"
#include "cluster/elink.h"
#include "cluster/maintenance.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "common/strings.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "index/range_query.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "proto/wire.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "sim/graph.h"

namespace elink {
namespace check {

namespace {

// Workload streams, disjoint from the scenario's aspect streams (1-5 in
// scenario.cc): the update and query batches are part of the trial but not
// of the Scenario struct, so they fork their own sub-streams of the seed.
constexpr uint64_t kUpdateStream = 16;
constexpr uint64_t kRangeQueryStream = 17;
constexpr uint64_t kPathQueryStream = 18;
constexpr uint64_t kUpdateTimeStream = 19;
constexpr uint64_t kWireFuzzStream = 20;
constexpr uint64_t kServeQueryStream = 21;

// Trace-ring capacity for the causal cross-check.  Fuzz scenarios are small
// (tens of nodes), so the ring virtually never wraps; when a pathological
// seed does wrap it, CheckCausalGraph degrades to structural checks only.
constexpr size_t kCausalTraceCapacity = 1 << 17;

void Add(CheckOutcome* out, const char* checkname, std::string detail) {
  out->violations.push_back(CheckViolation{checkname, std::move(detail)});
}

void AddIfBad(CheckOutcome* out, const char* checkname, const Status& s) {
  if (!s.ok()) Add(out, checkname, s.ToString());
}

// The fault-tolerance tunings the repo's robustness bench validated: the
// retransmit span stays inside ELink's completion watchdog, and the query
// deadlines clear the longest routed leg's retransmissions.
void TuneElinkForFaults(const Scenario& s, ElinkConfig* cfg) {
  if (!s.fault.enabled()) return;
  if (s.reliable) {
    cfg->reliable_transport = true;
    cfg->reliable.rto = 8.0;
    cfg->reliable.backoff = 1.5;
    cfg->reliable.max_retries = 8;
  }
  cfg->completion_timeout = 450.0;
}

void TuneQueryForFaults(const Scenario& s,
                        DistributedRangeQuery::ProtocolOptions* opt) {
  if (!s.fault.enabled()) return;
  opt->node_deadline = 2500.0;
  opt->query_deadline = 30000.0;
  if (s.reliable) {
    opt->reliable_transport = true;
    opt->reliable.rto = 40.0;
    opt->reliable.backoff = 1.5;
    opt->reliable.max_retries = 10;
  }
}

// The fault-free world (clustering + trees + index + backbone) that the
// maintenance and query trials start from.  Built with explicit-mode ELink
// on a synchronous fault-free network — the configuration whose completion
// is unconditional.  Returns nullopt after recording a violation.
struct World {
  Clustering clustering;
  std::vector<int> tree_parent;
  std::optional<ClusterIndex> index;
  std::optional<Backbone> backbone;
};

std::optional<World> BuildWorld(const Scenario& s, CheckOutcome* out) {
  ElinkConfig cfg;
  cfg.delta = s.delta;
  cfg.slack = s.slack;
  cfg.synchronous = true;
  cfg.seed = s.seed;
  Result<ElinkResult> r =
      RunElink(s.topology, s.features, *s.metric, cfg, ElinkMode::kExplicit);
  if (!r.ok()) {
    Add(out, "world_build", r.status().ToString());
    return std::nullopt;
  }
  World w;
  w.clustering = std::move(r).value().clustering;
  w.tree_parent = BuildClusterTrees(w.clustering, s.topology.adjacency);
  w.index = ClusterIndex::Build(w.clustering, w.tree_parent, s.features,
                                *s.metric);
  w.backbone = Backbone::Build(w.clustering, s.topology.adjacency, nullptr,
                               &s.features, s.metric.get());
  return w;
}

// ---------------------------------------------------------------------------
// Wire-format frame-mutation sweep (the `wirefuzz` knob).
//
// Per scenario: a batch of randomized messages, each proven to (a) round-trip
// encode -> frame -> CRC -> decode exactly, (b) reject truncation at every
// byte offset, (c) reject a bit flip at every byte offset (CRC32 detects all
// bursts shorter than 32 bits, and flips outside the CRC span hit the magic
// or the stored CRC, so rejection is deterministic — never flaky), and
// (d) reject non-magic garbage without crashing.

Message RandomWireMessage(Rng* rng) {
  Message m;
  m.type = static_cast<int>(rng->UniformInt(2000));
  const int nints = static_cast<int>(rng->UniformInt(13));
  for (int i = 0; i < nints; ++i) {
    switch (rng->UniformInt(4)) {
      case 0:  // Near-zero ids/levels, the common protocol case.
        m.ints.push_back(static_cast<long long>(rng->UniformInt(128)) - 16);
        break;
      case 1:  // Mid-range values with both signs.
        m.ints.push_back(rng->UniformIntRange(-1'000'000, 1'000'000));
        break;
      case 2:  // Full 64-bit patterns: exercises varint length 10 and the
               // delta decoder's wrapping arithmetic.
        m.ints.push_back(static_cast<long long>(rng->Next()));
        break;
      default:  // The extremes themselves.
        m.ints.push_back(rng->Bernoulli(0.5) ? INT64_MAX : INT64_MIN);
        break;
    }
  }
  const int ndoubles = static_cast<int>(rng->UniformInt(9));
  for (int i = 0; i < ndoubles; ++i) {
    m.doubles.push_back(rng->Bernoulli(0.9) ? rng->Uniform(-1e6, 1e6)
                                            : rng->Uniform(-1e-300, 1e-300));
  }
  if (rng->Bernoulli(0.5)) {
    m.rel_seq = static_cast<long long>(rng->UniformInt(1 << 20));
    m.rel_from = static_cast<int>(rng->UniformInt(4096));
    m.rel_ack = rng->Bernoulli(0.3);
  }
  return m;
}

bool SameWirePayload(const Message& a, const Message& b) {
  if (a.type != b.type || a.ints != b.ints || a.rel_seq != b.rel_seq ||
      a.rel_from != b.rel_from || a.rel_ack != b.rel_ack) {
    return false;
  }
  // Bitwise double comparison: -0.0 vs 0.0 or a mangled NaN payload must
  // count as corruption even though operator== would wave them through.
  if (a.doubles.size() != b.doubles.size()) return false;
  return a.doubles.empty() ||
         std::memcmp(a.doubles.data(), b.doubles.data(),
                     a.doubles.size() * sizeof(double)) == 0;
}

void RunWireFuzzPass(uint64_t seed, CheckOutcome* out) {
  Rng rng = Rng(seed).Fork(kWireFuzzStream);
  constexpr int kMessages = 48;
  for (int i = 0; i < kMessages; ++i) {
    const Message msg = RandomWireMessage(&rng);
    const std::vector<uint8_t> frame = wire::EncodeFrame(msg);
    if (frame.size() != wire::FrameSize(msg)) {
      Add(out, "wirefuzz",
          StringPrintf("message %d: FrameSize says %zu, encoder emitted %zu",
                       i, wire::FrameSize(msg), frame.size()));
      continue;
    }
    Result<Message> decoded = wire::DecodeFrame(frame);
    if (!decoded.ok()) {
      Add(out, "wirefuzz",
          StringPrintf("message %d: round-trip decode failed: %s", i,
                       decoded.status().ToString().c_str()));
      continue;
    }
    if (!SameWirePayload(msg, *decoded)) {
      Add(out, "wirefuzz",
          StringPrintf("message %d: round-trip changed the payload", i));
      continue;
    }
    // Truncation at every byte offset must reject.
    for (size_t len = 0; len < frame.size(); ++len) {
      if (wire::DecodeFrame(frame.data(), len).ok()) {
        Add(out, "wirefuzz",
            StringPrintf("message %d: truncation to %zu bytes decoded", i,
                         len));
        break;
      }
    }
    // A single flipped bit at every byte offset must reject.
    std::vector<uint8_t> mutated = frame;
    for (size_t off = 0; off < mutated.size(); ++off) {
      const uint8_t bit = static_cast<uint8_t>(1u << rng.UniformInt(8));
      mutated[off] ^= bit;
      if (wire::DecodeFrame(mutated).ok()) {
        Add(out, "wirefuzz",
            StringPrintf("message %d: bit flip at byte %zu decoded", i, off));
      }
      mutated[off] ^= bit;  // Restore for the next offset.
    }
    // Non-magic garbage must reject without crashing.
    std::vector<uint8_t> garbage(rng.UniformInt(64) + 1);
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.Next());
    if (garbage[0] == wire::kFrameMagic) garbage[0] ^= 0xFF;
    if (wire::DecodeFrame(garbage).ok()) {
      Add(out, "wirefuzz",
          StringPrintf("message %d: non-magic garbage decoded", i));
    }
  }
}

// Appends the run's report to the trial artifacts (no-op without a sink).
void CollectReport(TrialArtifacts* artifacts, const obs::RunTelemetry& tele,
                   const char* protocol, uint64_t seed,
                   const MessageStats& stats) {
  if (artifacts == nullptr) return;
  artifacts->reports.push_back(tele.MakeReport(protocol, seed, stats).ToJson());
}

void RunElinkTrial(const Scenario& s, CheckOutcome* out,
                   TrialArtifacts* artifacts) {
  ConservationLedger ledger;
  obs::RunTelemetry tele;
  ledger.set_next(&tele);
  obs::Tracer tracer(kCausalTraceCapacity);
  if (s.knobs.causal) tele.set_next(&tracer);

  ElinkConfig cfg;
  cfg.delta = s.delta;
  cfg.slack = s.slack;
  cfg.synchronous = s.synchronous;
  cfg.seed = s.seed;
  cfg.fault = s.fault;
  cfg.observer = &ledger;
  TuneElinkForFaults(s, &cfg);

  Result<ElinkResult> r =
      RunElink(s.topology, s.features, *s.metric, cfg, s.elink_mode);
  if (!r.ok()) {
    Add(out, "elink_run", r.status().ToString());
    return;
  }
  const ElinkResult& res = r.value();
  // The RunElink contract: the output is a valid delta-clustering even on
  // degraded (watchdog-cut) runs — Definition 1, via Lemma 1's delta/2 join
  // rule plus the connectivity repair.
  AddIfBad(out, "delta_clustering",
           CheckDeltaClustering(res.clustering, s.topology.adjacency,
                                s.features, *s.metric, s.delta));
  if (!s.fault.enabled()) {
    if (!res.completed) {
      Add(out, "elink_completed", "fault-free run reported completed=false");
    }
    if (res.unclustered_nodes != 0) {
      Add(out, "elink_unclustered",
          StringPrintf("fault-free run left %d node(s) unclustered",
                       res.unclustered_nodes));
    }
  }
  AddIfBad(out, "conservation",
           CheckConservation(ledger, res.stats, /*drained=*/true));
  AddIfBad(out, "byte_conservation",
           CheckByteConservation(ledger, res.stats));
  AddIfBad(out, "telemetry",
           CheckTelemetryConsistency(ledger, tele.metrics()));
  if (s.knobs.causal) {
    AddIfBad(out, "causal", CheckCausalGraph(tracer, res.stats));
  }
  CollectReport(artifacts, tele, "elink", s.seed, res.stats);
}

// ---------------------------------------------------------------------------
// Serve-coherence pass (the `serve` knob).
//
// A MaintenanceServeDriver rides along the maintenance trial: the protocol's
// epoch-bump hook feeds its cache invalidation, and at every publish point
// each client replays a pooled (Zipf-skewed, so hits occur) query batch.
// Every served answer — cache hit or miss — must (a) byte-equal a fresh
// recomputation on the published view, (b) equal the exact linear-scan/BFS
// oracles over the view's live state, and (c) when it came from the cache,
// have been computed on the *current* view's version (a stale hit is the
// coherence failure mode this pass exists to catch).  Purely observational:
// the pass draws from its own stream and never injects protocol activity,
// so enabling/disabling it cannot reshuffle the maintenance trial.

void CheckServedBatch(const Scenario& s, serve::MaintenanceServeDriver* driver,
                      const serve::WorkloadGenerator& gen, int round,
                      CheckOutcome* out) {
  std::shared_ptr<const serve::ReadView> view = driver->frontend().View();
  // original id -> compact id on the served view, for oracle remapping.
  std::vector<int> remap(s.topology.num_nodes(), -1);
  for (int c = 0; c < view->num_live(); ++c) remap[view->original_id(c)] = c;

  for (int client = 0; client < s.serve_clients; ++client) {
    const std::vector<serve::WorkloadOp> ops = gen.ClientOps(client);
    for (size_t k = 0; k < ops.size(); ++k) {
      const serve::WorkloadOp& op = ops[k];
      const auto where = [&] {
        return StringPrintf("round %d client %d op %zu (%s)", round, client,
                            k, s.Describe().c_str());
      };
      if (op.is_range) {
        const serve::ServedRange served =
            driver->frontend().Range(op.feature, op.scalar);
        const serve::RangeAnswer fresh = view->Range(op.feature, op.scalar);
        if (!(served.answer == fresh)) {
          Add(out, "serve_coherence",
              StringPrintf("%s: served range answer (%zu matches, cached=%d) "
                           "!= fresh recomputation (%zu)",
                           where().c_str(), served.answer.matches.size(),
                           served.from_cache ? 1 : 0, fresh.matches.size()));
        }
        std::vector<int> oracle = RangeOracle(
            view->compact_features(), *s.metric, op.feature, op.scalar);
        for (int& id : oracle) id = view->original_id(id);
        if (served.answer.matches != oracle) {
          Add(out, "serve_oracle",
              StringPrintf("%s: served range answer (%zu) != linear-scan "
                           "oracle (%zu)",
                           where().c_str(), served.answer.matches.size(),
                           oracle.size()));
        }
        if (served.from_cache && served.answer_version != view->version()) {
          Add(out, "serve_stale_hit",
              StringPrintf("%s: cache hit computed on view %llu, served on "
                           "view %llu",
                           where().c_str(),
                           static_cast<unsigned long long>(
                               served.answer_version),
                           static_cast<unsigned long long>(view->version())));
        }
      } else {
        const serve::ServedPath served = driver->frontend().SafePath(
            op.source, op.destination, op.feature, op.scalar);
        const serve::PathAnswer fresh = view->SafePath(
            op.source, op.destination, op.feature, op.scalar);
        if (!(served.answer == fresh)) {
          Add(out, "serve_coherence",
              StringPrintf("%s: served path answer (found=%d, cached=%d) != "
                           "fresh recomputation (found=%d)",
                           where().c_str(), served.answer.found ? 1 : 0,
                           served.from_cache ? 1 : 0, fresh.found ? 1 : 0));
        }
        const bool endpoints_live =
            view->node_live(op.source) && view->node_live(op.destination);
        const bool oracle_found =
            endpoints_live &&
            SafePathExists(view->compact_adjacency(),
                           view->compact_features(), *s.metric, op.feature,
                           op.scalar, remap[op.source],
                           remap[op.destination]);
        if (served.answer.found != oracle_found) {
          Add(out, "serve_oracle",
              StringPrintf("%s: served path found=%d but BFS oracle says %d",
                           where().c_str(), served.answer.found ? 1 : 0,
                           oracle_found ? 1 : 0));
        }
        if (served.answer.found) {
          // Soundness of the returned path on the served live state.
          const std::vector<int>& p = served.answer.path;
          bool sound = p.front() == op.source && p.back() == op.destination;
          for (size_t i = 0; sound && i < p.size(); ++i) {
            if (!view->node_live(p[i]) ||
                !NodeIsSafe(view->compact_features()[remap[p[i]]], *s.metric,
                            op.feature, op.scalar)) {
              sound = false;
            }
            if (sound && i + 1 < p.size()) {
              const auto& nbrs = view->compact_adjacency()[remap[p[i]]];
              sound = std::find(nbrs.begin(), nbrs.end(),
                                remap[p[i + 1]]) != nbrs.end();
            }
          }
          if (!sound) {
            Add(out, "serve_oracle",
                StringPrintf("%s: served path is not a safe live walk",
                             where().c_str()));
          }
        }
        if (served.from_cache && served.answer_version != view->version()) {
          Add(out, "serve_stale_hit",
              StringPrintf("%s: cache hit computed on view %llu, served on "
                           "view %llu",
                           where().c_str(),
                           static_cast<unsigned long long>(
                               served.answer_version),
                           static_cast<unsigned long long>(view->version())));
        }
      }
    }
  }
}

void RunMaintenanceTrial(const Scenario& s, CheckOutcome* out,
                         TrialArtifacts* artifacts) {
  std::optional<World> w = BuildWorld(s, out);
  if (!w.has_value()) return;

  MaintenanceConfig mcfg;
  mcfg.delta = s.delta;
  mcfg.slack = s.slack;

  // Maintenance carries no transport/watchdog recovery, so its fault
  // exposure is the message-level classes it is built to survive: loss and
  // truncation.  Crashes and outages stay with the protocols that have
  // deadlines or watchdogs.
  FaultPlan plan;
  plan.drop_probability = s.fault.drop_probability;
  plan.truncate_probability = s.fault.truncate_probability;

  DistributedMaintenance dm(s.topology, w->clustering, s.features, s.metric,
                            mcfg, s.synchronous, s.seed, plan, s.churn);
  ConservationLedger ledger;
  obs::RunTelemetry tele;
  ledger.set_next(&tele);
  obs::Tracer tracer(kCausalTraceCapacity);
  if (s.knobs.causal) tele.set_next(&tracer);
  dm.set_observer(&ledger);

  const int n = s.topology.num_nodes();
  const int dim = s.feature_dim;
  const bool churny = s.churn.enabled();

  // The serve pass rides along, publishing snapshots between protocol
  // activity; it never injects updates or messages of its own.
  std::unique_ptr<serve::MaintenanceServeDriver> driver;
  std::unique_ptr<serve::WorkloadGenerator> serve_gen;
  int serve_round = 0;
  if (s.serve_enabled) {
    serve::ServeFrontend::Options fopt;
    fopt.cache.shards = 4;
    fopt.cache.capacity_per_shard = s.serve_cache_capacity;
    driver = std::make_unique<serve::MaintenanceServeDriver>(&dm, s.metric,
                                                             fopt);
    serve::WorkloadConfig wcfg;
    wcfg.num_clients = s.serve_clients;
    wcfg.ops_per_client = s.serve_ops;
    wcfg.range_fraction = s.serve_range_fraction;
    wcfg.predicate_pool = s.serve_pool;
    wcfg.zipf_s = s.serve_zipf;
    wcfg.unique_fraction = 0.15;
    serve_gen = std::make_unique<serve::WorkloadGenerator>(
        s.features, n, wcfg, Rng(s.seed).Fork(kServeQueryStream).Next());
    CheckServedBatch(s, driver.get(), *serve_gen, serve_round++, out);
  }
  // The fire front's correlated shifts land at the times the front passes,
  // interleaved with the crashes it causes.
  for (const TimedUpdate& u : s.scheduled_updates) {
    dm.ScheduleUpdate(u.at, u.node, u.feature);
  }
  Rng urng = Rng(s.seed).Fork(kUpdateStream);
  // Schedule times come from their own stream so churn-free trials replay
  // exactly the workload the pre-churn sweeps pinned down.
  Rng trng = Rng(s.seed).Fork(kUpdateTimeStream);
  for (int u = 0; u < s.num_updates; ++u) {
    const int node = static_cast<int>(urng.UniformInt(n));
    Feature f = dm.CurrentFeatures()[node];
    if (urng.Bernoulli(0.7)) {
      // Small drift, scaled so the A1-A3 absorption conditions actually
      // trigger when slack is on.
      const double span = s.slack > 0.0 ? s.slack : 0.1 * s.delta;
      for (int k = 0; k < dim; ++k) f[k] += urng.Uniform(-span, span);
    } else {
      // A jump toward another node's feature: provokes escalation, detach,
      // and re-merge.
      const Feature& target = s.features[urng.UniformInt(n)];
      for (int k = 0; k < dim; ++k) {
        f[k] = target[k] + urng.Uniform(-0.1, 0.1) * s.delta;
      }
    }
    // Drawn for every update so disabling churn never reshuffles the
    // stream; only churny trials use it.
    const double at = trng.Uniform(1.0, 100.0);
    if (churny) {
      // Updates must race the churn events, so they are spread across the
      // churn window and drained in one run instead of each being applied
      // (and fully quiesced) before the clock reaches any churn.
      dm.ScheduleUpdate(at, node, f);
    } else {
      const Status st = dm.ApplyUpdate(node, f);
      if (!st.ok()) {
        // A capped run leaves the session mid-flight: no later check of its
        // state means anything.
        Add(out, "maintenance_event_cap", st.ToString());
        return;
      }
      // Republish midway so pooled predicates cached on the previous state
      // get invalidated (or stay warm when nothing drifted far enough to
      // re-cluster) and the batch re-checks them on the new view.
      if (driver && u == s.num_updates / 2) {
        driver->Publish();
        CheckServedBatch(s, driver.get(), *serve_gen, serve_round++, out);
      }
    }
  }
  const Status drained = dm.RunToQuiescence();
  if (!drained.ok()) {
    Add(out, "maintenance_event_cap", drained.ToString());
    return;
  }
  if (driver) {
    driver->Publish();
    CheckServedBatch(s, driver.get(), *serve_gen, serve_round++, out);
  }

  // Correctness of the maintained state is only guaranteed when nothing was
  // *silently* lost: fault drops and mangled messages void the warranty,
  // while churn drops are announced topology changes the self-healing layer
  // is built to absorb.  Conservation holds regardless.
  if (dm.stats().dropped_sends() == dm.churn_drops() &&
      dm.stats().decode_errors() == 0) {
    const Clustering c = dm.CurrentClustering();
    AddIfBad(out, "maintenance_invariant",
             dm.ValidateRootDistanceInvariant(s.delta + 2.0 * s.slack));
    if (!churny) {
      AddIfBad(out, "maintenance_assignments", CheckClusterAssignments(c, n));
    } else {
      // Departed nodes keep their last (stale) assignment, so the full-view
      // check does not apply; the live view must be self-consistent.
      const std::vector<char> live = dm.LiveMask();
      std::map<int, std::vector<char>> members;  // root -> live member mask.
      for (int i = 0; i < n; ++i) {
        if (!live[i]) continue;
        const int r = c.root_of[i];
        if (r < 0 || r >= n) {
          Add(out, "maintenance_assignments",
              StringPrintf("present node %d has out-of-range root %d", i, r));
          continue;
        }
        if (live[r] && c.root_of[r] != r) {
          Add(out, "maintenance_assignments",
              StringPrintf("present node %d's root %d is not self-rooted "
                           "(root_of[%d] = %d)",
                           i, r, r, c.root_of[r]));
        }
        auto [it, inserted] = members.emplace(r, std::vector<char>());
        if (inserted) it->second.assign(n, 0);
        it->second[i] = 1;
      }
      // Self-healing convergence: the live members of every maintained
      // cluster stay connected through live radio links.
      const AdjacencyList live_adj = dm.LiveAdjacency();
      for (const auto& [root, mask] : members) {
        if (!IsInducedConnected(live_adj, mask)) {
          Add(out, "maintenance_live_connectivity",
              StringPrintf(
                  "cluster rooted at %d is disconnected on the live topology",
                  root));
        }
      }
    }
  }
  AddIfBad(out, "conservation",
           CheckConservation(ledger, dm.stats(), /*drained=*/true));
  AddIfBad(out, "byte_conservation",
           CheckByteConservation(ledger, dm.stats()));
  AddIfBad(out, "telemetry",
           CheckTelemetryConsistency(ledger, tele.metrics()));
  if (s.knobs.causal) {
    AddIfBad(out, "causal", CheckCausalGraph(tracer, dm.stats()));
  }
  CollectReport(artifacts, tele, "maintenance", s.seed, dm.stats());
}

void RunRangeQueryTrial(const Scenario& s, CheckOutcome* out,
                        TrialArtifacts* artifacts) {
  std::optional<World> w = BuildWorld(s, out);
  if (!w.has_value()) return;
  const int n = s.topology.num_nodes();

  AddIfBad(out, "mtree",
           CheckMTreeInvariants(*w->index, w->clustering, w->tree_parent,
                                s.features, *s.metric));

  RangeQueryEngine engine(w->clustering, *w->index, *w->backbone, s.features,
                          *s.metric, s.delta);
  Rng qrng = Rng(s.seed).Fork(kRangeQueryStream);
  for (int t = 0; t < s.num_queries; ++t) {
    const int initiator = static_cast<int>(qrng.UniformInt(n));
    Feature q = s.features[qrng.UniformInt(n)];
    for (double& v : q) v += qrng.Uniform(-0.3, 0.3) * s.delta;
    const double r = qrng.Uniform(0.2, 1.2) * s.delta;

    const std::vector<int> truth = RangeOracle(s.features, *s.metric, q, r);
    const RangeQueryResult eres = engine.Query(initiator, q, r);
    if (eres.matches != truth) {
      Add(out, "range_engine",
          StringPrintf("query %d: engine found %zu matches, oracle %zu", t,
                       eres.matches.size(), truth.size()));
    }
    if (engine.LinearScan(q, r) != truth) {
      Add(out, "range_scan",
          StringPrintf("query %d: LinearScan disagrees with the oracle", t));
    }

    DistributedRangeQuery::ProtocolOptions qopt;
    qopt.synchronous = s.synchronous;
    qopt.seed = s.seed;
    qopt.fault = s.fault;
    qopt.churn = s.churn;
    TuneQueryForFaults(s, &qopt);
    ConservationLedger ledger;
    obs::RunTelemetry tele;
    ledger.set_next(&tele);
    obs::Tracer tracer(kCausalTraceCapacity);
    if (s.knobs.causal) tele.set_next(&tracer);
    qopt.observer = &ledger;
    DistributedRangeQuery protocol(s.topology, w->clustering, *w->index,
                                   *w->backbone, s.features, s.metric, qopt);
    Result<DistributedQueryOutcome> run = protocol.Run(initiator, q, r);
    if (!run.ok()) {
      Add(out, "range_protocol_run", run.status().ToString());
      continue;
    }
    const DistributedQueryOutcome& o = run.value();
    if (o.answer_received &&
        o.match_count > static_cast<long long>(truth.size())) {
      Add(out, "range_soundness",
          StringPrintf("query %d: match_count %lld exceeds the true %zu", t,
                       o.match_count, truth.size()));
    }
    if (!s.fault.enabled() && !s.churn.enabled()) {
      if (!o.answer_received || !o.complete ||
          o.match_count != static_cast<long long>(truth.size()) ||
          o.unreachable_subtrees != 0) {
        Add(out, "range_exactness",
            StringPrintf("fault-free query %d: match_count %lld vs truth "
                         "%zu (complete=%d answered=%d unreachable=%lld)",
                         t, o.match_count, truth.size(), o.complete ? 1 : 0,
                         o.answer_received ? 1 : 0, o.unreachable_subtrees));
      }
    }
    AddIfBad(out, "conservation",
             CheckConservation(ledger, o.stats, /*drained=*/true));
    AddIfBad(out, "byte_conservation", CheckByteConservation(ledger, o.stats));
    AddIfBad(out, "telemetry",
             CheckTelemetryConsistency(ledger, tele.metrics()));
    if (s.knobs.causal) {
      AddIfBad(out, "causal", CheckCausalGraph(tracer, o.stats));
    }
    CollectReport(artifacts, tele, "range_query", s.seed, o.stats);
  }
}

void RunPathQueryTrial(const Scenario& s, CheckOutcome* out,
                       TrialArtifacts* artifacts) {
  std::optional<World> w = BuildWorld(s, out);
  if (!w.has_value()) return;
  const int n = s.topology.num_nodes();

  PathQueryEngine engine(w->clustering, *w->index, *w->backbone,
                         s.topology.adjacency, s.features, *s.metric,
                         s.delta);
  Rng qrng = Rng(s.seed).Fork(kPathQueryStream);
  for (int t = 0; t < s.num_queries; ++t) {
    const int source = static_cast<int>(qrng.UniformInt(n));
    const int destination = static_cast<int>(qrng.UniformInt(n));
    Feature danger = s.features[qrng.UniformInt(n)];
    for (double& v : danger) v += qrng.Uniform(-0.3, 0.3) * s.delta;
    const double gamma = qrng.Uniform(0.2, 1.0) * s.delta;

    const PathQueryResult eres =
        engine.Query(source, destination, danger, gamma);
    AddIfBad(out, "path_engine",
             CheckPathResult(eres, s.topology.adjacency, s.features,
                             *s.metric, danger, gamma, source, destination,
                             /*require_exact=*/true));
    const PathQueryResult bfs =
        engine.BfsBaseline(source, destination, danger, gamma);
    if (bfs.found != eres.found) {
      Add(out, "path_bfs_parity",
          StringPrintf("query %d: engine found=%d, BFS baseline found=%d", t,
                       eres.found ? 1 : 0, bfs.found ? 1 : 0));
    }
    AddIfBad(out, "path_bfs",
             CheckPathResult(bfs, s.topology.adjacency, s.features, *s.metric,
                             danger, gamma, source, destination,
                             /*require_exact=*/true));

    PathProtocolOptions popt;
    popt.synchronous = s.synchronous;
    popt.seed = s.seed;
    popt.fault = s.fault;
    popt.churn = s.churn;
    ConservationLedger ledger;
    obs::RunTelemetry tele;
    ledger.set_next(&tele);
    obs::Tracer tracer(kCausalTraceCapacity);
    if (s.knobs.causal) tele.set_next(&tracer);
    popt.observer = &ledger;
    DistributedPathQuery protocol(s.topology, w->clustering, *w->index,
                                  *w->backbone, s.features, s.metric, popt);
    Result<PathQueryResult> run =
        protocol.Run(source, destination, danger, gamma);
    if (!run.ok()) {
      Add(out, "path_protocol_run", run.status().ToString());
      continue;
    }
    AddIfBad(out, "path_protocol",
             CheckPathResult(run.value(), s.topology.adjacency, s.features,
                             *s.metric, danger, gamma, source, destination,
                             /*require_exact=*/!s.fault.enabled() &&
                                 !s.churn.enabled()));
    // "path_search"/"path_trace" are the engine-parity categories the
    // protocol records outside the Network (the classification walk).
    AddIfBad(out, "conservation",
             CheckConservation(ledger, run.value().stats, /*drained=*/true,
                               {"path_search", "path_trace"}));
    AddIfBad(out, "byte_conservation",
             CheckByteConservation(ledger, run.value().stats,
                                   {"path_search", "path_trace"}));
    AddIfBad(out, "telemetry",
             CheckTelemetryConsistency(ledger, tele.metrics()));
    if (s.knobs.causal) {
      // "path_search"/"path_trace" never touch the wire, so the causal
      // graph cannot see them either.
      AddIfBad(out, "causal",
               CheckCausalGraph(tracer, run.value().stats,
                                {"path_search", "path_trace"}));
    }
    CollectReport(artifacts, tele, "path_query", s.seed, run.value().stats);
  }
}

}  // namespace

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kElink:
      return "elink";
    case Protocol::kMaintenance:
      return "maintenance";
    case Protocol::kRangeQuery:
      return "range_query";
    case Protocol::kPathQuery:
      return "path_query";
  }
  return "?";
}

Result<Protocol> ProtocolFromName(const std::string& name) {
  for (const Protocol p : AllProtocols()) {
    if (name == ProtocolName(p)) return p;
  }
  return Status::InvalidArgument(StringPrintf(
      "unknown protocol '%s' (expected elink, maintenance, range_query, "
      "path_query)",
      name.c_str()));
}

const std::vector<Protocol>& AllProtocols() {
  static const std::vector<Protocol> kAll = {
      Protocol::kElink, Protocol::kMaintenance, Protocol::kRangeQuery,
      Protocol::kPathQuery};
  return kAll;
}

std::string CheckOutcome::Summary() const {
  std::string out;
  for (const CheckViolation& v : violations) {
    if (!out.empty()) out += "; ";
    out += v.check + ": " + v.detail;
  }
  return out;
}

CheckOutcome RunScenario(Protocol protocol, uint64_t seed,
                         const ScenarioKnobs& knobs,
                         TrialArtifacts* artifacts) {
  CheckOutcome out;
  Result<Scenario> scenario = MakeScenario(seed, knobs);
  if (!scenario.ok()) {
    Add(&out, "scenario", scenario.status().ToString());
    return out;
  }
  out.scenario = std::move(scenario).value();
  switch (protocol) {
    case Protocol::kElink:
      RunElinkTrial(out.scenario, &out, artifacts);
      break;
    case Protocol::kMaintenance:
      RunMaintenanceTrial(out.scenario, &out, artifacts);
      break;
    case Protocol::kRangeQuery:
      RunRangeQueryTrial(out.scenario, &out, artifacts);
      break;
    case Protocol::kPathQuery:
      RunPathQueryTrial(out.scenario, &out, artifacts);
      break;
  }
  if (knobs.wirefuzz) RunWireFuzzPass(seed, &out);
  return out;
}

ScenarioKnobs ShrinkFailure(Protocol protocol, uint64_t seed,
                            const ScenarioKnobs& start) {
  ScenarioKnobs current = start;
  const std::vector<bool ScenarioKnobs::*> order = {
      &ScenarioKnobs::faults,   &ScenarioKnobs::churn,
      &ScenarioKnobs::async,    &ScenarioKnobs::reliable,
      &ScenarioKnobs::slack,    &ScenarioKnobs::features,
      &ScenarioKnobs::random_topology, &ScenarioKnobs::wirefuzz,
      &ScenarioKnobs::causal,   &ScenarioKnobs::serve,
  };
  for (const auto member : order) {
    if (!(current.*member)) continue;
    ScenarioKnobs trial = current;
    trial.*member = false;
    if (!RunScenario(protocol, seed, trial).ok()) current = trial;
  }
  return current;
}

}  // namespace check
}  // namespace elink
