// End-to-end benchmark of a whole ELink run, one workload per process.
//
//   e2e_bench --workload pipeline_4k|serve_2500|churn_2500 --seed N
//             [--trace 0|1] [--trace-out FILE] [--tiny] [--inject-wrong-answer]
//
// Every workload does a fixed amount of work (no wall-clock loop decides how
// much), checks every output against an oracle outside the timed region,
// and prints a human-readable report followed by one JSON line holding the
// metrics, the exact-count fingerprint, the attempted/failed operation
// counts and the machine provenance.  perfbench/run.py builds this binary,
// runs it and turns that line into the benchmark's result.
//
// The benchmark calls the library only through public functions of the
// data, cluster, timeseries, index, core and serve modules (plus the oracles
// of check/invariants.h), and takes simulator counts through the public
// SimObserver hook (obs::RunTelemetry), attached only in traced runs.  With
// --trace 1 the benchmark's own code records a span around each of those
// calls; the per-layer metrics come from those spans.
//
// Each deployment is its generator's default instance (MakeSyntheticDataset's
// and MakeTerrainDataset's own seeds), so the run-to-run spread measures the
// program rather than the luck of the topology draw: at 8,000 nodes two
// synthetic seeds differ by 20% in edges and 50% in ELink time.  --seed
// drives everything else: network delays, protocol seeds, query and read
// streams, the writer's updates and the churn plans.
//
// --tiny shrinks every workload to a few hundred nodes so the self-test
// (perfbench/test_perfbench.py) runs in seconds.  --inject-wrong-answer
// corrupts one checked answer before its oracle comparison, to prove that a
// wrong answer is counted as a failed operation.
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "check/invariants.h"
#include "cluster/clustering.h"
#include "cluster/elink.h"
#include "cluster/maintenance_protocol.h"
#include "cluster/quadtree.h"
#include "common/rng.h"
#include "core/clustered_network.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "data/terrain.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "index/range_query.h"
#include "metric/simd.h"
#include "obs/telemetry.h"
#include "serve/frontend.h"
#include "serve/session.h"
#include "serve/workload.h"
#include "sim/graph.h"
#include "timeseries/rls.h"

#include "spans.h"

using namespace elink;
using perfbench::NowNs;
using perfbench::Percentile;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::SpanStats;

namespace {

// Set-up is repeated this many times per run and its median reported, so
// one slow allocation or page-fault burst does not move setup_s.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool tiny = false;
  bool inject_wrong_answer = false;
  std::string trace_out;
};

/// A library call returned an error: the run cannot continue.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T Take(Result<T> r, const char* what) {
  if (!r.ok()) {
    throw BenchError(std::string(what) + ": " + r.status().ToString());
  }
  return std::move(r).value();
}

/// Independent input streams of one run, all derived from --seed.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }


double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t CountEdges(const Topology& topology) {
  uint64_t degree_sum = 0;
  for (const auto& nbrs : topology.adjacency) degree_sum += nbrs.size();
  return degree_sum / 2;
}

uint64_t DigestFeatures(const std::vector<Feature>& features) {
  uint64_t h = 1469598103934665603ULL;
  for (const Feature& f : features) {
    for (double v : f) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 1099511628211ULL;
    }
  }
  return h;
}

std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// (name, value, unit) triples, in print order.
using MetricList = std::vector<std::tuple<std::string, double, std::string>>;

/// Everything one workload run reports.
struct Outcome {
  // End-to-end metrics (name, value, unit), measured with tracing off in
  // untraced runs; run.py forwards them only from untraced runs.
  MetricList e2e;
  // Workload-specific user metrics that only serve_2500 defines; printed in
  // the report and in the JSON line, not gated by the driver.
  MetricList workload;
  // Per-layer metrics from the spans (traced runs only).
  MetricList layers;
  // Exact counts that must repeat bit-for-bit for one seed.  `fingerprint`
  // is observer-free (identical traced and untraced); `telemetry` exists
  // only in traced runs.
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::vector<std::pair<std::string, std::string>> telemetry;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // First few, for the report.
  std::map<std::string, SpanStats> spans;
  std::string threads;
  // Independent sessions (set-up + timed run) per process: run_s is their
  // total, setup_s their median, and span totals are per session.
  int reps = 1;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Count(const std::string& name, uint64_t v) {
    fingerprint.emplace_back(name, std::to_string(v));
  }
  /// Adds one session's counts to the fingerprint, name by name.  The first
  /// `fixed` counts describe the deployment and its initial clustering and
  /// must be equal in every session; the rest are summed.
  void AddCounts(const std::vector<std::pair<std::string, std::string>>& c,
                 size_t fixed) {
    if (fingerprint.empty()) {
      fingerprint = c;
      return;
    }
    for (size_t i = 0; i < c.size(); ++i) {
      const std::string& v = c[i].second;
      std::string& sum = fingerprint[i].second;
      if (i < fixed) {
        if (v != sum) Fail("sessions disagree on " + c[i].first);
      } else {
        sum = v.find_first_of(".e") == std::string::npos
                  ? std::to_string(std::stoull(sum) + std::stoull(v))
                  : ExactDouble(std::stod(sum) + std::stod(v));
      }
    }
  }
};

// -- Per-layer metric helpers ---------------------------------------------

double TotalS(const Outcome& o, const char* name) {
  auto it = o.spans.find(name);
  return it == o.spans.end() ? 0.0 : it->second.total_s / o.reps;
}

double P50(const Outcome& o, const char* name, double scale) {
  auto it = o.spans.find(name);
  return it == o.spans.end() ? 0.0
                             : Percentile(it->second.durations_s, 0.5) * scale;
}

double MaxOf(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, x);
  return m;
}

/// Simulator rates from the telemetry folds (one per session), over the time
/// spent in the spans that drive a Network (per session, like TotalS).
void AddSimLayers(Outcome* o, const std::vector<const obs::RunTelemetry*>& teles,
                  double network_span_s) {
  uint64_t events = 0;
  std::map<std::string, uint64_t> counts;
  for (const obs::RunTelemetry* t : teles) {
    events += t->MakeReport("perfbench", 0, MessageStats()).events;
    for (const char* name : {"sim.sends", "sim.hops", "sim.decode_errors",
                             "phase.maint.epoch"}) {
      counts[name] += t->metrics().counter(name);
    }
  }
  const double sessions = std::max<double>(1.0, teles.size());
  const double sends = counts["sim.sends"] / sessions;
  const double hops = counts["sim.hops"] / sessions;
  o->layers.emplace_back("sim.sends_per_s",
                         network_span_s > 0 ? sends / network_span_s : 0.0,
                         "1/s");
  o->layers.emplace_back("sim.hops_per_send", sends > 0 ? hops / sends : 0.0,
                         "ratio");
  if (teles.empty()) return;
  o->telemetry.emplace_back("sim.events", std::to_string(events));
  for (const auto& [name, v] : counts) {
    o->telemetry.emplace_back(name, std::to_string(v));
  }
}

/// The layer table every workload prints (0 where the layer is not on the
/// workload's path).  Serving metrics are filled in by serve_2500.
void AddCommonLayers(Outcome* o) {
  o->layers.emplace_back("data.generate_s", P50(*o, "data.generate", 1.0),
                         "s");
  o->layers.emplace_back("data.diameter_s", P50(*o, "data.diameter", 1.0),
                         "s");
  o->layers.emplace_back("cluster.quadtree_s", TotalS(*o, "cluster.quadtree"),
                         "s");
  o->layers.emplace_back("cluster.elink_s", TotalS(*o, "cluster.elink"), "s");
  o->layers.emplace_back("cluster.maintenance_s",
                         TotalS(*o, "cluster.maintenance"), "s");
  o->layers.emplace_back("timeseries.rls_s", TotalS(*o, "timeseries.rls"),
                         "s");
  o->layers.emplace_back("index.trees_s", TotalS(*o, "index.trees"), "s");
  o->layers.emplace_back("index.mtree_s", TotalS(*o, "index.mtree"), "s");
  o->layers.emplace_back("index.backbone_s", TotalS(*o, "index.backbone"),
                         "s");
  o->layers.emplace_back("index.range_query_ms",
                         P50(*o, "index.range_query", 1e3), "ms");
  o->layers.emplace_back("index.path_query_ms",
                         P50(*o, "index.path_query", 1e3), "ms");
  o->layers.emplace_back("core.update_ms", P50(*o, "core.update", 1e3), "ms");
  o->layers.emplace_back("serve.publish_ms", P50(*o, "serve.publish", 1e3),
                         "ms");
}

// ===========================================================================
// pipeline_4k: a researcher's whole run at 4,000 nodes, single-threaded,
// five times on the same inputs.  At 8,000 nodes one run took 12-17 s and,
// with two runs per process, run_s still spread by 29% across ten runs on a
// 4-vCPU VM whose speed drifts by up to 40% within minutes; the median of
// five shorter runs rejects a slow stretch.  BFS (routing tables and
// backbone hop tables) still dominates at 4,000 nodes.
// ===========================================================================

/// One timed pipeline on the set-up's deployment, then its oracles.
/// Returns the run's exact counts; `run_s` and `rss_mb` get one entry.
std::vector<std::pair<std::string, std::string>> PipelineOnce(
    const Args& args, const SensorDataset& ds, double delta, bool inject,
    SpanLog* log, obs::RunTelemetry* tele, std::vector<double>* run_s,
    std::vector<double>* rss_mb, Outcome* out) {
  const int n = ds.topology.num_nodes();
  const int queries_per_kind = args.tiny ? 3 : 8;
  // The set-up generated one stream step more than the replay consumes.
  const int replay_steps = static_cast<int>(ds.streams[0].size()) - 1;
  const double slack = 0.05 * delta;
  const Topology& topo = ds.topology;
  const std::vector<Feature>& features = ds.features;
  const DistanceMetric& metric = *ds.metric;

  // -- Timed run ------------------------------------------------------------
  const int64_t run_t0 = NowNs();
  uint64_t op = 0;
  int quadtree_levels = 0;
  {
    ScopedSpan span(log, "cluster.quadtree", ++op);
    quadtree_levels = QuadtreeDecomposition::Build(topo).num_levels();
  }
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.slack = slack;
  ecfg.synchronous = false;
  ecfg.seed = Derive(args.seed, 2);
  ecfg.observer = tele;
  std::optional<ElinkResult> elink;
  {
    ScopedSpan span(log, "cluster.elink", ++op);
    elink.emplace(Take(RunElink(ds, ecfg, ElinkMode::kExplicit), "RunElink"));
  }
  const Clustering& clustering = elink->clustering;
  std::vector<int> tree_parent;
  {
    ScopedSpan span(log, "index.trees", ++op);
    tree_parent = BuildClusterTrees(clustering, topo.adjacency);
  }
  std::optional<ClusterIndex> index;
  {
    ScopedSpan span(log, "index.mtree", ++op);
    index.emplace(ClusterIndex::Build(clustering, tree_parent, features, metric));
  }
  std::optional<Backbone> backbone;
  {
    ScopedSpan span(log, "index.backbone", ++op);
    backbone.emplace(
        Backbone::Build(clustering, topo.adjacency, nullptr, &features, &metric));
  }

  // Maintenance fed by per-node AR(1) refits of the dataset's own streams
  // (the fig13 replay: RLS on demeaned values, an update every 10 steps).
  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = slack;
  uint64_t epoch_bumps = 0;
  std::optional<DistributedMaintenance> dm;
  {
    ScopedSpan span(log, "cluster.maintenance", ++op);
    dm.emplace(topo, clustering, features, ds.metric, mcfg,
               /*synchronous=*/false, Derive(args.seed, 3));
  }
  dm->set_epoch_hook([&epoch_bumps](int, long long) { ++epoch_bumps; });
  if (tele) dm->set_observer(tele);
  uint64_t updates = 0;
  {
    std::vector<RlsEstimator> rls(n, RlsEstimator(1));
    std::vector<double> mean(n, 0.0), prev(n, 0.0);
    {
      ScopedSpan span(log, "timeseries.rls", ++op);
      for (int i = 0; i < n; ++i) {
        const std::vector<double>& train = ds.train_streams[i];
        double s = 0.0;
        for (double v : train) s += v;
        mean[i] = s / static_cast<double>(train.size());
        prev[i] = train.back() - mean[i];
        for (size_t t = 1; t < train.size(); ++t) {
          rls[i].Observe({train[t - 1] - mean[i]}, train[t] - mean[i]);
        }
      }
    }
    for (int t = 0; t < replay_steps; ++t) {
      {
        ScopedSpan span(log, "timeseries.rls", ++op);
        for (int i = 0; i < n; ++i) {
          const double x = ds.streams[i][t] - mean[i];
          rls[i].Observe({prev[i]}, x);
          prev[i] = x;
        }
      }
      if (t % 10 != 9) continue;
      ScopedSpan span(log, "cluster.maintenance", ++op);
      for (int i = 0; i < n; ++i) {
        dm->ApplyUpdate(i, Feature{rls[i].coefficients()[0]});
        ++updates;
      }
    }
  }

  // Distributed queries from seeded initiators, on the index built above.
  struct RangeAsk {
    int initiator;
    Feature q;
    double r;
    DistributedQueryOutcome got;
  };
  struct PathAsk {
    int source, destination;
    Feature danger;
    double gamma;
    PathQueryResult got;
  };
  std::vector<RangeAsk> range_asks;
  std::vector<PathAsk> path_asks;
  {
    Rng rng(Derive(args.seed, 4));
    for (int k = 0; k < queries_per_kind; ++k) {
      RangeAsk a;
      a.initiator = static_cast<int>(rng.UniformInt(n));
      a.q = features[rng.UniformInt(n)];
      a.r = rng.Uniform(0.05, 0.3) * delta;
      range_asks.push_back(std::move(a));
      PathAsk p;
      p.source = static_cast<int>(rng.UniformInt(n));
      p.destination = static_cast<int>(rng.UniformInt(n));
      p.danger = features[rng.UniformInt(n)];
      p.gamma = rng.Uniform(0.05, 0.3) * delta;
      path_asks.push_back(std::move(p));
    }
  }
  DistributedRangeQuery::ProtocolOptions ropts;
  ropts.synchronous = false;
  ropts.seed = Derive(args.seed, 5);
  ropts.observer = tele;
  DistributedRangeQuery range_protocol(topo, clustering, *index, *backbone,
                                       features, ds.metric, ropts);
  PathProtocolOptions popts;
  popts.synchronous = false;
  popts.seed = Derive(args.seed, 6);
  popts.observer = tele;
  DistributedPathQuery path_protocol(topo, clustering, *index, *backbone,
                                     features, ds.metric, popts);
  for (RangeAsk& a : range_asks) {
    ScopedSpan span(log, "index.range_query", ++op);
    a.got = Take(range_protocol.Run(a.initiator, a.q, a.r),
                 "DistributedRangeQuery::Run");
  }
  for (PathAsk& p : path_asks) {
    ScopedSpan span(log, "index.path_query", ++op);
    p.got = Take(path_protocol.Run(p.source, p.destination, p.danger, p.gamma),
                 "DistributedPathQuery::Run");
  }
  run_s->push_back(Seconds(run_t0, NowNs()));
  rss_mb->push_back(PeakRssMb());

  // -- Oracles (outside the timed run) --------------------------------------
  if (inject) range_asks.front().got.match_count += 1;
  out->Check(ValidateDeltaClustering(clustering, topo.adjacency, features,
                                    metric, delta - 2 * slack)
                .ok(),
            "ELink output is not a delta-clustering");
  out->Check(check::CheckMTreeInvariants(*index, clustering, tree_parent,
                                        features, metric)
                .ok(),
            "M-tree invariants violated");
  out->attempted += updates;  // Checked together by the invariant below.
  if (!dm->ValidateRootDistanceInvariant(delta + 2 * slack).ok()) {
    out->Fail("root-distance invariant violated after maintenance");
  }
  RangeQueryEngine range_engine(clustering, *index, *backbone, features,
                                metric, delta);
  PathQueryEngine path_engine(clustering, *index, *backbone, topo.adjacency,
                              features, metric, delta);
  uint64_t query_sends = 0, decode_errors = elink->stats.decode_errors() +
                                            dm->stats().decode_errors();
  for (const RangeAsk& a : range_asks) {
    const std::vector<int> oracle =
        check::RangeOracle(features, metric, a.q, a.r);
    const RangeQueryResult engine = range_engine.Query(a.initiator, a.q, a.r);
    out->Check(a.got.complete && a.got.answer_received &&
                  a.got.match_count == static_cast<long long>(oracle.size()) &&
                  engine.matches == oracle,
              "range query disagrees with engine/linear-scan oracle");
    query_sends += a.got.stats.total_sends();
    decode_errors += a.got.stats.decode_errors();
  }
  for (const PathAsk& p : path_asks) {
    const PathQueryResult engine =
        path_engine.Query(p.source, p.destination, p.danger, p.gamma);
    const bool exists =
        check::SafePathExists(topo.adjacency, features, metric, p.danger,
                              p.gamma, p.source, p.destination);
    out->Check(p.got.found == engine.found && p.got.found == exists &&
                  check::CheckPathResult(p.got, topo.adjacency, features,
                                         metric, p.danger, p.gamma, p.source,
                                         p.destination, true)
                      .ok(),
              "path query disagrees with engine/BFS oracle");
    query_sends += p.got.stats.total_sends();
    decode_errors += p.got.stats.decode_errors();
  }

  Outcome counts;
  counts.Count("data.nodes", n);
  counts.Count("data.edges", CountEdges(topo));
  counts.Count("cluster.quadtree_levels", quadtree_levels);
  counts.Count("cluster.clusters", clustering.num_clusters());
  counts.Count("cluster.elink_sends", elink->stats.total_sends());
  counts.Count("cluster.elink_units", elink->stats.total_units());
  counts.fingerprint.emplace_back("cluster.elink_sim_time",
                               ExactDouble(elink->completion_time));
  counts.Count("cluster.maintenance_updates", updates);
  counts.Count("cluster.maintenance_sends", dm->stats().total_sends());
  counts.Count("cluster.churn_drops", dm->churn_drops());
  counts.Count("cluster.epoch_bumps", epoch_bumps);
  counts.Count("cluster.final_clusters", dm->CurrentClustering().num_clusters());
  counts.Count("index.query_sends", query_sends);
  counts.Count("proto.decode_errors", decode_errors);
  if (decode_errors != 0) out->Fail("protocol decode errors");
  return counts.fingerprint;

}

Outcome RunPipeline(const Args& args) {
  Outcome out;
  out.threads = "1";
  const int n = args.tiny ? 400 : 4000;
  const int replay_steps = args.tiny ? 20 : 100;
  out.reps = 5;
  SpanLog log(args.trace, 0);
  std::vector<obs::RunTelemetry> teles(args.trace ? out.reps : 0);

  // -- Set-up: deployment + delta calibration, repeated -------------------
  std::vector<double> setup_s;
  std::optional<SensorDataset> ds;
  double delta = 0.0;
  uint64_t first_digest = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    SyntheticConfig cfg;
    cfg.num_nodes = n;
    cfg.density = 0.8;
    cfg.target_avg_degree = 4.0;
    cfg.stream_length = replay_steps + 1;
    std::optional<SensorDataset> made;
    {
      ScopedSpan span(&log, "data.generate");
      made.emplace(Take(MakeSyntheticDataset(cfg), "MakeSyntheticDataset"));
    }
    double diameter;
    {
      ScopedSpan span(&log, "data.diameter");
      diameter = FeatureDiameter(*made);
    }
    setup_s.push_back(Seconds(t0, NowNs()));
    const uint64_t digest =
        DigestFeatures(made->features) ^ CountEdges(made->topology);
    if (rep == 0) first_digest = digest;
    if (digest != first_digest) out.Fail("set-up is not deterministic");
    delta = 0.3 * diameter;
    ds = std::move(made);
  }
  // -- Timed runs: the whole pipeline, five times on the same inputs -------
  std::vector<double> run_s, rss_mb;
  for (int rep = 0; rep < out.reps; ++rep) {
    const auto counts = PipelineOnce(
        args, *ds, delta, args.inject_wrong_answer && rep == 0, &log,
        args.trace ? &teles[rep] : nullptr, &run_s, &rss_mb, &out);
    out.AddCounts(counts, /*fixed=*/counts.size());
  }
  out.e2e.emplace_back("setup_s", Median(setup_s), "s");
  out.e2e.emplace_back("run_s", Median(run_s), "s");
  out.e2e.emplace_back("peak_rss_mb", MaxOf(rss_mb), "MB");

  if (args.trace) {
    out.spans = perfbench::AggregateSpans({&log});
    AddCommonLayers(&out);
    std::vector<const obs::RunTelemetry*> tele_ptrs;
    for (const obs::RunTelemetry& t : teles) tele_ptrs.push_back(&t);
    AddSimLayers(&out, tele_ptrs,
                 TotalS(out, "cluster.elink") +
                     TotalS(out, "cluster.maintenance") +
                     TotalS(out, "index.range_query") +
                     TotalS(out, "index.path_query"));
    if (!args.trace_out.empty() &&
        !perfbench::WriteChromeTrace(args.trace_out, {&log}, 100000)) {
      throw BenchError("cannot write " + args.trace_out);
    }
  }
  return out;
}

// ===========================================================================
// serve_2500: the Death Valley deployment served while it is maintained.
// Three closed-loop readers replay fixed op streams; the writer (the main
// thread) applies one feature update and republishes each time reader 0
// has completed another fixed share of its stream, so every session
// does the same reads and the same publishes.
// ===========================================================================

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr int kReaders = 3;

struct ReadRecord {
  uint32_t op = 0;       // Index in the reader's op stream.
  uint32_t version = 0;  // View the answer was served from.
  float latency_us = 0;
  bool from_cache = false;
  uint64_t digest = 0;  // serve::DigestRange / DigestPath of the answer.
};

/// Measurements pooled over the sessions of serve_2500.
struct ServeTotals {
  std::vector<double> setup_s, run_s, rss_mb;
  std::vector<double> all_us, hit_us, range_miss_us, path_miss_us;
  std::vector<double> publish_ms, late_ms;
  uint64_t reads = 0, hits = 0, lookups = 0;
};

/// Every served answer must equal a fresh recomputation on the view it was
/// served from.  One recomputation per distinct (view, predicate), spread
/// over 4 threads.  Returns the number of mismatching answers.
uint64_t AuditServed(
    const std::vector<std::vector<serve::WorkloadOp>>& ops,
    const std::vector<std::vector<uint32_t>>& pred,
    const std::vector<std::vector<ReadRecord>>& records,
    const std::map<uint64_t, std::shared_ptr<const serve::ReadView>>& views) {
  struct Member {
    int reader;
    uint32_t index;
  };
  std::map<std::pair<uint32_t, uint32_t>, std::vector<Member>> groups;
  for (int c = 0; c < kReaders; ++c) {
    for (uint32_t i = 0; i < records[c].size(); ++i) {
      const ReadRecord& rec = records[c][i];
      groups[{rec.version, pred[c][rec.op]}].push_back({c, i});
    }
  }
  std::vector<const std::pair<const std::pair<uint32_t, uint32_t>,
                              std::vector<Member>>*>
      list;
  for (const auto& g : groups) list.push_back(&g);
  constexpr int kThreads = 4;
  std::vector<uint64_t> wrong(kThreads, 0);
  auto audit = [&](int part) {
    for (size_t g = part; g < list.size(); g += kThreads) {
      const auto& [key, members] = *list[g];
      const ReadRecord& first = records[members[0].reader][members[0].index];
      const serve::WorkloadOp& op = ops[members[0].reader][first.op];
      auto it = views.find(key.first);
      if (it == views.end()) {
        wrong[part] += members.size();
        continue;
      }
      const serve::ReadView& view = *it->second;
      const uint64_t expect =
          op.is_range
              ? serve::DigestRange(kFnvBasis, view.Range(op.feature, op.scalar))
              : serve::DigestPath(kFnvBasis,
                                  view.SafePath(op.source, op.destination,
                                                op.feature, op.scalar));
      for (const Member& m : members) {
        if (records[m.reader][m.index].digest != expect) ++wrong[part];
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (int part = 1; part < kThreads; ++part) helpers.emplace_back(audit, part);
    audit(0);
  }
  uint64_t total = 0;
  for (uint64_t w : wrong) total += w;
  return total;
}

/// One session: set-up, timed run, audit.  Appends to `totals`, and returns
/// the session's exact counts.  Sessions differ in their read streams and
/// updates.
std::vector<std::pair<std::string, std::string>> ServeOnce(
    const Args& args, int rep, bool inject, std::vector<SpanLog>* logs,
    ServeTotals* totals, Outcome* out) {
  const uint64_t rep_seed = Derive(args.seed, 100 + rep);
  const int n = args.tiny ? 300 : 2500;
  const int ops_per_reader = args.tiny ? 2000 : 80000;
  const int publishes = args.tiny ? 10 : 24;
  SpanLog& writer_log = (*logs)[kReaders];

  // -- Set-up: deployment, delta, initial clustering, first publish and one
  // warm pass over the predicate pool ---------------------------------------
  const int64_t setup_t0 = NowNs();
  TerrainConfig tcfg;
  tcfg.num_nodes = n;
  if (args.tiny) tcfg.radio_range_fraction = 0.1;
  std::optional<SensorDataset> ds;
  {
    ScopedSpan span(&writer_log, "data.generate");
    ds.emplace(Take(MakeTerrainDataset(tcfg), "MakeTerrainDataset"));
  }
  double diameter;
  {
    ScopedSpan span(&writer_log, "data.diameter");
    diameter = FeatureDiameter(*ds);
  }
  ClusteredSensorNetwork::Options nopts;
  nopts.delta = 0.3 * diameter;
  nopts.slack = 0.05 * nopts.delta;
  nopts.seed = Derive(args.seed, 12);
  std::unique_ptr<ClusteredSensorNetwork> net;
  {
    ScopedSpan span(&writer_log, "core.build");
    net = Take(ClusteredSensorNetwork::Build(*ds, nopts),
               "ClusteredSensorNetwork::Build");
  }
  std::optional<serve::ServeSession> session;
  {
    ScopedSpan span(&writer_log, "serve.initial_publish");
    session.emplace(net.get(), serve::ServeFrontend::Options{});
  }
  serve::ServeFrontend& frontend = session->frontend();
  serve::WorkloadConfig wcfg;
  wcfg.num_clients = kReaders;
  wcfg.ops_per_client = ops_per_reader;
  wcfg.range_fraction = 0.7;
  wcfg.predicate_pool = 64;
  wcfg.zipf_s = 1.1;
  wcfg.unique_fraction = 0.05;
  // The predicate pool and its popularity are part of the deployment, like
  // the terrain: a fixed generator seed.  Its few heavy hitters decide the
  // cost of a cache hit, so drawing them per seed moved run_s by 15%.  The
  // seed picks the readers' op streams (which pool entries, which one-off
  // predicates) through the client ids.
  const serve::WorkloadGenerator gen(ds->features, n, wcfg, /*seed=*/2500);
  {
    ScopedSpan span(&writer_log, "serve.warm");
    for (const serve::WorkloadOp& op : gen.pool()) {
      if (op.is_range) {
        frontend.Range(op.feature, op.scalar);
      } else {
        frontend.SafePath(op.source, op.destination, op.feature, op.scalar);
      }
    }
  }
  totals->setup_s.push_back(Seconds(setup_t0, NowNs()));
  const double delta = nopts.delta;
  out->Check(ValidateDeltaClustering(net->clustering(), ds->topology.adjacency,
                                     ds->features, *ds->metric,
                                     delta - 2 * nopts.slack)
                 .ok(),
             "initial clustering is not a delta-clustering");
  const uint64_t initial_clusters = net->num_clusters();

  // Op streams and predicate ids (for grouping the audit), built untimed.
  std::vector<std::vector<serve::WorkloadOp>> ops(kReaders);
  std::vector<std::vector<uint32_t>> pred(kReaders);
  std::unordered_map<std::string, uint32_t> ids;
  for (int c = 0; c < kReaders; ++c) {
    ops[c] = gen.ClientOps(static_cast<int>(Derive(rep_seed, 30 + c) >> 33));
    for (const serve::WorkloadOp& op : ops[c]) {
      const std::string key =
          op.is_range ? serve::CanonicalRangeKey(op.feature, op.scalar)
                      : serve::CanonicalPathKey(op.source, op.destination,
                                                op.feature, op.scalar);
      pred[c].push_back(
          ids.emplace(key, static_cast<uint32_t>(ids.size())).first->second);
    }
  }
  // Every published view stays alive for the audit.
  std::map<uint64_t, std::shared_ptr<const serve::ReadView>> views;
  views[frontend.View()->version()] = frontend.View();

  // Publish j is due when reader 0 has completed due_op[j] reads.
  std::vector<int> due_op(publishes + 1);
  for (int j = 1; j <= publishes; ++j) {
    due_op[j] = static_cast<int>(static_cast<int64_t>(j) * ops_per_reader /
                                 (publishes + 1));
  }
  std::unique_ptr<std::atomic<int64_t>[]> due_ns(
      new std::atomic<int64_t>[publishes + 1]);
  for (int j = 0; j <= publishes; ++j) due_ns[j].store(0);
  std::vector<std::vector<ReadRecord>> records(kReaders);

  // -- Timed run -------------------------------------------------------------
  const int64_t run_t0 = NowNs();
  {
    std::vector<std::jthread> readers;
    for (int c = 0; c < kReaders; ++c) {
      readers.emplace_back([&, c] {
        const std::vector<serve::WorkloadOp>& stream = ops[c];
        std::vector<ReadRecord>& recs = records[c];
        SpanLog& rlog = (*logs)[c];
        recs.reserve(stream.size());
        int next_due = 1;
        for (size_t k = 0; k < stream.size(); ++k) {
          const serve::WorkloadOp& op = stream[k];
          ReadRecord rec;
          rec.op = static_cast<uint32_t>(k);
          const int64_t t1 = NowNs();
          int64_t t2;
          if (op.is_range) {
            serve::ServedRange r = frontend.Range(op.feature, op.scalar);
            t2 = NowNs();
            rec.digest = serve::DigestRange(kFnvBasis, r.answer);
            rec.version = static_cast<uint32_t>(r.view_version);
            rec.from_cache = r.from_cache;
          } else {
            serve::ServedPath r = frontend.SafePath(op.source, op.destination,
                                                    op.feature, op.scalar);
            t2 = NowNs();
            rec.digest = serve::DigestPath(kFnvBasis, r.answer);
            rec.version = static_cast<uint32_t>(r.view_version);
            rec.from_cache = r.from_cache;
          }
          rec.latency_us = static_cast<float>((t2 - t1) * 1e-3);
          recs.push_back(rec);
          if (rlog.enabled()) {
            rlog.Add(rec.from_cache ? "serve.hit"
                     : op.is_range  ? "serve.range_miss"
                                    : "serve.path_miss",
                     t1, t2, (static_cast<uint64_t>(c + 1) << 32) | k);
          }
          if (c == 0) {
            while (next_due <= publishes &&
                   static_cast<int>(k + 1) >= due_op[next_due]) {
              due_ns[next_due++].store(t2, std::memory_order_release);
            }
          }
        }
      });
    }
    Rng rng(Derive(rep_seed, 14));
    for (int j = 1; j <= publishes; ++j) {
      int64_t due;
      while ((due = due_ns[j].load(std::memory_order_acquire)) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      totals->late_ms.push_back(std::max<int64_t>(0, NowNs() - due) * 1e-6);
      const int node = static_cast<int>(rng.UniformInt(n));
      Feature f = net->feature(node);
      f[0] += rng.Uniform(-0.02, 0.02) * delta;
      {
        ScopedSpan span(&writer_log, "core.update", j);
        net->UpdateFeature(node, f);
      }
      {
        ScopedSpan span(&writer_log, "serve.publish", j);
        session->Publish();
      }
      totals->publish_ms.push_back((NowNs() - due) * 1e-6);
      std::shared_ptr<const serve::ReadView> v = frontend.View();
      views[v->version()] = v;
    }
  }  // Joins the readers.
  totals->run_s.push_back(Seconds(run_t0, NowNs()));
  totals->rss_mb.push_back(PeakRssMb());

  // -- Audit (outside the timed run) ----------------------------------------
  if (inject) records[0][0].digest ^= 1;
  const uint64_t wrong = AuditServed(ops, pred, records, views);
  uint64_t reads = 0;
  for (const auto& recs : records) reads += recs.size();
  out->attempted += reads + publishes;
  if (wrong > 0) {
    out->failed += wrong;
    out->failures.push_back(std::to_string(wrong) +
                            " served answers differ from a recomputation on "
                            "their view");
  }
  for (int c = 0; c < kReaders; ++c) {
    for (const ReadRecord& rec : records[c]) {
      totals->all_us.push_back(rec.latency_us);
      if (rec.from_cache) {
        totals->hit_us.push_back(rec.latency_us);
      } else if (ops[c][rec.op].is_range) {
        totals->range_miss_us.push_back(rec.latency_us);
      } else {
        totals->path_miss_us.push_back(rec.latency_us);
      }
    }
  }
  const serve::ServeCounters counters = frontend.Counters();
  totals->reads += reads;
  totals->hits += counters.cache.hits;
  totals->lookups += counters.cache.hits + counters.cache.misses;

  Outcome counts;
  counts.Count("data.nodes", n);
  counts.Count("data.edges", CountEdges(ds->topology));
  counts.Count("cluster.clusters", initial_clusters);  // Last fixed count.
  counts.Count("cluster.final_clusters", net->num_clusters());
  counts.Count("serve.reads", reads);
  counts.Count("serve.predicates", ids.size());
  counts.Count("serve.publishes", counters.publishes);
  counts.Count("serve.views_built", counters.views_built);
  counts.Count("serve.epoch_bumps", counters.epoch_bumps);
  return counts.fingerprint;
}

Outcome RunServe(const Args& args) {
  Outcome out;
  out.threads = "3 readers + 1 writer";
  out.reps = 5;
  std::vector<SpanLog> logs;
  for (int t = 0; t <= kReaders; ++t) logs.emplace_back(args.trace, t);
  ServeTotals totals;
  for (int rep = 0; rep < out.reps; ++rep) {
    out.AddCounts(ServeOnce(args, rep, args.inject_wrong_answer && rep == 0,
                            &logs, &totals, &out),
                  /*fixed=*/3);
  }
  const double run_s = Median(totals.run_s);
  out.e2e.emplace_back("setup_s", Median(totals.setup_s), "s");
  out.e2e.emplace_back("run_s", run_s, "s");
  out.e2e.emplace_back("peak_rss_mb", MaxOf(totals.rss_mb), "MB");
  out.workload.emplace_back(
      "serve_qps", static_cast<double>(totals.reads) / out.reps / run_s,
      "1/s");
  out.workload.emplace_back("serve_p50_us", Percentile(totals.all_us, 0.5),
                            "us");
  out.workload.emplace_back("serve_p99_us", Percentile(totals.all_us, 0.99),
                            "us");
  out.workload.emplace_back("publish_p50_ms",
                            Percentile(totals.publish_ms, 0.5), "ms");
  out.workload.emplace_back("publish_p90_ms",
                            Percentile(totals.publish_ms, 0.9), "ms");
  out.workload.emplace_back("reads", static_cast<double>(totals.reads),
                            "count");
  out.workload.emplace_back(
      "hit_rate",
      totals.lookups ? static_cast<double>(totals.hits) / totals.lookups : 0.0,
      "ratio");
  out.workload.emplace_back("hit_p50_us", Percentile(totals.hit_us, 0.5),
                            "us");
  out.workload.emplace_back("range_miss_p50_us",
                            Percentile(totals.range_miss_us, 0.5), "us");
  out.workload.emplace_back("path_miss_p50_us",
                            Percentile(totals.path_miss_us, 0.5), "us");

  if (args.trace) {
    std::vector<const SpanLog*> log_ptrs;
    for (const SpanLog& l : logs) log_ptrs.push_back(&l);
    out.spans = perfbench::AggregateSpans(log_ptrs);
    AddCommonLayers(&out);
    AddSimLayers(&out, {}, 0.0);
    out.layers.emplace_back("serve.writer_late_ms", MaxOf(totals.late_ms),
                            "ms");
    out.layers.emplace_back("serve.hits", static_cast<double>(totals.hits),
                            "count");
    out.layers.emplace_back("serve.lookups",
                            static_cast<double>(totals.lookups), "count");
    out.layers.emplace_back(
        "serve.hit_rate",
        totals.lookups ? static_cast<double>(totals.hits) / totals.lookups
                       : 0.0,
        "ratio");
    out.layers.emplace_back("serve.hit_p50_us", P50(out, "serve.hit", 1e6),
                            "us");
    out.layers.emplace_back("serve.range_miss_p50_us",
                            P50(out, "serve.range_miss", 1e6), "us");
    out.layers.emplace_back("serve.path_miss_p50_us",
                            P50(out, "serve.path_miss", 1e6), "us");
    if (!args.trace_out.empty() &&
        !perfbench::WriteChromeTrace(args.trace_out, log_ptrs, 20000)) {
      throw BenchError("cannot write " + args.trace_out);
    }
  }
  return out;
}

// ===========================================================================
// churn_2500: the terrain deployment under topology churn, single-threaded.
// Each session is one DistributedMaintenance with a fixed churn plan on a
// synchronous network, drained and published by MaintenanceServeDriver, so
// the timed work is the same for every seed (the seed only picks the audit
// queries).  Scheduled feature updates, asynchronous delays or per-seed
// plans let RunToQuiescence livelock into the simulator's event cap in some
// sessions (see perfbench/README.md, "Known defect"); pipeline_4k measures
// the update path.
// ===========================================================================

/// True when the graph stays connected with `node` absent (or, for
/// node < 0, with the u-v edge removed).
bool ConnectedWithout(const AdjacencyList& adj, int node, int u, int v) {
  const int n = static_cast<int>(adj.size());
  const int start = node == 0 ? 1 : 0;
  std::vector<char> seen(n, 0);
  std::vector<int> stack = {start};
  seen[start] = 1;
  if (node >= 0) seen[node] = 1;
  int reached = node >= 0 ? 2 : 1;
  while (!stack.empty()) {
    const int x = stack.back();
    stack.pop_back();
    for (int y : adj[x]) {
      if (seen[y] || (x == u && y == v) || (x == v && y == u)) continue;
      seen[y] = 1;
      ++reached;
      stack.push_back(y);
    }
  }
  return reached == n;
}

/// Crash-with-repair and link down/up events, one per time slot so at most
/// one node or link is away at a time and the live graph stays connected.
/// Every third slot flaps a link, the others crash a node.
ChurnPlan MakeChurnPlan(const Topology& topo, uint64_t seed, int slots,
                        double t0, double slot_len) {
  Rng rng(seed);
  const int n = topo.num_nodes();
  ChurnPlan plan;
  for (int s = 0; s < slots; ++s) {
    const double down = t0 + s * slot_len + rng.Uniform(0.0, 0.2) * slot_len;
    const double up = down + rng.Uniform(0.4, 0.7) * slot_len;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int a = static_cast<int>(rng.UniformInt(n));
      if (s % 3 == 2) {
        const std::vector<int>& nbrs = topo.adjacency[a];
        if (nbrs.empty()) continue;
        const int b = nbrs[rng.UniformInt(nbrs.size())];
        if (!ConnectedWithout(topo.adjacency, -1, a, b)) continue;
        plan.link_changes.push_back({a, b, down, false});
        plan.link_changes.push_back({a, b, up, true});
      } else {
        if (!ConnectedWithout(topo.adjacency, a, -1, -1)) continue;
        plan.crashes.push_back({a, down, up});
      }
      break;
    }
  }
  return plan;
}

/// One session of churn_2500: set-up, timed drain, oracles.  Returns the
/// session's exact counts; `setup_s`, `run_s` and `rss_mb` get one entry.
/// Sessions differ in their churn plan.
std::vector<std::pair<std::string, std::string>> ChurnOnce(
    const Args& args, int rep, bool inject, SpanLog* log,
    obs::RunTelemetry* tele,
    std::vector<double>* setup_s, std::vector<double>* run_s,
    std::vector<double>* rss_mb, Outcome* out) {
  const int n = args.tiny ? 300 : 2500;
  const int slots = args.tiny ? 30 : 300;
  constexpr double kT0 = 10.0, kSlot = 6.0;

  // -- Set-up: deployment, delta, implicit ELink, the churn session and the
  // serving driver's first publish -----------------------------------------
  const int64_t setup_t0 = NowNs();
  TerrainConfig tcfg;
  tcfg.num_nodes = n;
  if (args.tiny) tcfg.radio_range_fraction = 0.1;
  std::optional<SensorDataset> ds;
  {
    ScopedSpan span(log, "data.generate");
    ds.emplace(Take(MakeTerrainDataset(tcfg), "MakeTerrainDataset"));
  }
  double diameter;
  {
    ScopedSpan span(log, "data.diameter");
    diameter = FeatureDiameter(*ds);
  }
  const double delta = 0.3 * diameter;
  const double slack = 0.05 * delta;
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.slack = slack;
  ecfg.seed = Derive(args.seed, 22);
  std::optional<ElinkResult> elink;
  {
    ScopedSpan span(log, "cluster.elink");
    elink.emplace(Take(RunElink(*ds, ecfg, ElinkMode::kImplicit), "RunElink"));
  }
  // The churn plans are part of the scenario, like the deployment: session k
  // replays plan k whatever the seed.  Which node crashes decides most of a
  // session's cost (a crashed tree-internal node orphans its subtree), so
  // per-seed plans also moved run_s by 20%.
  const uint64_t rep_seed = Derive(args.seed, 100 + rep);
  const ChurnPlan plan = MakeChurnPlan(ds->topology, Derive(2500, 100 + rep),
                                       slots, kT0, kSlot);
  const uint64_t churn_events =
      2 * (plan.crashes.size() + plan.link_changes.size() / 2);
  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = slack;
  std::optional<DistributedMaintenance> dm;
  {
    ScopedSpan span(log, "cluster.maintenance_setup");
    dm.emplace(ds->topology, elink->clustering, ds->features, ds->metric, mcfg,
               /*synchronous=*/true, Derive(rep_seed, 24), FaultPlan{}, plan);
  }
  std::optional<serve::MaintenanceServeDriver> driver;
  {
    ScopedSpan span(log, "serve.initial_publish");
    driver.emplace(&*dm, ds->metric, serve::ServeFrontend::Options{});
  }
  setup_s->push_back(Seconds(setup_t0, NowNs()));
  out->Check(ValidateDeltaClustering(elink->clustering, ds->topology.adjacency,
                                     ds->features, *ds->metric,
                                     delta - 2 * slack)
                 .ok(),
             "ELink output is not a delta-clustering");
  if (tele) dm->set_observer(tele);

  // -- Timed run: drain every churn event and its repair traffic, then
  // publish the healed state (MaintenanceServeDriver::
  // RunToQuiescenceAndPublish, with its two halves timed apart) -------------
  const int64_t run_t0 = NowNs();
  {
    ScopedSpan span(log, "cluster.maintenance");
    dm->RunToQuiescence();
  }
  {
    ScopedSpan span(log, "serve.publish");
    driver->Publish();
  }
  run_s->push_back(Seconds(run_t0, NowNs()));
  rss_mb->push_back(PeakRssMb());
  if (tele) dm->set_observer(nullptr);

  // -- Oracles (outside the timed run) --------------------------------------
  out->attempted += churn_events;
  out->Check(dm->ValidateRootDistanceInvariant(delta + 2 * slack).ok(),
             "root-distance invariant violated after churn");
  // Served answers on the published healed view against the linear-scan and
  // BFS oracles over the protocol's live state.
  const std::vector<Feature> current = dm->CurrentFeatures();
  const AdjacencyList live_adj = dm->LiveAdjacency();
  const std::vector<char> live = dm->LiveMask();
  std::vector<Feature> live_features;
  std::vector<int> live_ids;
  for (int i = 0; i < n; ++i) {
    if (!live[i]) continue;
    live_features.push_back(current[i]);
    live_ids.push_back(i);
  }
  serve::WorkloadConfig wcfg;
  wcfg.num_clients = 1;
  wcfg.ops_per_client = args.tiny ? 32 : 128;
  const serve::WorkloadGenerator gen(current, n, wcfg, Derive(rep_seed, 26));
  for (const serve::WorkloadOp& op : gen.ClientOps(0)) {
    if (op.is_range) {
      serve::ServedRange got = driver->frontend().Range(op.feature, op.scalar);
      if (inject) {
        got.answer.matches.push_back(-1);
        inject = false;
      }
      std::vector<int> expect;
      for (int c : check::RangeOracle(live_features, *ds->metric, op.feature,
                                      op.scalar)) {
        expect.push_back(live_ids[c]);
      }
      out->Check(got.answer.matches == expect,
                 "served range answer differs from the linear-scan oracle");
    } else {
      const serve::ServedPath got = driver->frontend().SafePath(
          op.source, op.destination, op.feature, op.scalar);
      PathQueryResult as_result;
      as_result.found = got.answer.found;
      as_result.path = got.answer.path;
      out->Check(live[op.source] && live[op.destination] &&
                     check::CheckPathResult(as_result, live_adj, current,
                                            *ds->metric, op.feature,
                                            op.scalar, op.source,
                                            op.destination, true)
                         .ok(),
                 "served path answer fails the BFS oracle");
    }
  }
  const uint64_t decode_errors =
      dm->stats().decode_errors() + elink->stats.decode_errors();
  if (decode_errors != 0) out->Fail("protocol decode errors");

  const serve::ServeCounters counters = driver->frontend().Counters();
  Outcome counts;
  counts.Count("data.nodes", n);
  counts.Count("data.edges", CountEdges(ds->topology));
  counts.Count("cluster.clusters", elink->clustering.num_clusters());
  counts.Count("cluster.elink_sends", elink->stats.total_sends());
  counts.Count("cluster.elink_units", elink->stats.total_units());
  counts.fingerprint.emplace_back("cluster.elink_sim_time",
                                  ExactDouble(elink->completion_time));
  // Last fixed count above.
  counts.Count("churn.events", churn_events);
  counts.Count("cluster.maintenance_sends", dm->stats().total_sends());
  counts.Count("cluster.churn_drops", dm->churn_drops());
  counts.Count("cluster.epoch_bumps", counters.hook_bumps);
  counts.Count("cluster.final_clusters",
               dm->CurrentClustering().num_clusters());
  counts.Count("proto.decode_errors", decode_errors);
  counts.Count("serve.views_built", counters.views_built);
  counts.Count("serve.epoch_bumps", counters.epoch_bumps);
  driver.reset();  // Unregisters its hook before the session goes away.
  return counts.fingerprint;
}

Outcome RunChurn(const Args& args) {
  Outcome out;
  out.threads = "1";
  out.reps = 5;
  SpanLog log(args.trace, 0);
  std::vector<obs::RunTelemetry> teles(args.trace ? out.reps : 0);
  std::vector<double> setup_s, run_s, rss_mb;
  for (int rep = 0; rep < out.reps; ++rep) {
    out.AddCounts(ChurnOnce(args, rep, args.inject_wrong_answer && rep == 0,
                            &log, args.trace ? &teles[rep] : nullptr,
                            &setup_s, &run_s, &rss_mb, &out),
                  /*fixed=*/6);
  }
  out.e2e.emplace_back("setup_s", Median(setup_s), "s");
  out.e2e.emplace_back("run_s", Median(run_s), "s");
  out.e2e.emplace_back("peak_rss_mb", MaxOf(rss_mb), "MB");

  if (args.trace) {
    out.spans = perfbench::AggregateSpans({&log});
    AddCommonLayers(&out);
    std::vector<const obs::RunTelemetry*> tele_ptrs;
    for (const obs::RunTelemetry& t : teles) tele_ptrs.push_back(&t);
    AddSimLayers(&out, tele_ptrs, TotalS(out, "cluster.maintenance"));
    if (!args.trace_out.empty() &&
        !perfbench::WriteChromeTrace(args.trace_out, {&log}, 100000)) {
      throw BenchError("cannot write " + args.trace_out);
    }
  }
  return out;
}

// ===========================================================================
// Reporting
// ===========================================================================

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string MetricsJson(const MetricList& list) {
  std::string out = "{";
  for (size_t i = 0; i < list.size(); ++i) {
    const auto& [name, value, unit] = list[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i ? "," : "") + JsonString(name) + ":{\"value\":" + buf +
           ",\"unit\":" + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string CountsJson(
    const std::vector<std::pair<std::string, std::string>>& counts) {
  std::string out = "{";
  for (size_t i = 0; i < counts.size(); ++i) {
    out += (i ? "," : "") + JsonString(counts[i].first) + ":" +
           counts[i].second;
  }
  return out + "}";
}

void PrintMetrics(const char* title, const MetricList& list) {
  if (list.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, value, unit] : list) {
    std::printf("  %-28s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
}

void Report(const Args& args, const Outcome& o) {
  const std::string simd = SimdLevelName(ActiveSimdLevel());
  const std::string cpu = CpuModel();
  const unsigned vcpus = std::thread::hardware_concurrency();
  std::printf("workload %s  seed %llu  trace %d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.tiny ? "  (tiny)" : "");
  std::printf("machine: %s, %u vCPUs, SIMD %s, %s, %s build, threads %s\n",
              cpu.c_str(), vcpus, simd.c_str(), __VERSION__,
              ELINK_BENCH_BUILD_TYPE, o.threads.c_str());
  PrintMetrics("end-to-end:", o.e2e);
  PrintMetrics("workload:", o.workload);
  PrintMetrics("per-layer (traced):", o.layers);
  if (!o.spans.empty()) {
    std::printf("span self time:\n");
    for (const auto& [name, st] : o.spans) {
      std::printf("  %-28s %10llu spans %12.6f s total %12.6f s self\n",
                  name.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_s, st.self_s);
    }
  }
  std::printf("fingerprint:\n");
  for (const auto& [name, v] : o.fingerprint) {
    std::printf("  %-28s %s\n", name.c_str(), v.c_str());
  }
  for (const auto& [name, v] : o.telemetry) {
    std::printf("  %-28s %s (traced only)\n", name.c_str(), v.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (const std::string& f : o.failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string self = "{";
  for (const auto& [name, st] : o.spans) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", st.self_s);
    self += (self.size() > 1 ? "," : "") + JsonString(name) + ":" + buf;
  }
  self += "}";
  std::string failures = "[";
  for (size_t i = 0; i < o.failures.size(); ++i) {
    failures += (i ? "," : "") + JsonString(o.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"tiny\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,"
      "\"metrics\":%s,\"workload_metrics\":%s,\"layers\":%s,"
      "\"fingerprint\":%s,\"telemetry\":%s,\"self_time_s\":%s,"
      "\"provenance\":{\"cpu_model\":%s,\"vcpus\":%u,\"simd\":%s,"
      "\"compiler\":%s,\"build_type\":%s,\"threads\":%s}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      args.tiny ? "true" : "false",
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed), failures.c_str(),
      MetricsJson(o.e2e).c_str(), MetricsJson(o.workload).c_str(),
      MetricsJson(o.layers).c_str(), CountsJson(o.fingerprint).c_str(),
      CountsJson(o.telemetry).c_str(), self.c_str(), JsonString(cpu).c_str(),
      vcpus, JsonString(simd).c_str(), JsonString(__VERSION__).c_str(),
      JsonString(ELINK_BENCH_BUILD_TYPE).c_str(),
      JsonString(o.threads).c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload pipeline_4k|serve_2500|churn_2500 "
               "--seed N [--trace 0|1] [--trace-out FILE] [--tiny] "
               "[--inject-wrong-answer]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--inject-wrong-answer") {
      args.inject_wrong_answer = true;
    } else {
      return Usage();
    }
  }
  try {
    Outcome o;
    if (args.workload == "pipeline_4k") {
      o = RunPipeline(args);
    } else if (args.workload == "serve_2500") {
      o = RunServe(args);
    } else if (args.workload == "churn_2500") {
      o = RunChurn(args);
    } else {
      return Usage();
    }
    Report(args, o);
    std::fflush(stdout);
    return o.failed == 0 ? 0 : 1;
  } catch (const BenchError& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 3;
  }
}
