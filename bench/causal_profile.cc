// One-command convergence profiler over the causal-tracing seam.
//
// Attaches a telemetry + tracer chain to one protocol run, rebuilds the
// causal forest (src/obs/causal.h), and reports where the run's latency and
// cost actually sit:
//
//   --protocol NAME     elink (default) | maintenance | range_query |
//                       path_query
//   --seed N            protocol seed (default 11)
//   --nodes N           deployment size (default 120)
//   --trace-cap N       trace ring capacity in events (default 262144)
//   --report-out FILE   RunReport JSON with "critical_path" and "trace"
//                       sections (byte-identical across same-seed runs)
//   --collapsed-out FILE collapsed-stack profile (speedscope / flamegraph.pl)
//   --collapsed-weight W events | units (default) | bytes
//   --trace-out FILE    Chrome trace with causal flow arrows
//
//   --sweep             instead of one profile: causal-depth vs N for
//                       explicit ELink, N = 100..800 — the empirical check
//                       of Theorem 1's O(sqrt(N) log N) convergence bound
//   --csv-out FILE      write the sweep table as CSV
//
// stdout gets a human summary: the critical path step by step, depth/width
// statistics, and ring utilization.  Exit is nonzero if the causal graph is
// structurally broken (orphans without overflow).
#include <cmath>
#include <cstdint>
#include <optional>

#include "bench/bench_util.h"
#include "cluster/clustering.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "data/terrain.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "obs/causal.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

using namespace elink;
using namespace elink::bench;

namespace {

void WriteOrDie(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary);
  f << body;
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

SensorDataset MakeDeployment(int nodes) {
  TerrainConfig tcfg;
  tcfg.num_nodes = nodes;
  tcfg.radio_range_fraction = 0.18;
  tcfg.seed = 9;  // Fixed: --seed varies the protocol, not the deployment.
  return Unwrap(MakeTerrainDataset(tcfg), "terrain");
}

// The fault-free world the maintenance and query protocols start from,
// exactly as the fuzz runner builds it.
struct World {
  Clustering clustering;
  std::vector<int> tree_parent;
  std::optional<ClusterIndex> index;
  std::optional<Backbone> backbone;
};

World BuildWorld(const SensorDataset& ds, double delta, uint64_t seed) {
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.synchronous = true;
  cfg.seed = seed;
  ElinkResult r = Unwrap(RunElink(ds, cfg, ElinkMode::kExplicit), "elink");
  World w;
  w.clustering = std::move(r.clustering);
  w.tree_parent = BuildClusterTrees(w.clustering, ds.topology.adjacency);
  w.index = ClusterIndex::Build(w.clustering, w.tree_parent, ds.features,
                                *ds.metric);
  w.backbone = Backbone::Build(w.clustering, ds.topology.adjacency, nullptr,
                               &ds.features, ds.metric.get());
  return w;
}

// Runs `protocol` once with `telemetry` attached and returns the final
// MessageStats ledger for the report.
MessageStats RunProfiled(const std::string& protocol, const SensorDataset& ds,
                         double delta, uint64_t seed,
                         obs::RunTelemetry* telemetry) {
  if (protocol == "elink") {
    ElinkConfig cfg;
    cfg.delta = delta;
    cfg.seed = seed;
    cfg.observer = telemetry;
    return Unwrap(RunElink(ds, cfg, ElinkMode::kExplicit), "elink").stats;
  }
  const int n = ds.topology.num_nodes();
  const World w = BuildWorld(ds, delta, seed);
  if (protocol == "maintenance") {
    MaintenanceConfig mcfg;
    mcfg.delta = delta;
    DistributedMaintenance dm(ds.topology, w.clustering, ds.features,
                              ds.metric, mcfg, /*synchronous=*/true, seed);
    dm.set_observer(telemetry);
    // A deterministic update mix: mostly small drift, some jumps toward
    // another node's feature to provoke escalation and re-merge.
    Rng rng(seed);
    const int updates = n / 8 + 4;
    for (int u = 0; u < updates; ++u) {
      const int node = static_cast<int>(rng.UniformInt(n));
      Feature f = dm.CurrentFeatures()[node];
      if (rng.Bernoulli(0.5)) {
        for (double& v : f) v += rng.Uniform(-0.4, 0.4) * delta;
      } else {
        const Feature& target = ds.features[rng.UniformInt(n)];
        for (size_t k = 0; k < f.size(); ++k) {
          f[k] = target[k] + rng.Uniform(-0.1, 0.1) * delta;
        }
      }
      CheckOk(dm.ApplyUpdate(node, f), "maintenance update");
    }
    CheckOk(dm.RunToQuiescence(), "maintenance drain");
    return dm.stats();
  }
  if (protocol == "range_query") {
    DistributedRangeQuery::ProtocolOptions opt;
    opt.seed = seed;
    opt.observer = telemetry;
    DistributedRangeQuery q(ds.topology, w.clustering, *w.index, *w.backbone,
                            ds.features, ds.metric, opt);
    Rng rng(seed);
    const int initiator = static_cast<int>(rng.UniformInt(n));
    Feature center = ds.features[rng.UniformInt(n)];
    for (double& v : center) v += rng.Uniform(-0.3, 0.3) * delta;
    const DistributedQueryOutcome o =
        Unwrap(q.Run(initiator, center, 0.8 * delta), "range_query");
    return o.stats;
  }
  if (protocol == "path_query") {
    PathProtocolOptions opt;
    opt.seed = seed;
    opt.observer = telemetry;
    DistributedPathQuery q(ds.topology, w.clustering, *w.index, *w.backbone,
                           ds.features, ds.metric, opt);
    Rng rng(seed);
    const int source = static_cast<int>(rng.UniformInt(n));
    const int destination = static_cast<int>(rng.UniformInt(n));
    Feature danger = ds.features[rng.UniformInt(n)];
    for (double& v : danger) v += rng.Uniform(-0.3, 0.3) * delta;
    const PathQueryResult r = Unwrap(
        q.Run(source, destination, danger, 0.5 * delta), "path_query");
    return r.stats;
  }
  std::fprintf(stderr,
               "unknown --protocol '%s' (expected elink, maintenance, "
               "range_query, path_query)\n",
               protocol.c_str());
  std::exit(1);
}

void PrintSummary(const obs::CausalGraph& g, const obs::Tracer& tracer) {
  const obs::CausalGraph::DepthStats s = g.Stats();
  std::printf("causal forest: %zu nodes (%llu sends, %llu delivers, "
              "%llu drops, %llu timers), %llu genesis, %llu orphans\n",
              g.nodes().size(), (unsigned long long)s.sends,
              (unsigned long long)s.delivers, (unsigned long long)s.drops,
              (unsigned long long)s.timers, (unsigned long long)s.genesis,
              (unsigned long long)s.orphans);
  uint64_t max_width = 0;
  for (const uint64_t w : s.width_by_depth) {
    if (w > max_width) max_width = w;
  }
  std::printf("depth: max %u causal, max %u message rounds, peak width %llu; "
              "run end t=%.6g\n",
              s.max_depth, s.max_msg_depth, (unsigned long long)max_width,
              g.run_end_time());
  std::printf("trace ring: %zu/%zu retained, %llu overwritten\n",
              tracer.size(), tracer.capacity(),
              (unsigned long long)tracer.overwritten());
  if (tracer.overwritten() > 0) {
    std::fprintf(stderr,
                 "warning: trace ring overflowed (%llu events lost); the "
                 "critical path below covers a suffix of the run\n",
                 (unsigned long long)tracer.overwritten());
  }

  const std::vector<uint32_t> path = g.CriticalPath();
  std::printf("critical path (%zu steps):\n", path.size());
  double prev_end = 0.0;
  for (const uint32_t idx : path) {
    const obs::CausalNode& n = g.nodes()[idx];
    const char* kind = n.kind == obs::CausalNode::Kind::kSend      ? "send"
                       : n.kind == obs::CausalNode::Kind::kDeliver ? "deliver"
                       : n.kind == obs::CausalNode::Kind::kDrop    ? "drop"
                                                                   : "timer";
    std::printf("  t=%-10.6g +%-9.6g %-7s node %-4d", n.time,
                n.end_time - prev_end, kind, n.node);
    prev_end = n.end_time;
    if (n.peer >= 0) std::printf(" -> %-4d", n.peer);
    if (n.kind == obs::CausalNode::Kind::kTimer) {
      std::printf(" timer_id=%lld", n.value);
    } else {
      std::printf(" %s", g.label(n.label).c_str());
    }
    if (n.hops > 0) std::printf(" (%u hops)", n.hops);
    if (n.units > 0) std::printf(" units=%llu", (unsigned long long)n.units);
    std::printf("\n");
  }
}

int RunProfile(int argc, char** argv) {
  const std::string protocol =
      StringFlag(argc, argv, "--protocol", "elink");
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(StringFlag(argc, argv, "--seed", "11").c_str()));
  const int nodes =
      std::atoi(StringFlag(argc, argv, "--nodes", "120").c_str());
  const long long trace_cap =
      std::atoll(StringFlag(argc, argv, "--trace-cap", "262144").c_str());
  const std::string report_out = StringFlag(argc, argv, "--report-out");
  const std::string collapsed_out =
      StringFlag(argc, argv, "--collapsed-out");
  const std::string weight_name =
      StringFlag(argc, argv, "--collapsed-weight", "units");
  const std::string trace_out = StringFlag(argc, argv, "--trace-out");
  if (nodes < 4 || trace_cap <= 0) {
    std::fprintf(stderr, "--nodes must be >= 4 and --trace-cap positive\n");
    return 1;
  }
  obs::CausalGraph::Weight weight = obs::CausalGraph::Weight::kUnits;
  if (weight_name == "events") {
    weight = obs::CausalGraph::Weight::kEvents;
  } else if (weight_name == "bytes") {
    weight = obs::CausalGraph::Weight::kBytes;
  } else if (weight_name != "units") {
    std::fprintf(stderr, "--collapsed-weight must be events|units|bytes\n");
    return 1;
  }

  const SensorDataset ds = MakeDeployment(nodes);
  const double delta = 0.3 * FeatureDiameter(ds);

  obs::Tracer tracer(static_cast<size_t>(trace_cap));
  obs::RunTelemetry telemetry;
  telemetry.set_next(&tracer);
  const MessageStats stats =
      RunProfiled(protocol, ds, delta, seed, &telemetry);

  const obs::CausalGraph g = obs::CausalGraph::Build(tracer);
  std::printf("causal profile: %s, %d nodes, seed %llu\n", protocol.c_str(),
              nodes, (unsigned long long)seed);
  PrintSummary(g, tracer);

  if (!report_out.empty()) {
    obs::RunReport report = telemetry.MakeReport(protocol, seed, stats);
    report.SetParam("nodes", nodes);
    report.SetParam("delta", delta);
    report.SetParam("trace_cap", trace_cap);
    report.SetSectionJson("critical_path", g.CriticalPathJson());
    report.SetSectionJson("trace", tracer.StatsJson());
    WriteOrDie(report_out, report.ToJson());
  }
  if (!collapsed_out.empty()) {
    WriteOrDie(collapsed_out, g.ExportCollapsed(weight));
  }
  if (!trace_out.empty()) {
    WriteOrDie(trace_out, tracer.ExportChromeTrace());
  }
  // A structurally broken graph (lost causes without ring overflow) is a
  // tracing bug, not a profile: fail loudly so CI notices.
  if (g.complete() && g.orphans() != 0) {
    std::fprintf(stderr, "error: %llu orphan(s) in a complete trace\n",
                 (unsigned long long)g.orphans());
    return 1;
  }
  return 0;
}

// Causal message depth (send->deliver generations, the paper's round
// complexity) against Theorem 1's O(sqrt(N) log N) convergence bound.  The
// last column is depth / (sqrt(N) ln N): bounded (non-increasing in the
// tail) iff the empirical depth respects the theorem.
int RunSweep(int argc, char** argv) {
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(StringFlag(argc, argv, "--seed", "11").c_str()));
  const long long trace_cap =
      std::atoll(StringFlag(argc, argv, "--trace-cap", "1048576").c_str());
  const std::string csv_out = StringFlag(argc, argv, "--csv-out");

  std::string csv =
      "nodes,trace_events,max_depth,max_msg_depth,end_time,"
      "sqrt_n_log_n,depth_over_bound\n";
  PrintRow({"nodes", "events", "depth", "msg_depth", "end_time",
            "sqrt(N)lnN", "ratio"});
  for (int n = 100; n <= 800; n += 100) {
    const SensorDataset ds = MakeDeployment(n);
    const double delta = 0.3 * FeatureDiameter(ds);
    obs::Tracer tracer(static_cast<size_t>(trace_cap));
    obs::RunTelemetry telemetry;
    telemetry.set_next(&tracer);
    ElinkConfig cfg;
    cfg.delta = delta;
    cfg.seed = seed;
    cfg.observer = &telemetry;
    (void)Unwrap(RunElink(ds, cfg, ElinkMode::kExplicit), "elink");
    if (tracer.overwritten() > 0) {
      std::fprintf(stderr,
                   "warning: N=%d overflowed the trace ring (%llu lost); "
                   "raise --trace-cap for exact depths\n",
                   n, (unsigned long long)tracer.overwritten());
    }
    const obs::CausalGraph g = obs::CausalGraph::Build(tracer);
    const obs::CausalGraph::DepthStats s = g.Stats();
    const double bound = std::sqrt(static_cast<double>(n)) *
                         std::log(static_cast<double>(n));
    const double ratio = static_cast<double>(s.max_msg_depth) / bound;
    char row[160];
    std::snprintf(row, sizeof(row), "%d,%llu,%u,%u,%.6g,%.6g,%.6g\n", n,
                  (unsigned long long)tracer.total_recorded(), s.max_depth,
                  s.max_msg_depth, g.run_end_time(), bound, ratio);
    csv += row;
    PrintRow({Cell(n), Cell(tracer.total_recorded()),
              Cell(static_cast<int>(s.max_depth)),
              Cell(static_cast<int>(s.max_msg_depth)),
              Cell(g.run_end_time(), 1), Cell(bound, 1), Cell(ratio, 3)});
  }
  if (!csv_out.empty()) WriteOrDie(csv_out, csv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep") == 0) return RunSweep(argc, argv);
  }
  return RunProfile(argc, argv);
}
