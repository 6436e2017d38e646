// Cost-model validation: the same range queries executed (a) by the
// centralized accounting engine and (b) as the fully distributed protocol in
// the event simulator.  Match counts must be identical; transmitted units
// should track each other closely (the engine is the model of the
// protocol); the protocol additionally reports real end-to-end latency in
// simulated hop-time.
#include "bench/bench_util.h"
#include "cluster/maintenance.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "data/tao.h"
#include "data/terrain.h"
#include "index/path_query.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "index/range_query.h"
#include "obs/telemetry.h"

using namespace elink;
using namespace elink::bench;

namespace {

void RunSuite(const SensorDataset& ds, const char* name, double delta_frac,
              std::vector<obs::RunReport>* reports) {
  const double delta = delta_frac * FeatureDiameter(ds);
  obs::RunTelemetry elink_tele;
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.seed = 21;
  ecfg.observer = &elink_tele;
  const ElinkResult clustered =
      Unwrap(RunElink(ds, ecfg, ElinkMode::kImplicit), "elink");
  const auto tree =
      BuildClusterTrees(clustered.clustering, ds.topology.adjacency);
  const ClusterIndex index = ClusterIndex::Build(clustered.clustering, tree,
                                                 ds.features, *ds.metric);
  const Backbone backbone =
      Backbone::Build(clustered.clustering, ds.topology.adjacency, nullptr,
                      &ds.features, ds.metric.get());
  RangeQueryEngine engine(clustered.clustering, index, backbone, ds.features,
                          *ds.metric, delta);
  obs::RunTelemetry query_tele;
  DistributedRangeQuery::ProtocolOptions qopt;
  qopt.observer = &query_tele;
  DistributedRangeQuery protocol(ds.topology, clustered.clustering, index,
                                 backbone, ds.features, ds.metric, qopt);

  obs::RunReport erep =
      elink_tele.MakeReport("elink_implicit", ecfg.seed, clustered.stats);
  erep.SetParam("dataset", name);
  erep.SetParam("delta", delta);
  reports->push_back(std::move(erep));

  std::printf("-- %s (N = %d, %d clusters) --\n", name,
              ds.topology.num_nodes(),
              clustered.clustering.num_clusters());
  PrintRow({"r/delta", "matches", "engine_u", "protocol_u", "latency"});
  Rng rng(5);
  const int n = ds.topology.num_nodes();
  MessageStats query_stats;
  int total_trials = 0;
  for (double rfrac : {0.4, 0.7, 1.0}) {
    long long matches = 0;
    uint64_t engine_units = 0, protocol_units = 0;
    double latency = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      const Feature q = ds.features[rng.UniformInt(n)];
      const int initiator = static_cast<int>(rng.UniformInt(n));
      const double r = rfrac * delta;
      const RangeQueryResult er = engine.Query(initiator, q, r);
      const DistributedQueryOutcome pr =
          Unwrap(protocol.Run(initiator, q, r), "protocol");
      if (pr.match_count != static_cast<long long>(er.matches.size())) {
        std::fprintf(stderr, "COUNT MISMATCH\n");
        std::abort();
      }
      matches += pr.match_count;
      engine_units += er.stats.total_units();
      protocol_units += pr.stats.total_units();
      latency += pr.latency;
      query_stats.Merge(pr.stats);
      ++total_trials;
    }
    PrintRow({Cell(rfrac, 1), Cell(static_cast<int>(matches / trials)),
              Cell(engine_units / trials), Cell(protocol_units / trials),
              Cell(latency / trials, 1)});
  }
  obs::RunReport qrep =
      query_tele.MakeReport("range_query", qopt.seed, query_stats);
  qrep.SetParam("dataset", name);
  qrep.SetParam("delta", delta);
  qrep.SetParam("trials", total_trials);
  reports->push_back(std::move(qrep));
  std::printf("\n");
}

}  // namespace

namespace {

void ValidateMaintenance(std::vector<obs::RunReport>* reports) {
  std::printf("-- Section-6 maintenance: accounting session vs distributed "
              "protocol --\n");
  TerrainConfig tcfg;
  tcfg.num_nodes = 200;
  tcfg.radio_range_fraction = 0.1;
  const SensorDataset ds = Unwrap(MakeTerrainDataset(tcfg), "terrain");
  const double delta = 0.3 * FeatureDiameter(ds);
  const double slack = 0.1 * delta;
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.slack = slack;
  ecfg.seed = 31;
  const ElinkResult base =
      Unwrap(RunElink(ds, ecfg, ElinkMode::kImplicit), "elink");

  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = slack;
  MaintenanceSession session(ds.topology, base.clustering, ds.features,
                             ds.metric, mcfg);
  DistributedMaintenance protocol(ds.topology, base.clustering, ds.features,
                                  ds.metric, mcfg);
  obs::RunTelemetry maint_tele;
  protocol.set_observer(&maint_tele);
  Rng rng(77);
  std::vector<Feature> current = ds.features;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < ds.topology.num_nodes(); ++i) {
      current[i][0] += rng.Normal(0.0, 0.03 * delta);
      session.UpdateFeature(i, current[i]);
      CheckOk(protocol.ApplyUpdate(i, current[i]), "maintenance protocol");
    }
  }
  const Status inv = protocol.ValidateRootDistanceInvariant(delta + 2 * slack);
  PrintRow({"", "clusters", "units"});
  PrintRow({"session", Cell(session.clustering().num_clusters()),
            Cell(session.stats().total_units())});
  PrintRow({"protocol", Cell(protocol.CurrentClustering().num_clusters()),
            Cell(protocol.stats().total_units())});
  std::printf("   protocol invariant: %s\n\n", inv.ToString().c_str());

  obs::RunReport mrep =
      maint_tele.MakeReport("maintenance", ecfg.seed, protocol.stats());
  mrep.SetParam("nodes", ds.topology.num_nodes());
  mrep.SetParam("rounds", 20);
  mrep.SetParam("delta", delta);
  reports->push_back(std::move(mrep));
}

void ValidatePathQuery(std::vector<obs::RunReport>* reports) {
  std::printf("-- Section-7.3 path query: accounting engine vs distributed "
              "protocol --\n");
  TerrainConfig tcfg;
  tcfg.num_nodes = 250;
  tcfg.radio_range_fraction = 0.1;
  const SensorDataset ds = Unwrap(MakeTerrainDataset(tcfg), "terrain");
  const double delta = 0.22 * FeatureDiameter(ds);
  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.seed = 21;
  const ElinkResult clustered =
      Unwrap(RunElink(ds, ecfg, ElinkMode::kImplicit), "elink");
  const auto tree =
      BuildClusterTrees(clustered.clustering, ds.topology.adjacency);
  const ClusterIndex index = ClusterIndex::Build(clustered.clustering, tree,
                                                 ds.features, *ds.metric);
  const Backbone backbone =
      Backbone::Build(clustered.clustering, ds.topology.adjacency, nullptr,
                      &ds.features, ds.metric.get());
  PathQueryEngine engine(clustered.clustering, index, backbone,
                         ds.topology.adjacency, ds.features, *ds.metric,
                         delta);
  obs::RunTelemetry path_tele;
  PathProtocolOptions popt;
  popt.observer = &path_tele;
  DistributedPathQuery protocol(ds.topology, clustered.clustering, index,
                                backbone, ds.features, ds.metric, popt);

  Rng rng(9);
  const int n = ds.topology.num_nodes();
  int found = 0;
  uint64_t engine_units = 0, protocol_units = 0;
  MessageStats path_stats;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const Feature danger = ds.features[rng.UniformInt(n)];
    const double gamma = rng.Uniform(0.3, 1.2) * delta;
    const int src = static_cast<int>(rng.UniformInt(n));
    const int dst = static_cast<int>(rng.UniformInt(n));
    const PathQueryResult er = engine.Query(src, dst, danger, gamma);
    const PathQueryResult pr =
        Unwrap(protocol.Run(src, dst, danger, gamma), "path protocol");
    // The engine is the exact cost model of this protocol: outcomes and the
    // engine-modeled categories must agree message for message.
    if (pr.found != er.found || pr.path != er.path) {
      std::fprintf(stderr, "PATH MISMATCH\n");
      std::abort();
    }
    for (const char* cat : {"path_route", "path_backbone", "path_drilldown",
                            "path_search", "path_trace"}) {
      if (pr.stats.units(cat) != er.stats.units(cat)) {
        std::fprintf(stderr, "UNIT MISMATCH in %s\n", cat);
        std::abort();
      }
    }
    if (er.found) ++found;
    engine_units += er.stats.total_units();
    protocol_units += pr.stats.total_units();
    path_stats.Merge(pr.stats);
  }
  PrintRow({"", "found", "units"});
  PrintRow({"engine", Cell(found), Cell(engine_units / trials)});
  PrintRow({"protocol", Cell(found), Cell(protocol_units / trials)});
  std::printf("   (protocol adds completion acks under path_collect)\n\n");

  obs::RunReport prep =
      path_tele.MakeReport("path_query", popt.seed, path_stats);
  prep.SetParam("nodes", ds.topology.num_nodes());
  prep.SetParam("trials", trials);
  prep.SetParam("delta", delta);
  reports->push_back(std::move(prep));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string report_out = StringFlag(argc, argv, "--report-out");
  std::vector<obs::RunReport> reports;
  std::printf("Range-query cost-model validation: accounting engine vs the "
              "distributed protocol in the simulator\n\n");
  {
    TaoConfig tao;
    RunSuite(Unwrap(MakeTaoDataset(tao), "tao"), "Tao-like", 0.35, &reports);
  }
  {
    TerrainConfig tcfg;
    tcfg.num_nodes = 400;
    tcfg.radio_range_fraction = 0.08;
    RunSuite(Unwrap(MakeTerrainDataset(tcfg), "terrain"), "Terrain", 0.2,
             &reports);
  }
  ValidateMaintenance(&reports);
  ValidatePathQuery(&reports);
  std::printf("expected: identical match counts; engine and protocol units "
              "within a small factor of each other\n");
  if (!report_out.empty()) WriteRunReports(report_out, reports);
  return 0;
}
