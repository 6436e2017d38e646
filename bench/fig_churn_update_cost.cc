// Churn figure — incremental self-healing vs full re-clustering, by churn
// rate.
//
// A terrain deployment is clustered once, then a scheduled sequence of
// crash-with-repair events plays out over a fixed window.  Two repair
// strategies are charged for the same schedule:
//
//  * incremental — the Section-6 maintenance protocol runs churn-aware:
//    orphan adoption, re-probe on repair, epoch bumps.  Cost is the repair
//    traffic of one long-lived session.
//  * rebuild — a strawman that re-runs the full ELink construction over the
//    live topology after every topology change (crash and repair alike).
//    Cost is the sum of those construction runs.
//
// Expected shape: incremental stays well below rebuild at low-to-moderate
// churn, and the gap narrows as the event rate grows.  Output is CSV; pass
// --report-out for machine-readable run reports.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "data/terrain.h"
#include "obs/telemetry.h"
#include "sim/churn.h"
#include "sim/graph.h"

using namespace elink;
using namespace elink::bench;

namespace {

// Crash-with-repair schedule with k non-overlapping absences spread over
// [t0, t0 + window].  Victims are drawn so the live graph stays connected
// while they are away (a rebuild over a partitioned network cannot even
// run), which also keeps the two strategies comparable.
ChurnPlan MakeSchedule(int k, const Topology& topo, Rng* rng) {
  ChurnPlan plan;
  const double t0 = 10.0;
  const double window = 120.0;
  const double slot = window / k;
  const int n = topo.num_nodes();
  for (int i = 0; i < k; ++i) {
    int victim = -1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int v = static_cast<int>(rng->UniformInt(n));
      std::vector<char> mask(n, 1);
      mask[v] = 0;
      if (IsInducedConnected(topo.adjacency, mask)) {
        victim = v;
        break;
      }
    }
    if (victim < 0) continue;  // Every candidate was an articulation point.
    ChurnPlan::NodeCrash crash;
    crash.node = victim;
    crash.crash_at = t0 + i * slot + rng->Uniform(0.0, 0.2 * slot);
    crash.recover_at = crash.crash_at + rng->Uniform(0.4, 0.7) * slot;
    plan.crashes.push_back(crash);
  }
  return plan;
}

// The live induced deployment for a rebuild: present nodes keep their
// positions and surviving radio edges, with ids compacted.
void LiveSubgraph(const Topology& full, const std::vector<char>& present,
                  const std::vector<Feature>& features, Topology* sub,
                  std::vector<Feature>* sub_features) {
  const int n = full.num_nodes();
  std::vector<int> remap(n, -1);
  sub->positions.clear();
  sub->adjacency.clear();
  sub_features->clear();
  for (int i = 0; i < n; ++i) {
    if (!present[i]) continue;
    remap[i] = static_cast<int>(sub->positions.size());
    sub->positions.push_back(full.positions[i]);
    sub_features->push_back(features[i]);
  }
  sub->adjacency.resize(sub->positions.size());
  for (int i = 0; i < n; ++i) {
    if (remap[i] < 0) continue;
    for (int nb : full.adjacency[i]) {
      if (remap[nb] >= 0) sub->adjacency[remap[i]].push_back(remap[nb]);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string report_out = StringFlag(argc, argv, "--report-out");
  TerrainConfig tcfg;
  tcfg.num_nodes = 150;
  tcfg.radio_range_fraction = 0.12;
  const SensorDataset ds = Unwrap(MakeTerrainDataset(tcfg), "terrain");
  const int n = ds.topology.num_nodes();
  const double delta = 0.3 * FeatureDiameter(ds);

  ElinkConfig ecfg;
  ecfg.delta = delta;
  ecfg.seed = 11;
  const ElinkResult baseline =
      Unwrap(RunElink(ds, ecfg, ElinkMode::kExplicit), "elink baseline");

  std::printf("events,incremental_units,rebuild_units,"
              "incremental_bytes,rebuild_bytes,rebuild_runs,"
              "rebuild_over_incremental,epoch_bumps\n");

  std::vector<obs::RunReport> reports;
  for (int events : {1, 2, 4, 8, 16, 24}) {
    Rng rng(2026 + events);
    const ChurnPlan plan = MakeSchedule(events, ds.topology, &rng);

    // -- Incremental: one churn-aware maintenance session ----------------
    MaintenanceConfig mcfg;
    mcfg.delta = delta;
    obs::RunTelemetry tele;
    DistributedMaintenance dm(ds.topology, baseline.clustering, ds.features,
                              ds.metric, mcfg, /*synchronous=*/false,
                              /*seed=*/7, FaultPlan{}, plan);
    dm.set_observer(&tele);
    CheckOk(dm.RunToQuiescence(), "churn-aware maintenance");
    const uint64_t incremental = dm.stats().total_units();
    const uint64_t incremental_bytes = dm.stats().total_bytes();
    long long epoch_bumps = 0;
    for (int i = 0; i < n; ++i) {
      if (dm.NodeLive(i) && dm.CurrentClustering().root_of[i] == i) {
        epoch_bumps += dm.cluster_epoch(i);
      }
    }

    // -- Rebuild: full ELink on the live topology after every change -----
    struct Change {
      double at;
      int node;
      bool back;
    };
    std::vector<Change> timeline;
    for (const auto& crash : plan.crashes) {
      timeline.push_back({crash.crash_at, crash.node, false});
      timeline.push_back({crash.recover_at, crash.node, true});
    }
    std::sort(timeline.begin(), timeline.end(),
              [](const Change& a, const Change& b) { return a.at < b.at; });
    uint64_t rebuild = 0;
    uint64_t rebuild_bytes = 0;
    int rebuild_runs = 0;
    std::vector<char> present(n, 1);
    for (const Change& ch : timeline) {
      present[ch.node] = ch.back ? 1 : 0;
      Topology sub;
      std::vector<Feature> sub_features;
      LiveSubgraph(ds.topology, present, ds.features, &sub, &sub_features);
      const ElinkResult run = Unwrap(
          RunElink(sub, sub_features, *ds.metric, ecfg, ElinkMode::kExplicit),
          "elink rebuild");
      rebuild += run.stats.total_units();
      rebuild_bytes += run.stats.total_bytes();
      ++rebuild_runs;
    }

    std::printf("%d,%llu,%llu,%llu,%llu,%d,%.2f,%lld\n", events,
                (unsigned long long)incremental, (unsigned long long)rebuild,
                (unsigned long long)incremental_bytes,
                (unsigned long long)rebuild_bytes, rebuild_runs,
                incremental ? static_cast<double>(rebuild) / incremental : 0.0,
                epoch_bumps);

    obs::RunReport rep = tele.MakeReport("maintenance_churn", 7, dm.stats());
    rep.SetParam("events", events);
    rep.metrics.SetGauge("incremental_units",
                         static_cast<double>(incremental));
    rep.metrics.SetGauge("rebuild_units", static_cast<double>(rebuild));
    rep.metrics.SetGauge("incremental_bytes",
                         static_cast<double>(incremental_bytes));
    rep.metrics.SetGauge("rebuild_bytes", static_cast<double>(rebuild_bytes));
    rep.metrics.SetGauge("epoch_bumps", static_cast<double>(epoch_bumps));
    reports.push_back(std::move(rep));
  }
  if (!report_out.empty()) WriteRunReports(report_out, reports);
  return 0;
}
