// Tests for the observability layer: metrics primitives, the trace ring
// buffer and its exporters (including the byte-identity guarantee for
// same-seed runs), telemetry-built RunReports for all four protocols, and
// the no-observer run being bit-identical to an observed one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/elink.h"
#include "cluster/maintenance.h"
#include "cluster/maintenance_protocol.h"
#include "common/rng.h"
#include "data/terrain.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/path_query_protocol.h"
#include "index/query_protocol.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace elink {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::RunReport;
using obs::RunTelemetry;
using obs::Tracer;

// -- Metrics primitives -----------------------------------------------------

TEST(HistogramTest, BucketsAreLogTwoSpaced) {
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketOf(-3.0), 0);
  // Values within one power of two share a bucket; doubling moves one up.
  const int b1 = Histogram::BucketOf(1.0);
  EXPECT_EQ(Histogram::BucketOf(1.5), b1);
  EXPECT_EQ(Histogram::BucketOf(2.0), b1 + 1);
  EXPECT_EQ(Histogram::BucketOf(4.0), b1 + 2);
  // The lower bound of a value's bucket never exceeds the value.
  for (double v : {1e-7, 0.02, 1.0, 3.7, 1024.0, 9.9e11}) {
    const int b = Histogram::BucketOf(v);
    EXPECT_LE(Histogram::BucketLowerBound(b), v);
    if (b + 1 < Histogram::kNumBuckets) {
      EXPECT_GT(Histogram::BucketLowerBound(b + 1), v);
    }
  }
}

TEST(HistogramTest, RecordAndMergeTrackMoments) {
  Histogram a;
  a.Record(1.0);
  a.Record(3.0);
  Histogram b;
  b.Record(0.5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 4.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  // Empty histograms render zeros rather than sentinels.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 3u);
}

TEST(MetricsRegistryTest, MergeCombinesByNameAcrossInternOrders) {
  // Two workers intern the same metrics in different orders (as parallel
  // trial runners do); Merge must match by name, not by id.
  MetricsRegistry a;
  a.AddCounter("alpha", 2);
  a.AddCounter("beta", 3);
  a.RecordHistogram("h", 1.0);
  a.SetGauge("g", 1.5);

  MetricsRegistry b;
  b.AddCounter("beta", 10);
  b.AddCounter("gamma", 1);
  b.RecordHistogram("h", 4.0);
  b.SetGauge("g", 2.5);

  a.Merge(b);
  EXPECT_EQ(a.counter("alpha"), 2u);
  EXPECT_EQ(a.counter("beta"), 13u);
  EXPECT_EQ(a.counter("gamma"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 2.5);  // Gauges: last writer wins.
  ASSERT_NE(a.histogram("h"), nullptr);
  EXPECT_EQ(a.histogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("h")->sum(), 5.0);

  // Serialization is sorted by name, so it is independent of intern order.
  MetricsRegistry c;
  c.AddCounter("gamma", 1);
  c.AddCounter("alpha", 2);
  c.AddCounter("beta", 13);
  c.RecordHistogram("h", 1.0);
  c.RecordHistogram("h", 4.0);
  c.SetGauge("g", 2.5);
  EXPECT_EQ(a.ToJson(), c.ToJson());
}

TEST(MetricsRegistryTest, ResetKeepsInternedIds) {
  MetricsRegistry m;
  const MetricsRegistry::MetricId id = m.CounterId("x");
  m.Add(id, 7);
  m.Reset();
  EXPECT_EQ(m.counter("x"), 0u);
  m.Add(id, 1);  // Id from before the reset still valid.
  EXPECT_EQ(m.counter("x"), 1u);
}

// -- Tracer -----------------------------------------------------------------

TEST(TracerTest, RingBufferOverwritesOldestAndCounts) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.OnTimerFire(static_cast<double>(i), /*node=*/0, /*timer_id=*/i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.overwritten(), 6u);
  // The retained window is the newest 4 events, oldest first.
  std::vector<long long> timer_ids;
  tracer.ForEach([&](const obs::TraceEvent& e) {
    EXPECT_EQ(e.kind, obs::TraceKind::kTimerFire);
    timer_ids.push_back(e.value);
  });
  EXPECT_EQ(timer_ids, (std::vector<long long>{6, 7, 8, 9}));
}

TEST(TracerTest, ExportersRenderEveryRetainedEvent) {
  Tracer tracer(/*capacity=*/64);
  Message msg;
  msg.type = 3;
  msg.category = InternCategory("expand");
  tracer.OnSend(1.0, 0, 1, msg, 2.5);
  tracer.OnDeliver(3.5, 0, 1, msg);
  tracer.OnPhase(4.0, 1, "elink.round_complete", 2);
  tracer.OnWatchdogFire(9.0);

  const std::string jsonl = tracer.ExportJsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"deliver\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"label\":\"elink.round_complete\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"watchdog_fire\""), std::string::npos);
  // One line per retained event.
  EXPECT_EQ(static_cast<size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            tracer.size());

  const std::string chrome = tracer.ExportChromeTrace();
  // Sends are complete events spanning the delay; the rest are instants.
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"dur\":2500"), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
}

// -- End-to-end over the protocols ------------------------------------------

SensorDataset Terrain(int n, uint64_t seed = 9) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = seed;
  return std::move(MakeTerrainDataset(cfg)).value();
}

struct TracedElinkRun {
  ElinkResult result;
  std::string jsonl;
  std::string chrome;
  RunReport report;
};

TracedElinkRun RunTracedElink(uint64_t seed) {
  const SensorDataset ds = Terrain(80);
  ElinkConfig cfg;
  cfg.delta = 0.3 * FeatureDiameter(ds);
  cfg.seed = seed;
  RunTelemetry telemetry;
  Tracer tracer(1 << 16);
  telemetry.set_next(&tracer);
  cfg.observer = &telemetry;
  Result<ElinkResult> r = RunElink(ds, cfg, ElinkMode::kExplicit);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  TracedElinkRun out;
  out.result = std::move(r).value();
  out.jsonl = tracer.ExportJsonl();
  out.chrome = tracer.ExportChromeTrace();
  out.report = telemetry.MakeReport("elink_explicit", seed, out.result.stats);
  return out;
}

TEST(ObservabilityIntegrationTest, SameSeedTracesAreByteIdentical) {
  const TracedElinkRun a = RunTracedElink(/*seed=*/11);
  const TracedElinkRun b = RunTracedElink(/*seed=*/11);
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.report.ToJson(), b.report.ToJson());
}

TEST(ObservabilityIntegrationTest, AttachingObserverNeverChangesTheRun) {
  const SensorDataset ds = Terrain(80);
  ElinkConfig cfg;
  cfg.delta = 0.3 * FeatureDiameter(ds);
  cfg.seed = 11;
  Result<ElinkResult> plain = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(plain.ok());
  const TracedElinkRun traced = RunTracedElink(/*seed=*/11);
  EXPECT_EQ(plain.value().clustering.root_of,
            traced.result.clustering.root_of);
  EXPECT_DOUBLE_EQ(plain.value().completion_time,
                   traced.result.completion_time);
  EXPECT_EQ(plain.value().stats.total_units(),
            traced.result.stats.total_units());
}

TEST(ObservabilityIntegrationTest, ElinkReportCarriesDelayHistogram) {
  const TracedElinkRun run = RunTracedElink(/*seed=*/11);
  const Histogram* delay = run.report.metrics.histogram("message_delay");
  ASSERT_NE(delay, nullptr);
  EXPECT_GT(delay->count(), 0u);
  EXPECT_GT(delay->max(), 0.0);
  const Histogram* completion =
      run.report.metrics.histogram("node_completion");
  ASSERT_NE(completion, nullptr);
  EXPECT_GT(completion->count(), 0u);
  EXPECT_GT(run.report.metrics.counter("sim.sends"), 0u);
  EXPECT_GT(run.report.metrics.counter("phase.elink.round_complete"), 0u);
  EXPECT_EQ(run.report.protocol, "elink_explicit");
  EXPECT_EQ(run.report.total_units, run.result.stats.total_units());
  // The report serializes with the histogram embedded.
  const std::string json = run.report.ToJson();
  EXPECT_NE(json.find("\"message_delay\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol\":\"elink_explicit\""), std::string::npos);
}

TEST(ObservabilityIntegrationTest, MaintenanceReportCarriesHistograms) {
  const SensorDataset ds = Terrain(60);
  const double delta = 0.3 * FeatureDiameter(ds);
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.seed = 7;
  Result<ElinkResult> clean = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(clean.ok());

  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = 0.05 * delta;
  DistributedMaintenance maint(ds.topology, clean.value().clustering,
                               ds.features, ds.metric, mcfg);
  RunTelemetry telemetry;
  maint.set_observer(&telemetry);
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int node = static_cast<int>(rng.UniformInt(60));
    Feature f = ds.features[node];
    for (double& x : f) x += rng.Uniform(2.0, 4.0) * delta;
    maint.ApplyUpdate(node, f);
  }
  const RunReport report =
      telemetry.MakeReport("maintenance", /*seed=*/1, maint.stats());
  const Histogram* delay = report.metrics.histogram("message_delay");
  ASSERT_NE(delay, nullptr);
  EXPECT_GT(delay->count(), 0u);
  // One OnRunEnd per ApplyUpdate: the run counter reflects the sequence.
  EXPECT_EQ(report.metrics.counter("harness.runs"), 10u);
  EXPECT_EQ(report.total_units, maint.stats().total_units());
}

TEST(ObservabilityIntegrationTest, QueryReportsCarryHistograms) {
  const SensorDataset ds = Terrain(80);
  const double delta = 0.3 * FeatureDiameter(ds);
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.seed = 7;
  Result<ElinkResult> clean = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(clean.ok());
  const Clustering& clustering = clean.value().clustering;
  const std::vector<int> tree =
      BuildClusterTrees(clustering, ds.topology.adjacency);
  const ClusterIndex index =
      ClusterIndex::Build(clustering, tree, ds.features, *ds.metric);
  const Backbone backbone =
      Backbone::Build(clustering, ds.topology.adjacency, nullptr,
                      &ds.features, ds.metric.get());

  // Range query.
  RunTelemetry range_tel;
  DistributedRangeQuery::ProtocolOptions qopt;
  qopt.observer = &range_tel;
  DistributedRangeQuery range(ds.topology, clustering, index, backbone,
                              ds.features, ds.metric, qopt);
  Result<DistributedQueryOutcome> out =
      range.Run(/*initiator=*/3, ds.features[10], 0.6 * delta);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const RunReport range_report =
      range_tel.MakeReport("range_query", 1, out.value().stats);
  ASSERT_NE(range_report.metrics.histogram("message_delay"), nullptr);
  EXPECT_GT(range_report.metrics.histogram("message_delay")->count(), 0u);
  EXPECT_GT(range_report.metrics.counter("phase.query.answer"), 0u);

  // Path query.
  RunTelemetry path_tel;
  PathProtocolOptions popt;
  popt.observer = &path_tel;
  DistributedPathQuery path(ds.topology, clustering, index, backbone,
                            ds.features, ds.metric, popt);
  Result<PathQueryResult> pr =
      path.Run(/*source=*/2, /*destination=*/70, ds.features[40],
               0.4 * delta);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  const RunReport path_report =
      path_tel.MakeReport("path_query", 1, pr.value().stats);
  ASSERT_NE(path_report.metrics.histogram("message_delay"), nullptr);
  EXPECT_GT(path_report.metrics.histogram("message_delay")->count(), 0u);
}

TEST(RunReportTest, ParamsRenderTyped) {
  RunReport report;
  report.protocol = "demo";
  report.seed = 42;
  report.SetParam("nodes", 100);
  report.SetParam("delta", 0.5);
  report.SetParam("mode", "explicit");
  report.SetParam("reliable", true);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"nodes\":100"), std::string::npos);
  EXPECT_NE(json.find("\"delta\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"explicit\""), std::string::npos);
  EXPECT_NE(json.find("\"reliable\":true"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

}  // namespace
}  // namespace elink
