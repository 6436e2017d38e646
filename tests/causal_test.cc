// Tests for the causal-tracing subsystem: graph construction from synthetic
// trace streams (parenting, depth folding, hop folding, orphan accounting),
// the exporters' determinism and ring-overflow degradation on real traced
// runs, the Chrome flow arrows, the attribution parity with MessageStats,
// the CheckCausalGraph invariant, and the check_fuzz --disable=causal knob.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "check/causal.h"
#include "check/scenario.h"
#include "cluster/elink.h"
#include "data/terrain.h"
#include "obs/causal.h"
#include "obs/trace.h"
#include "proto/wire.h"

namespace elink {
namespace {

using obs::CausalGraph;
using obs::CausalNode;
using obs::Tracer;
using CausalInfo = SimObserver::CausalInfo;

Message Msg(const std::string& category, int doubles = 0) {
  Message m;
  m.category = InternCategory(category);
  m.doubles.assign(static_cast<size_t>(doubles), 1.0);
  return m;
}

// -- Graph construction from synthetic streams -------------------------------

// A four-generation chain: genesis send -> deliver -> send -> deliver ->
// timer fire armed by the second delivery handler.
Tracer ChainTrace() {
  Tracer t(64);
  const Message m = Msg("expand");
  t.OnCausal(CausalInfo{0, 1, 0});
  t.OnSend(0.0, 0, 1, m, 1.0);
  t.OnCausal(CausalInfo{1, 1, 0});
  t.OnDeliver(1.0, 0, 1, m);
  t.OnCausal(CausalInfo{0, 2, 1});
  t.OnSend(1.0, 1, 2, m, 2.0);
  t.OnCausal(CausalInfo{2, 2, 0});
  t.OnDeliver(3.0, 1, 2, m);
  t.OnCausal(CausalInfo{3, 0, 2});
  t.OnTimerFire(5.0, 2, 42);
  return t;
}

TEST(CausalGraphTest, ChainComputesParentsAndDepths) {
  const Tracer t = ChainTrace();
  const CausalGraph g = CausalGraph::Build(t);
  ASSERT_EQ(g.nodes().size(), 5u);
  EXPECT_TRUE(g.complete());
  EXPECT_EQ(g.orphans(), 0u);

  const std::vector<int32_t> parents = {-1, 0, 1, 2, 3};
  const std::vector<uint32_t> depths = {0, 1, 2, 3, 4};
  const std::vector<uint32_t> msg_depths = {0, 1, 1, 2, 2};
  const std::vector<CausalNode::Kind> kinds = {
      CausalNode::Kind::kSend, CausalNode::Kind::kDeliver,
      CausalNode::Kind::kSend, CausalNode::Kind::kDeliver,
      CausalNode::Kind::kTimer};
  for (size_t i = 0; i < g.nodes().size(); ++i) {
    EXPECT_EQ(g.nodes()[i].parent, parents[i]) << "node " << i;
    EXPECT_EQ(g.nodes()[i].depth, depths[i]) << "node " << i;
    EXPECT_EQ(g.nodes()[i].msg_depth, msg_depths[i]) << "node " << i;
    EXPECT_EQ(g.nodes()[i].kind, kinds[i]) << "node " << i;
  }

  const CausalGraph::DepthStats s = g.Stats();
  EXPECT_EQ(s.max_depth, 4u);
  EXPECT_EQ(s.max_msg_depth, 2u);
  EXPECT_EQ(s.genesis, 1u);
  EXPECT_EQ(s.sends, 2u);
  EXPECT_EQ(s.delivers, 2u);
  EXPECT_EQ(s.timers, 1u);
  ASSERT_EQ(s.width_by_depth.size(), 5u);
  for (const uint64_t w : s.width_by_depth) EXPECT_EQ(w, 1u);

  // Critical path: the timer fire at t=5 is the latest end time, and its
  // chain runs all the way back to the genesis send.
  EXPECT_EQ(g.CriticalPath(), (std::vector<uint32_t>{0, 1, 2, 3, 4}));

  // Plain sends charge their own units: two "expand" control frames.
  const std::map<std::string, uint64_t> units = g.UnitsByCategory();
  ASSERT_EQ(units.count("expand"), 1u);
  EXPECT_EQ(units.at("expand"), 2u);

  // Sim node 2 saw a delivery (index 3) then a timer fire (index 4): the
  // timer is its causally-last activation.
  const std::vector<int32_t> last = g.LastActivation();
  ASSERT_EQ(last.size(), 3u);
  EXPECT_EQ(last[1], 1);
  EXPECT_EQ(last[2], 4);
}

TEST(CausalGraphTest, RoutedHopsFoldIntoClosingSend) {
  Tracer t(64);
  const Message m = Msg("route", /*doubles=*/3);  // CostUnits() == 3.
  // Route walk: two relay hops, then the closing send, then the delivery.
  t.OnCausal(CausalInfo{0, 7, 0});
  t.OnHop(0.0, 0, 1, m);
  t.OnCausal(CausalInfo{0, 7, 0});
  t.OnHop(1.0, 1, 2, m);
  t.OnCausal(CausalInfo{0, 7, 0});
  t.OnSend(0.0, 0, 2, m, 2.0);
  t.OnCausal(CausalInfo{9, 7, 0});
  t.OnDeliver(2.0, 0, 2, m);

  const CausalGraph g = CausalGraph::Build(t);
  ASSERT_EQ(g.nodes().size(), 2u);  // Hops fold; only send + deliver remain.
  const CausalNode& send = g.nodes()[0];
  EXPECT_EQ(send.kind, CausalNode::Kind::kSend);
  EXPECT_EQ(send.hops, 2u);
  EXPECT_EQ(send.units, 6u);  // Two relay transmissions x 3 units each.
  const CausalNode& deliver = g.nodes()[1];
  EXPECT_EQ(deliver.parent, 0);
  EXPECT_EQ(deliver.msg_depth, 1u);
  EXPECT_EQ(g.UnitsByCategory().at("route"), 6u);
}

TEST(CausalGraphTest, MissingCauseBecomesCountedOrphan) {
  Tracer t(8);
  // A delivery whose matching send was never recorded (as after a ring
  // overwrite): it roots a fresh subtree and is counted, not dropped.
  t.OnCausal(CausalInfo{5, 99, 0});
  t.OnDeliver(1.0, 0, 1, Msg("late"));
  const CausalGraph g = CausalGraph::Build(t);
  ASSERT_EQ(g.nodes().size(), 1u);
  EXPECT_TRUE(g.nodes()[0].orphan);
  EXPECT_EQ(g.nodes()[0].parent, -1);
  EXPECT_EQ(g.nodes()[0].depth, 0u);
  EXPECT_EQ(g.orphans(), 1u);
}

// -- CheckCausalGraph on synthetic streams ------------------------------------

TEST(CheckCausalGraphTest, FlagsDeliveryTimeDisagreeingWithSendDelay) {
  Tracer t(16);
  const Message m = Msg("x");
  t.OnCausal(CausalInfo{0, 1, 0});
  t.OnSend(0.0, 0, 1, m, 1.0);
  t.OnCausal(CausalInfo{1, 1, 0});
  t.OnDeliver(2.0, 0, 1, m);  // Arrives at 2.0; the send promised 1.0.
  MessageStats stats;
  stats.Record(InternCategory("x"), m.CostUnits());
  EXPECT_FALSE(check::CheckCausalGraph(t, stats).ok());
}

TEST(CheckCausalGraphTest, FlagsLedgerDisagreement) {
  const Tracer t = ChainTrace();
  MessageStats empty;  // The graph attributes 2 "expand" units; ledger has 0.
  EXPECT_FALSE(check::CheckCausalGraph(t, empty).ok());
  MessageStats matching;  // Units AND bytes must both reconcile.
  const uint64_t frame = wire::FrameSize(Msg("expand"));
  matching.Record(InternCategory("expand"), 1, frame);
  matching.Record(InternCategory("expand"), 1, frame);
  EXPECT_TRUE(check::CheckCausalGraph(t, matching).ok())
      << check::CheckCausalGraph(t, matching).ToString();
}

// -- Real traced runs ---------------------------------------------------------

SensorDataset Terrain(int n) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 9;
  return std::move(MakeTerrainDataset(cfg)).value();
}

struct CausalRun {
  ElinkResult result;
  std::string critical_path;
  std::string collapsed_units;
  std::string collapsed_events;
  std::string chrome;
};

CausalRun RunCausalElink(uint64_t seed, size_t capacity = 1 << 16) {
  const SensorDataset ds = Terrain(80);
  ElinkConfig cfg;
  cfg.delta = 0.3 * FeatureDiameter(ds);
  cfg.seed = seed;
  Tracer tracer(capacity);
  cfg.observer = &tracer;
  Result<ElinkResult> r = RunElink(ds, cfg, ElinkMode::kExplicit);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const CausalGraph g = CausalGraph::Build(tracer);
  CausalRun out;
  out.result = std::move(r).value();
  out.critical_path = g.CriticalPathJson();
  out.collapsed_units = g.ExportCollapsed(CausalGraph::Weight::kUnits);
  out.collapsed_events = g.ExportCollapsed(CausalGraph::Weight::kEvents);
  out.chrome = tracer.ExportChromeTrace();
  return out;
}

TEST(CausalIntegrationTest, SameSeedCausalArtifactsAreByteIdentical) {
  const CausalRun a = RunCausalElink(/*seed=*/11);
  const CausalRun b = RunCausalElink(/*seed=*/11);
  ASSERT_FALSE(a.critical_path.empty());
  ASSERT_FALSE(a.collapsed_units.empty());
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.collapsed_units, b.collapsed_units);
  EXPECT_EQ(a.collapsed_events, b.collapsed_events);
  EXPECT_EQ(a.chrome, b.chrome);
}

TEST(CausalIntegrationTest, ChromeTraceCarriesFlowArrows) {
  const CausalRun run = RunCausalElink(/*seed=*/11);
  // Causally-annotated message journeys render as Chrome flow arrows: a
  // flow-start record at the send and a binding-point-enclosed flow-finish
  // at the matching deliver.
  EXPECT_NE(run.chrome.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(run.chrome.find("\"bp\":\"e\""), std::string::npos);
  // A complete ring exports no overflow banner.
  EXPECT_EQ(run.chrome.find("overwrote"), std::string::npos);
}

TEST(CausalIntegrationTest, AttachingTracerNeverChangesTheRun) {
  const SensorDataset ds = Terrain(80);
  ElinkConfig cfg;
  cfg.delta = 0.3 * FeatureDiameter(ds);
  cfg.seed = 11;
  Result<ElinkResult> plain = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(plain.ok());
  const CausalRun traced = RunCausalElink(/*seed=*/11);
  EXPECT_EQ(plain.value().clustering.root_of,
            traced.result.clustering.root_of);
  EXPECT_DOUBLE_EQ(plain.value().completion_time,
                   traced.result.completion_time);
  EXPECT_EQ(plain.value().stats.total_units(),
            traced.result.stats.total_units());
}

TEST(CausalIntegrationTest, AttributionMatchesMessageStatsLedger) {
  const SensorDataset ds = Terrain(80);
  ElinkConfig cfg;
  cfg.delta = 0.3 * FeatureDiameter(ds);
  cfg.seed = 11;
  Tracer tracer(1 << 16);
  cfg.observer = &tracer;
  Result<ElinkResult> r = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(tracer.overwritten(), 0u) << "raise the test ring capacity";

  const CausalGraph g = CausalGraph::Build(tracer);
  EXPECT_EQ(g.orphans(), 0u);
  EXPECT_EQ(g.UnitsByCategory(), r.value().stats.units_by_category());
  // Bytes flow through the same attribution; every category must agree.
  const std::map<std::string, uint64_t> bytes = g.BytesByCategory();
  for (const auto& c : r.value().stats.Snapshot()) {
    if (c.bytes == 0) continue;
    ASSERT_EQ(bytes.count(c.category), 1u) << c.category;
    EXPECT_EQ(bytes.at(c.category), c.bytes) << c.category;
  }
  // And the packaged invariant agrees end to end.
  EXPECT_TRUE(check::CheckCausalGraph(tracer, r.value().stats).ok());
}

TEST(CausalIntegrationTest, OverflowedRingDegradesGracefully) {
  const SensorDataset ds = Terrain(80);
  ElinkConfig cfg;
  cfg.delta = 0.3 * FeatureDiameter(ds);
  cfg.seed = 11;
  Tracer tracer(/*capacity=*/256);  // Far too small for an 80-node run.
  cfg.observer = &tracer;
  Result<ElinkResult> r = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(tracer.overwritten(), 0u);

  // Both exporters lead with an explicit overflow banner.
  const std::string jsonl = tracer.ExportJsonl();
  EXPECT_EQ(jsonl.rfind("{\"warning\":", 0), 0u) << jsonl.substr(0, 80);
  EXPECT_NE(tracer.ExportChromeTrace().find("otherData"), std::string::npos);

  const CausalGraph g = CausalGraph::Build(tracer);
  EXPECT_FALSE(g.complete());
  EXPECT_EQ(g.overwritten(), tracer.overwritten());
  EXPECT_EQ(g.ExportCollapsed().rfind("# warning:", 0), 0u);
  // The invariant degrades to structural checks instead of failing on the
  // truncated window.
  EXPECT_TRUE(check::CheckCausalGraph(tracer, r.value().stats).ok())
      << check::CheckCausalGraph(tracer, r.value().stats).ToString();
}

// -- check_fuzz knob ----------------------------------------------------------

TEST(ScenarioKnobsTest, CausalDisableRoundTrips) {
  check::ScenarioKnobs defaults;
  EXPECT_TRUE(defaults.causal);
  EXPECT_EQ(defaults.DisableList(), "");

  Result<check::ScenarioKnobs> parsed =
      check::ScenarioKnobs::FromDisableList("causal");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed.value().causal);
  EXPECT_TRUE(parsed.value().faults);
  EXPECT_EQ(parsed.value().DisableList(), "causal");

  EXPECT_FALSE(check::ScenarioKnobs::FromDisableList("causality").ok());
}

}  // namespace
}  // namespace elink
