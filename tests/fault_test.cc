// Tests for the fault-injection layer (sim/fault.h), the reliable transport
// (sim/reliable.h), and the protocols' graceful degradation under faults:
// ELink explicit mode completing despite loss and crashes, and the
// distributed range query returning flagged partial answers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "cluster/elink.h"
#include "cluster/quadtree.h"
#include "data/terrain.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "index/query_protocol.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "sim/topology.h"

namespace elink {
namespace {

// -- FaultInjector ------------------------------------------------------------

TEST(FaultInjectorTest, DefaultPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  FaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.enabled());
}

TEST(FaultInjectorTest, CrashIntervalsAndRecovery) {
  FaultPlan plan;
  plan.node_crashes.push_back({3, 10.0, 20.0});
  plan.node_crashes.push_back({4, 5.0});  // Permanent.
  FaultInjector inj(plan, 1);
  EXPECT_TRUE(inj.enabled());
  EXPECT_FALSE(inj.IsCrashed(3, 9.9));
  EXPECT_TRUE(inj.IsCrashed(3, 10.0));
  EXPECT_TRUE(inj.IsCrashed(3, 19.9));
  EXPECT_FALSE(inj.IsCrashed(3, 20.0));  // Recovered.
  EXPECT_FALSE(inj.IsCrashed(4, 4.9));
  EXPECT_TRUE(inj.IsCrashed(4, 1e12));  // Never recovers.
  EXPECT_FALSE(inj.IsCrashed(0, 50.0));  // Unlisted nodes never crash.
}

TEST(FaultInjectorTest, LinkOutagesUndirectedAndDirected) {
  FaultPlan plan;
  plan.link_outages.push_back({0, 1, 5.0, 10.0, /*directed=*/false});
  plan.link_outages.push_back({2, 3, 0.0, 4.0, /*directed=*/true});
  FaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.LinkDown(0, 1, 4.9));
  EXPECT_TRUE(inj.LinkDown(0, 1, 5.0));
  EXPECT_TRUE(inj.LinkDown(1, 0, 7.0));  // Undirected: both directions.
  EXPECT_FALSE(inj.LinkDown(0, 1, 10.0));
  EXPECT_TRUE(inj.LinkDown(2, 3, 2.0));
  EXPECT_FALSE(inj.LinkDown(3, 2, 2.0));  // Directed: reverse unaffected.
}

TEST(FaultInjectorTest, DropProbabilityZeroAndOne) {
  FaultPlan always;
  always.drop_probability = 1.0;
  FaultInjector inj1(always, 1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(inj1.DropTransmission(0, 1, 0.0));

  FaultPlan crash_only;
  crash_only.node_crashes.push_back({7, 0.0});
  FaultInjector inj0(crash_only, 1);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(inj0.DropTransmission(0, 1, 0.0));
}

TEST(FaultInjectorTest, DropSequenceIsSeedDeterministic) {
  FaultPlan plan;
  plan.drop_probability = 0.5;
  FaultInjector a(plan, 42), b(plan, 42), c(plan, 43);
  std::vector<bool> sa, sb, sc;
  for (int i = 0; i < 200; ++i) {
    sa.push_back(a.DropTransmission(0, 1, i));
    sb.push_back(b.DropTransmission(0, 1, i));
    sc.push_back(c.DropTransmission(0, 1, i));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);  // Different seed, different stream (w.h.p.).
}

TEST(FaultInjectorTest, LinkOverrideBeatsGlobalProbability) {
  FaultPlan plan;
  plan.drop_probability = 0.0;  // Inert alone...
  plan.link_overrides.push_back({0, 1, 1.0, /*directed=*/true});
  FaultInjector inj(plan, 1);
  EXPECT_DOUBLE_EQ(inj.LinkDropProbability(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(inj.LinkDropProbability(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(inj.LinkDropProbability(2, 3), 0.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(inj.DropTransmission(0, 1, 0.0));
    EXPECT_FALSE(inj.DropTransmission(1, 0, 0.0));
  }
}

// -- Network under faults -----------------------------------------------------

class SinkNode : public Node {
 public:
  void HandleMessage(int from, const Message& msg) override {
    (void)from;
    received.push_back(msg.type);
  }
  void HandleTimer(int timer_id) override { timers.push_back(timer_id); }
  std::vector<int> received;
  std::vector<int> timers;
};

std::unique_ptr<Network> MakeFaultyGrid(FaultPlan plan) {
  Network::Config cfg;
  cfg.seed = 5;
  cfg.fault = std::move(plan);
  auto net = std::make_unique<Network>(MakeGridTopology(3, 3), cfg);
  net->InstallNodes([](int) { return std::make_unique<SinkNode>(); });
  return net;
}

TEST(NetworkFaultTest, CrashedReceiverNeverDelivers) {
  FaultPlan plan;
  plan.node_crashes.push_back({1, 0.0});
  auto net = MakeFaultyGrid(plan);
  Message m;
  m.type = 1;
  m.category = InternCategory("t");
  net->Send(0, 1, m);
  net->Send(0, 3, m);  // Healthy neighbor still works.
  net->Run();
  EXPECT_TRUE(static_cast<SinkNode*>(net->node(1))->received.empty());
  EXPECT_EQ(static_cast<SinkNode*>(net->node(3))->received.size(), 1u);
  EXPECT_EQ(net->stats().dropped_sends(), 1u);
  EXPECT_EQ(net->stats().total_sends(), 1u);  // The drop is not delivered.
  EXPECT_EQ(net->stats().dropped("t"), 1u);
}

TEST(NetworkFaultTest, CrashedSenderCannotSend) {
  FaultPlan plan;
  plan.node_crashes.push_back({0, 0.0});
  auto net = MakeFaultyGrid(plan);
  Message m;
  m.category = InternCategory("t");
  net->Send(0, 1, m);
  net->Run();
  EXPECT_TRUE(static_cast<SinkNode*>(net->node(1))->received.empty());
  EXPECT_EQ(net->stats().dropped_sends(), 1u);
}

TEST(NetworkFaultTest, CrashedNodeTimersAreSuppressed) {
  FaultPlan plan;
  plan.node_crashes.push_back({2, 0.0, 10.0});
  auto net = MakeFaultyGrid(plan);
  Network* n = net.get();
  net->SetTimer(2, 5.0, 1);   // Fires while crashed: suppressed.
  net->SetTimer(2, 15.0, 2);  // Set before the crash, fires after recovery:
                              // the repair restarts the node, so this stale
                              // timer is orphaned (it used to fire, leaking
                              // pre-crash state into the new incarnation).
  // Timers set by the recovered incarnation fire normally.
  net->ScheduleAfter(12.0, [n]() { n->SetTimer(2, 3.0, 3); });
  net->Run();
  EXPECT_EQ(static_cast<SinkNode*>(net->node(2))->timers,
            (std::vector<int>{3}));
}

// Regression for the recovered-crash staleness fix: a NodeCrash with a
// finite recover_at must reset protocol state through Node::OnRestart at the
// recovery instant instead of silently resuming.  Permanent crashes never
// restart.
TEST(NetworkFaultTest, FiniteRecoveryInvokesOnRestart) {
  class RestartProbe : public SinkNode {
   public:
    void OnRestart() override { restarts.push_back(network()->Now()); }
    std::vector<double> restarts;
  };
  FaultPlan plan;
  plan.node_crashes.push_back({2, 5.0, 30.0});
  plan.node_crashes.push_back({4, 10.0});  // Permanent: no restart.
  Network::Config cfg;
  cfg.seed = 5;
  cfg.fault = std::move(plan);
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<RestartProbe>(); });
  net.SetTimer(0, 40.0, 9);  // Keeps the run alive past both recover_ats.
  net.Run();
  EXPECT_EQ(static_cast<RestartProbe*>(net.node(2))->restarts,
            (std::vector<double>{30.0}));
  EXPECT_TRUE(static_cast<RestartProbe*>(net.node(4))->restarts.empty());
}

// -- FaultInjector interval edges ---------------------------------------------

TEST(FaultInjectorTest, CrashBoundariesAreHalfOpen) {
  // [crash_at, recover_at): dead at exactly crash_at, alive at exactly
  // recover_at.
  FaultPlan plan;
  plan.node_crashes.push_back({1, 10.0, 20.0});
  FaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.IsCrashed(1, std::nextafter(10.0, 0.0)));
  EXPECT_TRUE(inj.IsCrashed(1, 10.0));
  EXPECT_TRUE(inj.IsCrashed(1, std::nextafter(20.0, 0.0)));
  EXPECT_FALSE(inj.IsCrashed(1, 20.0));
}

TEST(FaultInjectorTest, OutageBoundariesAreHalfOpen) {
  FaultPlan plan;
  plan.link_outages.push_back({0, 1, 10.0, 20.0});
  FaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.LinkDown(0, 1, std::nextafter(10.0, 0.0)));
  EXPECT_TRUE(inj.LinkDown(0, 1, 10.0));
  EXPECT_TRUE(inj.LinkDown(1, 0, std::nextafter(20.0, 0.0)));
  EXPECT_FALSE(inj.LinkDown(0, 1, 20.0));
}

TEST(FaultInjectorTest, OverlappingCrashIntervalsUnion) {
  // Two overlapping windows on one node behave as their union; the gap
  // between disjoint windows is alive.
  FaultPlan plan;
  plan.node_crashes.push_back({1, 10.0, 20.0});
  plan.node_crashes.push_back({1, 15.0, 25.0});
  plan.node_crashes.push_back({1, 40.0, 50.0});
  FaultInjector inj(plan, 1);
  EXPECT_TRUE(inj.IsCrashed(1, 12.0));
  EXPECT_TRUE(inj.IsCrashed(1, 20.0));  // Covered by the second window.
  EXPECT_TRUE(inj.IsCrashed(1, 24.9));
  EXPECT_FALSE(inj.IsCrashed(1, 25.0));
  EXPECT_FALSE(inj.IsCrashed(1, 30.0));  // Between windows.
  EXPECT_TRUE(inj.IsCrashed(1, 45.0));
}

TEST(NetworkFaultTest, RepairAtHorizonStillRestarts) {
  // recover_at exactly at the last queued event's time: the restart is
  // scheduled up front, so it still runs (and a timer set at the restart
  // instant by the old incarnation stays orphaned).
  class RestartProbe : public SinkNode {
   public:
    void OnRestart() override { ++restarts; }
    int restarts = 0;
  };
  FaultPlan plan;
  plan.node_crashes.push_back({2, 5.0, 30.0});
  Network::Config cfg;
  cfg.seed = 5;
  cfg.fault = std::move(plan);
  Network net(MakeGridTopology(3, 3), cfg);
  net.InstallNodes([](int) { return std::make_unique<RestartProbe>(); });
  net.SetTimer(2, 30.0, 1);  // Horizon == recover_at; pre-crash timer.
  net.Run();
  EXPECT_EQ(static_cast<RestartProbe*>(net.node(2))->restarts, 1);
  EXPECT_TRUE(static_cast<RestartProbe*>(net.node(2))->timers.empty());
}

TEST(NetworkFaultTest, OutageSeversRoutedPath) {
  // Grid 3x3: every 0 -> 8 shortest path leaves the corner over 0-1 or 0-3;
  // taking both links down severs all of them for the whole run.
  FaultPlan plan;
  plan.link_outages.push_back({0, 1, 0.0});
  plan.link_outages.push_back({0, 3, 0.0});
  auto net = MakeFaultyGrid(plan);
  Message m;
  m.category = InternCategory("r");
  EXPECT_EQ(net->SendRouted(0, 8, m), 4);  // Hop count of the chosen path.
  net->Run();
  EXPECT_TRUE(static_cast<SinkNode*>(net->node(8))->received.empty());
  EXPECT_EQ(net->stats().dropped_sends(), 1u);  // Lost on the first hop...
  EXPECT_EQ(net->stats().total_sends(), 0u);    // ...before any charge.
}

TEST(NetworkFaultTest, RoutedDropChargesTraveledHopsOnly) {
  // Outage on every link into the destination corner 8 (6-8 wrong: grid
  // neighbors of 8 are 5 and 7).  The message travels until the last hop.
  FaultPlan plan;
  plan.link_outages.push_back({5, 8, 0.0});
  plan.link_outages.push_back({7, 8, 0.0});
  auto net = MakeFaultyGrid(plan);
  Message m;
  m.category = InternCategory("r");
  net->SendRouted(0, 8, m);
  net->Run();
  EXPECT_TRUE(static_cast<SinkNode*>(net->node(8))->received.empty());
  EXPECT_EQ(net->stats().dropped_sends(), 1u);
  EXPECT_EQ(net->stats().sends("r"), 3u);  // Three hops traveled, last lost.
}

// -- ReliableChannel ----------------------------------------------------------

class ReliableNode : public Node {
 public:
  explicit ReliableNode(ReliableChannel::Config cfg) : cfg_(cfg) {}

  void OnInstall() override {
    channel.Attach(network(), id(), cfg_);
    channel.set_give_up(
        [this](int to, const Message& msg) { gave_up.push_back({to, msg.type}); });
  }

  void HandleMessage(int from, const Message& msg) override {
    if (channel.OnMessage(from, msg)) return;
    received.push_back({from, msg.type});
  }

  void HandleTimer(int timer_id) override {
    if (channel.OnTimer(timer_id)) return;
  }

  ReliableChannel channel;
  std::vector<std::pair<int, int>> received;  // (from, type)
  std::vector<std::pair<int, int>> gave_up;   // (to, type)

 private:
  ReliableChannel::Config cfg_;
};

std::unique_ptr<Network> MakeReliableGrid(FaultPlan plan,
                                          ReliableChannel::Config ccfg) {
  Network::Config cfg;
  cfg.seed = 11;
  cfg.fault = std::move(plan);
  auto net = std::make_unique<Network>(MakeGridTopology(3, 3), cfg);
  net->InstallNodes(
      [&](int) { return std::make_unique<ReliableNode>(ccfg); });
  return net;
}

TEST(ReliableChannelTest, DeliversEverythingUnderHeavyLoss) {
  FaultPlan plan;
  plan.drop_probability = 0.4;
  ReliableChannel::Config ccfg;
  ccfg.rto = 4.0;
  ccfg.max_retries = 12;
  auto net = MakeReliableGrid(plan, ccfg);
  auto* sender = static_cast<ReliableNode*>(net->node(0));
  const int kMessages = 25;
  for (int i = 0; i < kMessages; ++i) {
    Message m;
    m.type = 1000 + i;
    m.category = InternCategory("data");
    sender->channel.Send(1, m);
  }
  net->Run();
  auto* receiver = static_cast<ReliableNode*>(net->node(1));
  // Every message arrives exactly once, in spite of 40% loss each way.
  ASSERT_EQ(receiver->received.size(), static_cast<size_t>(kMessages));
  std::set<int> types;
  for (const auto& [from, type] : receiver->received) types.insert(type);
  EXPECT_EQ(types.size(), static_cast<size_t>(kMessages));
  EXPECT_GT(sender->channel.retransmissions(), 0u);
  EXPECT_EQ(sender->channel.in_flight(), 0u);
  EXPECT_TRUE(sender->gave_up.empty());
  // The overhead is visible in the ledger under the derived categories.
  EXPECT_GT(net->stats().units("data.retx") + net->stats().dropped("data.retx"),
            0u);
  EXPECT_GT(net->stats().units("data.ack") + net->stats().dropped("data.ack"),
            0u);
}

TEST(ReliableChannelTest, RetransmitsAcrossOutageWindow) {
  FaultPlan plan;
  plan.link_outages.push_back({0, 1, 0.0, 10.0});
  ReliableChannel::Config ccfg;
  ccfg.rto = 4.0;
  ccfg.backoff = 2.0;
  ccfg.max_retries = 5;
  auto net = MakeReliableGrid(plan, ccfg);
  auto* sender = static_cast<ReliableNode*>(net->node(0));
  Message m;
  m.type = 7;
  m.category = InternCategory("data");
  sender->channel.Send(1, m);  // t=0 lost, t=4 lost, t=12 delivered.
  net->Run();
  auto* receiver = static_cast<ReliableNode*>(net->node(1));
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0].second, 7);
  EXPECT_GE(sender->channel.retransmissions(), 2u);
  EXPECT_EQ(sender->channel.in_flight(), 0u);
}

TEST(ReliableChannelTest, SuppressesDuplicatesWhenAcksAreLost) {
  // Data 0 -> 1 flows; the reverse direction is down until t = 9, so the
  // first acks die and the sender retransmits.  The receiver must hand the
  // protocol exactly one copy and re-ack the duplicates.
  FaultPlan plan;
  plan.link_outages.push_back({1, 0, 0.0, 9.0, /*directed=*/true});
  ReliableChannel::Config ccfg;
  ccfg.rto = 4.0;
  ccfg.backoff = 2.0;
  ccfg.max_retries = 6;
  auto net = MakeReliableGrid(plan, ccfg);
  auto* sender = static_cast<ReliableNode*>(net->node(0));
  Message m;
  m.type = 9;
  m.category = InternCategory("data");
  sender->channel.Send(1, m);
  net->Run();
  auto* receiver = static_cast<ReliableNode*>(net->node(1));
  EXPECT_EQ(receiver->received.size(), 1u);  // Duplicates swallowed.
  EXPECT_GE(sender->channel.retransmissions(), 1u);
  EXPECT_EQ(sender->channel.in_flight(), 0u);  // A late ack finally landed.
  EXPECT_TRUE(sender->gave_up.empty());
}

TEST(ReliableChannelTest, GivesUpOnCrashedReceiver) {
  FaultPlan plan;
  plan.node_crashes.push_back({1, 0.0});
  ReliableChannel::Config ccfg;
  ccfg.rto = 2.0;
  ccfg.max_retries = 3;
  auto net = MakeReliableGrid(plan, ccfg);
  auto* sender = static_cast<ReliableNode*>(net->node(0));
  Message m;
  m.type = 13;
  m.category = InternCategory("data");
  sender->channel.Send(1, m);
  net->Run();
  ASSERT_EQ(sender->gave_up.size(), 1u);
  EXPECT_EQ(sender->gave_up[0], (std::pair<int, int>{1, 13}));
  EXPECT_EQ(sender->channel.gave_up(), 1u);
  EXPECT_EQ(sender->channel.in_flight(), 0u);
  EXPECT_EQ(sender->channel.retransmissions(), 3u);
}

TEST(ReliableChannelTest, RoutedSendAcksEndToEnd) {
  FaultPlan plan;
  plan.drop_probability = 0.3;
  ReliableChannel::Config ccfg;
  ccfg.rto = 12.0;  // > 2 * diameter of the 3x3 grid.
  ccfg.max_retries = 12;
  auto net = MakeReliableGrid(plan, ccfg);
  auto* sender = static_cast<ReliableNode*>(net->node(0));
  Message m;
  m.type = 21;
  m.category = InternCategory("data");
  sender->channel.SendRouted(8, m);
  net->Run();
  auto* receiver = static_cast<ReliableNode*>(net->node(8));
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0].second, 21);
  EXPECT_EQ(sender->channel.in_flight(), 0u);
}

// -- ELink under faults -------------------------------------------------------

SensorDataset SmallTerrain(int num_nodes) {
  TerrainConfig tcfg;
  tcfg.num_nodes = num_nodes;
  tcfg.radio_range_fraction = 0.14;
  tcfg.heightmap_exponent = 5;
  auto ds = MakeTerrainDataset(tcfg);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

TEST(ElinkFaultTest, FaultedRunsAreBitReproducible) {
  const SensorDataset ds = SmallTerrain(90);
  ElinkConfig cfg;
  cfg.delta = 0.35 * FeatureDiameter(ds);
  cfg.seed = 3;
  cfg.fault.drop_probability = 0.1;
  cfg.fault.node_crashes.push_back({ds.topology.num_nodes() - 1, 12.0});
  cfg.reliable_transport = true;
  cfg.completion_timeout = 200.0;
  auto a = RunElink(ds, cfg, ElinkMode::kExplicit);
  auto b = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().clustering.root_of, b.value().clustering.root_of);
  EXPECT_EQ(a.value().stats.ToString(), b.value().stats.ToString());
  EXPECT_DOUBLE_EQ(a.value().completion_time, b.value().completion_time);
  EXPECT_EQ(a.value().total_switches, b.value().total_switches);
  EXPECT_EQ(a.value().unclustered_nodes, b.value().unclustered_nodes);
}

TEST(ElinkFaultTest, ExplicitModeSurvivesLossAndACrashedSentinel) {
  const SensorDataset ds = SmallTerrain(90);
  const QuadtreeDecomposition quad = QuadtreeDecomposition::Build(ds.topology);
  // Crash a deepest-level sentinel (not the coordinator) mid-run.
  const int victim = quad.sentinel_set(quad.num_levels() - 1).front();
  ASSERT_NE(victim, quad.root());

  ElinkConfig cfg;
  cfg.delta = 0.35 * FeatureDiameter(ds);
  cfg.seed = 3;
  cfg.fault.drop_probability = 0.10;
  cfg.fault.node_crashes.push_back({victim, 10.0});
  cfg.reliable_transport = true;
  cfg.reliable.rto = 8.0;
  cfg.reliable.max_retries = 4;
  cfg.completion_timeout = 150.0;
  auto r = RunElink(ds, cfg, ElinkMode::kExplicit);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ElinkResult& res = r.value();
  // Every node has an assignment (unreached ones come back as singletons).
  for (int i = 0; i < ds.topology.num_nodes(); ++i) {
    EXPECT_GE(res.clustering.root_of[i], 0);
  }
  EXPECT_GT(res.completion_time, 0.0);
  // The reliability layer paid for something: either retransmissions or
  // transport acks show up in the ledger.
  uint64_t overhead = 0;
  for (const auto& [cat, units] : res.stats.units_by_category()) {
    if (cat.size() > 5 && (cat.rfind(".retx") == cat.size() - 5 ||
                           cat.rfind(".ack") == cat.size() - 4)) {
      overhead += units;
    }
  }
  EXPECT_GT(overhead, 0u);
  EXPECT_GT(res.stats.dropped_units(), 0u);
}

TEST(ElinkFaultTest, DisabledPlanMatchesFaultFreeRun) {
  const SensorDataset ds = SmallTerrain(70);
  ElinkConfig plain;
  plain.delta = 0.35 * FeatureDiameter(ds);
  plain.seed = 5;
  ElinkConfig with_inert = plain;
  with_inert.fault = FaultPlan{};  // Explicitly default: still inert.
  auto a = RunElink(ds, plain, ElinkMode::kExplicit);
  auto b = RunElink(ds, with_inert, ElinkMode::kExplicit);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().clustering.root_of, b.value().clustering.root_of);
  EXPECT_EQ(a.value().stats.ToString(), b.value().stats.ToString());
  EXPECT_TRUE(a.value().completed);
  EXPECT_EQ(a.value().unclustered_nodes, 0);
}

// -- Distributed query under faults -------------------------------------------

TEST(QueryFaultTest, CrashedSubtreeLeaderYieldsFlaggedPartialAnswer) {
  const SensorDataset ds = SmallTerrain(90);
  ElinkConfig cfg;
  cfg.delta = 0.35 * FeatureDiameter(ds);
  cfg.seed = 7;
  auto clustered = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(clustered.ok());
  const Clustering& clustering = clustered.value().clustering;
  const auto tree = BuildClusterTrees(clustering, ds.topology.adjacency);
  const ClusterIndex index =
      ClusterIndex::Build(clustering, tree, ds.features, *ds.metric);
  const Backbone backbone =
      Backbone::Build(clustering, ds.topology.adjacency, nullptr,
                      &ds.features, ds.metric.get());
  ASSERT_GE(backbone.leaders().size(), 2u) << "need a multi-cluster layout";

  // Query from inside the root leader's cluster, with a radius that reaches
  // everything, and crash one non-root leader so its whole subtree goes dark.
  const int initiator = backbone.tree_root();
  int victim = -1;
  for (int leader : backbone.leaders()) {
    if (leader != backbone.tree_root()) victim = leader;
  }
  ASSERT_GE(victim, 0);

  DistributedRangeQuery::ProtocolOptions opt;
  opt.seed = 7;
  opt.fault.node_crashes.push_back({victim, 0.0});
  opt.node_deadline = 60.0;
  opt.query_deadline = 2000.0;
  DistributedRangeQuery protocol(ds.topology, clustering, index, backbone,
                                 ds.features, ds.metric, opt);
  const double r = FeatureDiameter(ds);  // Matches every node.
  auto out = protocol.Run(initiator, ds.features[initiator], r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().answer_received);
  EXPECT_FALSE(out.value().complete);
  EXPECT_GT(out.value().unreachable_subtrees, 0);
  // The partial count is missing at least the victim's own contribution.
  EXPECT_LT(out.value().match_count, ds.topology.num_nodes());
  EXPECT_GT(out.value().match_count, 0);
}

TEST(QueryFaultTest, ReliableTransportRecoversExactAnswerUnderLoss) {
  const SensorDataset ds = SmallTerrain(90);
  ElinkConfig cfg;
  cfg.delta = 0.35 * FeatureDiameter(ds);
  cfg.seed = 7;
  auto clustered = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(clustered.ok());
  const Clustering& clustering = clustered.value().clustering;
  const auto tree = BuildClusterTrees(clustering, ds.topology.adjacency);
  const ClusterIndex index =
      ClusterIndex::Build(clustering, tree, ds.features, *ds.metric);
  const Backbone backbone =
      Backbone::Build(clustering, ds.topology.adjacency, nullptr,
                      &ds.features, ds.metric.get());

  const int initiator = backbone.tree_root();
  const double r = FeatureDiameter(ds);  // Matches every node.

  // Truth from the fault-free run.
  DistributedRangeQuery::ProtocolOptions clean;
  clean.seed = 7;
  DistributedRangeQuery oracle(ds.topology, clustering, index, backbone,
                               ds.features, ds.metric, clean);
  auto truth = oracle.Run(initiator, ds.features[initiator], r);
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(truth.value().match_count, ds.topology.num_nodes());

  // 15% i.i.d. loss, no crashes: every retransmission eventually lands, so
  // the reliable transport must reassemble the exact, complete answer well
  // before the generous deadlines fire.
  DistributedRangeQuery::ProtocolOptions lossy;
  lossy.seed = 7;
  lossy.fault.drop_probability = 0.15;
  lossy.reliable_transport = true;
  lossy.reliable.rto = 30.0;
  lossy.reliable.backoff = 1.5;
  lossy.reliable.max_retries = 10;
  lossy.node_deadline = 2000.0;
  lossy.query_deadline = 20000.0;
  DistributedRangeQuery protocol(ds.topology, clustering, index, backbone,
                                 ds.features, ds.metric, lossy);
  auto out = protocol.Run(initiator, ds.features[initiator], r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().answer_received);
  EXPECT_TRUE(out.value().complete);
  EXPECT_EQ(out.value().unreachable_subtrees, 0);
  EXPECT_EQ(out.value().match_count, truth.value().match_count);
  // The loss actually bit (something was dropped and retransmitted).
  EXPECT_GT(out.value().stats.dropped_sends(), 0u);
  uint64_t retx = 0;
  for (const auto& [cat, units] : out.value().stats.units_by_category()) {
    if (cat.ends_with(".retx")) retx += units;
  }
  EXPECT_GT(retx, 0u);
}

}  // namespace
}  // namespace elink
