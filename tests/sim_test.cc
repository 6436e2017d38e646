// Tests for src/sim: event queue, topologies, graph utilities, network
// message delivery / routing / timers / accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/graph.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace elink {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] {
    ++fired;
    q.ScheduleAfter(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.Now(), 2.0);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] { ++fired; });
  q.ScheduleAt(2.0, [&] { ++fired; });
  q.ScheduleAt(3.0, [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesNowToHorizon) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] { ++fired; });
  EXPECT_EQ(q.RunUntil(5.0), 1u);
  // The queue drained at t=1, but the caller simulated up to t=5: Now() is
  // the horizon, so relative scheduling continues from there.
  EXPECT_DOUBLE_EQ(q.Now(), 5.0);
  q.ScheduleAfter(1.0, [&] { ++fired; });
  q.RunAll();
  EXPECT_DOUBLE_EQ(q.Now(), 6.0);
  EXPECT_EQ(fired, 2);
  // An empty RunUntil also advances, and never moves time backwards.
  EXPECT_EQ(q.RunUntil(10.0), 0u);
  EXPECT_DOUBLE_EQ(q.Now(), 10.0);
  EXPECT_EQ(q.RunUntil(4.0), 0u);
  EXPECT_DOUBLE_EQ(q.Now(), 10.0);
}

TEST(EventQueueTest, MoveOnlyPayloadsPopWithoutCopying) {
  EventQueue q;
  // std::function would reject this closure outright (not copyable); the
  // old queue additionally deep-copied every closure on pop.
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  q.ScheduleAt(1.0, [p = std::move(payload), &seen] { seen = *p + 1; });
  // A payload large enough to force the heap storage path as well.
  struct Big {
    double vals[16];
  };
  Big big{};
  big.vals[7] = 8.0;
  double big_seen = 0.0;
  q.ScheduleAt(2.0, [big, &big_seen] { big_seen = big.vals[7]; });
  q.RunAll();
  EXPECT_EQ(seen, 42);
  EXPECT_DOUBLE_EQ(big_seen, 8.0);
}

TEST(EventQueueTest, PeakSizeTracksHighWater) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(static_cast<double>(i), [] {});
  }
  EXPECT_EQ(q.PeakSize(), 10u);
  q.RunAll();
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.PeakSize(), 10u);
  q.ScheduleAt(q.Now(), [] {});
  EXPECT_EQ(q.PeakSize(), 10u);
}

// Stress with heavy timestamp collisions and reschedules from inside
// callbacks: the dispatch order must match a reference model that stably
// sorts by time — i.e. exact (time, insertion-sequence) order.  Exercises
// bucket reuse, hash-table growth and backward-shift deletion, and
// same-time scheduling at Now() during dispatch.
TEST(EventQueueTest, TieHeavyOrderMatchesStableSortModel) {
  EventQueue q;
  Rng rng(99);
  std::vector<std::pair<double, int>> scheduled;  // (time, id) in seq order
  std::vector<int> fired;
  int next_id = 0;

  // 9 distinct base times, many events per time, interleaved insertion.
  auto schedule = [&](double time) {
    const int id = next_id++;
    scheduled.emplace_back(time, id);
    q.ScheduleAt(time, [id, &fired] { fired.push_back(id); });
  };
  for (int round = 0; round < 200; ++round) {
    schedule(static_cast<double>(rng.UniformInt(9)) * 0.5);
  }
  // Chains that re-enter the queue from inside callbacks, half landing on
  // already-populated times (including exactly Now()).
  for (int chain = 0; chain < 50; ++chain) {
    const double t = static_cast<double>(rng.UniformInt(9)) * 0.5;
    const int id = next_id++;
    scheduled.emplace_back(t, id);
    q.ScheduleAt(t, [id, t, chain, &fired, &scheduled, &next_id, &q] {
      fired.push_back(id);
      const double tn = (chain % 2 == 0) ? t : t + 0.25;
      const int id2 = next_id++;
      scheduled.emplace_back(tn, id2);
      q.ScheduleAt(tn, [id2, &fired] { fired.push_back(id2); });
    });
  }
  q.RunAll();

  ASSERT_EQ(fired.size(), scheduled.size());
  // Reference: stable sort by time keeps insertion order within ties.  The
  // chained events were appended to `scheduled` mid-run, but always with a
  // time >= every already-fired time, so the model stays valid.
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_EQ(fired[i], scheduled[i].second) << "at dispatch " << i;
  }
}

TEST(TopologyTest, GridStructure) {
  Topology t = MakeGridTopology(3, 4);
  EXPECT_EQ(t.num_nodes(), 12);
  // Interior node 5 = (row 1, col 1) has 4 neighbors.
  EXPECT_EQ(t.adjacency[5].size(), 4u);
  // Corner 0 has 2.
  EXPECT_EQ(t.adjacency[0].size(), 2u);
  EXPECT_TRUE(t.HasEdge(0, 1));
  EXPECT_TRUE(t.HasEdge(0, 4));
  EXPECT_FALSE(t.HasEdge(0, 5));
  // Grid edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(t.num_edges(), 17);
  EXPECT_EQ(t.max_degree(), 4);
  EXPECT_TRUE(IsConnected(t.adjacency));
}

TEST(TopologyTest, RandomTopologyIsConnectedAndInBounds) {
  Rng rng(71);
  Result<Topology> t = MakeRandomTopology(60, 10.0, 1.6, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(IsConnected(t.value().adjacency));
  for (const auto& p : t.value().positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 10.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 10.0);
  }
}

TEST(TopologyTest, RandomTopologyAdjacencySymmetric) {
  Rng rng(73);
  Result<Topology> t = MakeRandomTopology(40, 8.0, 1.5, &rng);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < t.value().num_nodes(); ++i) {
    for (int j : t.value().adjacency[i]) {
      EXPECT_TRUE(t.value().HasEdge(j, i));
    }
  }
}

TEST(TopologyTest, DegreeCalibrationIsReasonable) {
  Rng rng(79);
  Result<Topology> t = MakeRandomTopologyWithDegree(300, 0.8, 4.0, &rng);
  ASSERT_TRUE(t.ok());
  // Forced connectivity can raise the degree above the target; it must at
  // least reach it and stay within a sane band.
  EXPECT_GE(t.value().average_degree(), 3.0);
  EXPECT_LE(t.value().average_degree(), 10.0);
}

TEST(TopologyTest, RejectsBadArguments) {
  Rng rng(83);
  EXPECT_FALSE(MakeRandomTopology(0, 1.0, 0.5, &rng).ok());
  EXPECT_FALSE(MakeRandomTopology(5, -1.0, 0.5, &rng).ok());
  EXPECT_FALSE(MakeRandomTopologyWithDegree(5, 0.0, 4.0, &rng).ok());
}

TEST(GraphTest, HopDistancesOnGrid) {
  Topology t = MakeGridTopology(3, 3);
  const auto dist = HopDistancesFrom(t.adjacency, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[8], 4);  // Opposite corner: Manhattan distance.
  EXPECT_EQ(dist[4], 2);
}

TEST(GraphTest, BfsTreeParentsRootAndReachability) {
  Topology t = MakeGridTopology(2, 3);
  const auto parent = BfsTreeParents(t.adjacency, 0);
  EXPECT_EQ(parent[0], 0);
  for (int i = 1; i < 6; ++i) {
    EXPECT_GE(parent[i], 0);
    EXPECT_NE(parent[i], i);
  }
}

TEST(GraphTest, ComponentsOfDisconnectedGraph) {
  AdjacencyList adj = {{1}, {0}, {3}, {2}, {}};
  EXPECT_FALSE(IsConnected(adj));
  const auto comp = ConnectedComponents(adj);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(GraphTest, InducedComponentsRespectMask) {
  // Path 0-1-2-3; removing node 1 splits {0} from {2,3}.
  AdjacencyList adj = {{1}, {0, 2}, {1, 3}, {2}};
  std::vector<char> mask = {1, 0, 1, 1};
  const auto comp = InducedComponents(adj, mask);
  EXPECT_EQ(comp[1], -1);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_FALSE(IsInducedConnected(adj, mask));
  mask[1] = 1;
  EXPECT_TRUE(IsInducedConnected(adj, mask));
}

TEST(GraphTest, ShortestHopPathEndpointsAndLength) {
  Topology t = MakeGridTopology(3, 3);
  const auto path = ShortestHopPath(t.adjacency, 0, 8);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 8);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(t.HasEdge(path[i], path[i + 1]));
  }
}

TEST(GraphTest, RoutingTableMatchesBfs) {
  Topology t = MakeGridTopology(4, 4);
  RoutingTable rt(t.adjacency, 5);
  const auto dist = HopDistancesFrom(t.adjacency, 5);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rt.HopsToRoot(i), dist[i]);
  }
  EXPECT_EQ(rt.NextHopToRoot(5), -1);
  // Following next hops from any node reaches the root in HopsToRoot steps.
  int cur = 15, steps = 0;
  while (cur != 5) {
    cur = rt.NextHopToRoot(cur);
    ++steps;
  }
  EXPECT_EQ(steps, rt.HopsToRoot(15));
}

// -- Network ------------------------------------------------------------------

/// Node that counts received messages and echoes on request.
class RecorderNode : public Node {
 public:
  void HandleMessage(int from, const Message& msg) override {
    received.push_back({from, msg});
    if (msg.type == 99) {  // Echo request.
      Message reply;
      reply.type = 100;
      reply.category = InternCategory("echo");
      network()->Send(id(), from, reply);
    }
  }
  void HandleTimer(int timer_id) override { timers.push_back(timer_id); }

  std::vector<std::pair<int, Message>> received;
  std::vector<int> timers;
};

std::unique_ptr<Network> MakeTestNetwork(bool synchronous = true) {
  Network::Config cfg;
  cfg.synchronous = synchronous;
  cfg.seed = 5;
  auto net = std::make_unique<Network>(MakeGridTopology(3, 3), cfg);
  net->InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
  return net;
}

TEST(NetworkTest, SendDeliversToNeighborWithUnitDelay) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 7;
  m.category = InternCategory("test");
  m.doubles = {1.0, 2.0};
  net.Send(0, 1, m);
  net.Run();
  auto* n1 = static_cast<RecorderNode*>(net.node(1));
  ASSERT_EQ(n1->received.size(), 1u);
  EXPECT_EQ(n1->received[0].first, 0);
  EXPECT_EQ(n1->received[0].second.type, 7);
  EXPECT_DOUBLE_EQ(net.Now(), 1.0);
  EXPECT_EQ(net.stats().total_sends(), 1u);
  EXPECT_EQ(net.stats().total_units(), 2u);  // Two coefficients.
  EXPECT_EQ(net.stats().units("test"), 2u);
}

TEST(NetworkTest, BroadcastReachesAllNeighbors) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 1;
  m.category = InternCategory("bc");
  net.Broadcast(4, m);  // Center of the 3x3 grid: 4 neighbors.
  net.Run();
  EXPECT_EQ(net.stats().sends("bc"), 4u);
  for (int nb : {1, 3, 5, 7}) {
    EXPECT_EQ(static_cast<RecorderNode*>(net.node(nb))->received.size(), 1u);
  }
}

TEST(NetworkTest, SendRoutedChargesPerHop) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 2;
  m.category = InternCategory("routed");
  const int hops = net.SendRouted(0, 8, m);
  EXPECT_EQ(hops, 4);
  net.Run();
  EXPECT_EQ(net.stats().sends("routed"), 4u);
  auto* n8 = static_cast<RecorderNode*>(net.node(8));
  ASSERT_EQ(n8->received.size(), 1u);
  // Sender seen by the destination is the penultimate node on the route.
  EXPECT_TRUE(net.topology().HasEdge(n8->received[0].first, 8));
  EXPECT_DOUBLE_EQ(net.Now(), 4.0);
}

TEST(NetworkTest, SendRoutedToSelfIsLocal) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 3;
  m.category = InternCategory("self");
  EXPECT_EQ(net.SendRouted(4, 4, m), 0);
  net.Run();
  EXPECT_EQ(net.stats().total_sends(), 0u);
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(4))->received.size(), 1u);
}

TEST(NetworkTest, HopDistanceMatchesGraph) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  EXPECT_EQ(net.HopDistance(0, 8), 4);
  EXPECT_EQ(net.HopDistance(3, 3), 0);
}

TEST(NetworkTest, TimersFire) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  net.SetTimer(2, 5.0, 42);
  net.SetTimer(2, 1.0, 43);
  net.Run();
  auto* n2 = static_cast<RecorderNode*>(net.node(2));
  EXPECT_EQ(n2->timers, (std::vector<int>{43, 42}));
  EXPECT_DOUBLE_EQ(net.Now(), 5.0);
}

TEST(NetworkTest, EchoRoundTrip) {
  auto net_ptr = MakeTestNetwork();
  Network& net = *net_ptr;
  Message m;
  m.type = 99;
  m.category = InternCategory("ping");
  net.Send(3, 4, m);
  net.Run();
  auto* n3 = static_cast<RecorderNode*>(net.node(3));
  ASSERT_EQ(n3->received.size(), 1u);
  EXPECT_EQ(n3->received[0].second.type, 100);
  EXPECT_DOUBLE_EQ(net.Now(), 2.0);
}

TEST(NetworkTest, AsynchronousDelaysVaryButDeliver) {
  auto net_ptr = MakeTestNetwork(/*synchronous=*/false);
  Network& net = *net_ptr;
  Message m;
  m.type = 1;
  m.category = InternCategory("a");
  net.Send(0, 1, m);
  net.Send(0, 3, m);
  net.Run();
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(1))->received.size(), 1u);
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(3))->received.size(), 1u);
  EXPECT_GT(net.Now(), 0.0);
  EXPECT_LT(net.Now(), 1.5 + 1e-9);
}

// -- Broadcast vs independent Sends -------------------------------------------

/// One delivery as its receiver saw it.  Field counts stand in for the
/// payload: truncation only ever shortens it.
struct Delivery {
  double at;
  int from;
  int to;
  int type;
  size_t ints;
  size_t doubles;
  bool operator==(const Delivery&) const = default;
};

class LoggingNode : public Node {
 public:
  explicit LoggingNode(std::vector<Delivery>* log) : log_(log) {}
  void HandleMessage(int from, const Message& msg) override {
    log_->push_back({network()->Now(), from, id(), msg.type, msg.ints.size(),
                     msg.doubles.size()});
  }

 private:
  std::vector<Delivery>* log_;
};

struct FanOutRun {
  std::vector<Delivery> log;
  std::string stats;
  uint64_t total_bytes = 0;
  uint64_t dropped_bytes = 0;
  uint64_t churn_drops = 0;
};

/// Ten rounds on a 4x4 grid under loss, truncation and a link outage (plus,
/// optionally, a churn crash window).  Each round every present node fans
/// one message out to its neighbors: as one Broadcast, or as one Send per
/// neighbors() entry in order.
FanOutRun RunFanOut(bool synchronous, bool churn, bool broadcast) {
  Network::Config cfg;
  cfg.synchronous = synchronous;
  cfg.seed = 23;
  cfg.fault.drop_probability = 0.3;
  cfg.fault.truncate_probability = 0.5;
  cfg.fault.link_outages.push_back({5, 6, 4.0, 12.0});
  if (churn) cfg.churn.crashes.push_back({9, 6.0, 14.0});
  FanOutRun run;
  Network net(MakeGridTopology(4, 4), cfg);
  net.InstallNodes(
      [&run](int) { return std::make_unique<LoggingNode>(&run.log); });
  Network* n = &net;
  for (int round = 0; round < 10; ++round) {
    net.ScheduleAfter(2.0 * round, [n, round, broadcast]() {
      for (int from = 0; from < n->num_nodes(); ++from) {
        if (!n->IsPresent(from)) continue;
        Message m;
        m.type = round;
        m.category = InternCategory("fan");
        m.ints = {from, round};
        m.doubles = {1.0, 2.0, 3.0};
        if (broadcast) {
          n->Broadcast(from, m);
        } else {
          for (int nb : n->neighbors(from)) n->Send(from, nb, m);
        }
      }
    });
  }
  net.Run();
  run.stats = net.stats().ToString();
  run.total_bytes = net.stats().total_bytes();
  run.dropped_bytes = net.stats().dropped_bytes();
  run.churn_drops = net.churn_drops();
  return run;
}

TEST(NetworkTest, BroadcastMatchesIndependentSendsUnderFaultsAndChurn) {
  // A Broadcast leg must draw, charge and report exactly what a Send to
  // that neighbor would, in the same order, so the two drives are
  // indistinguishable in every delivery and every ledger entry.
  for (bool synchronous : {true, false}) {
    for (bool churn : {false, true}) {
      SCOPED_TRACE(std::string(synchronous ? "sync" : "async") +
                   (churn ? " churn" : ""));
      const FanOutRun fan = RunFanOut(synchronous, churn, /*broadcast=*/true);
      const FanOutRun sends = RunFanOut(synchronous, churn, false);
      EXPECT_EQ(fan.log, sends.log);
      EXPECT_EQ(fan.stats, sends.stats);
      EXPECT_EQ(fan.total_bytes, sends.total_bytes);
      EXPECT_EQ(fan.dropped_bytes, sends.dropped_bytes);
      EXPECT_EQ(fan.churn_drops, sends.churn_drops);
      // Not vacuous: messages were lost, others arrived truncated, and the
      // crash window sank legs of its own.
      EXPECT_GT(fan.dropped_bytes, 0u);
      EXPECT_TRUE(std::any_of(fan.log.begin(), fan.log.end(),
                              [](const Delivery& d) { return d.ints < 2; }));
      EXPECT_EQ(fan.churn_drops > 0, churn);
    }
  }
}

/// Compares the network's presence with the plan's absence intervals for
/// every node: after every churn event (OnChurn fires last in
/// ApplyChurnEvent) and whenever a probe node's churn callback asks.
class PresenceAudit : public SimObserver {
 public:
  PresenceAudit(const Network* net, const ChurnPlan& plan)
      : net_(net), reference_(plan, net->num_nodes()) {}

  void Check(const char* where) {
    ++checks;
    for (int u = 0; u < net_->num_nodes(); ++u) {
      EXPECT_EQ(net_->IsPresent(u), !reference_.IsAbsent(u, net_->Now()))
          << where << ": node " << u << " at t=" << net_->Now();
    }
  }

  void OnChurn(double now, const char* kind, int a, int b) override {
    (void)now, (void)kind, (void)a, (void)b;
    ++events;
    Check("after a churn event");
  }

  int checks = 0;
  int events = 0;

 private:
  const Network* net_;
  ChurnSchedule reference_;
};

class PresenceProbeNode : public Node {
 public:
  explicit PresenceProbeNode(PresenceAudit* audit) : audit_(audit) {}
  void HandleMessage(int, const Message&) override {}
  void OnRestart() override { audit_->Check("OnRestart"); }
  void OnNeighborChange(int, bool) override {
    audit_->Check("OnNeighborChange");
  }

 private:
  PresenceAudit* audit_;
};

TEST(NetworkTest, PresenceMaskFollowsEveryChurnEvent) {
  ChurnPlan plan;
  // Overlapping crash windows of one node: the repair at 20 leaves it
  // absent until 30.
  plan.crashes.push_back({1, 5.0, 20.0});
  plan.crashes.push_back({1, 10.0, 30.0});
  // A repair and a crash of one node at the same instant, alongside a
  // crash of another node and a link change at that instant.
  plan.crashes.push_back({2, 5.0, 15.0});
  plan.crashes.push_back({2, 15.0, 25.0});
  plan.crashes.push_back({6, 15.0, 40.0});
  plan.link_changes.push_back({5, 9, 15.0, /*add=*/false});
  // A late join and a leave.
  plan.joins.push_back({3, 12.0});
  plan.leaves.push_back({4, 18.0});

  Network::Config cfg;
  cfg.churn = plan;
  Network net(MakeGridTopology(4, 4), cfg);
  PresenceAudit audit(&net, plan);
  net.set_observer(&audit);
  net.InstallNodes(
      [&audit](int) { return std::make_unique<PresenceProbeNode>(&audit); });
  audit.Check("before the run");
  net.Run();
  EXPECT_EQ(audit.events, 13);
  // Restarts and neighbor notifications checked in between as well.
  EXPECT_GT(audit.checks, audit.events + 1);
  EXPECT_DOUBLE_EQ(net.Now(), 40.0);
  audit.Check("after the run");
}

TEST(MessageStatsTest, MergeAndReset) {
  MessageStats a, b;
  a.Record(InternCategory("x"), 2);
  b.Record(InternCategory("x"), 3);
  b.Record(InternCategory("y"), 1);
  a.Merge(b);
  EXPECT_EQ(a.total_units(), 6u);
  EXPECT_EQ(a.units("x"), 5u);
  EXPECT_EQ(a.units("y"), 1u);
  EXPECT_EQ(a.total_sends(), 3u);
  a.Reset();
  EXPECT_EQ(a.total_units(), 0u);
  EXPECT_EQ(a.units("x"), 0u);
}

TEST(MessageStatsTest, DroppedSendsStayOutOfDeliveredTotals) {
  MessageStats s;
  s.Record(InternCategory("x"), 2);
  s.RecordDropped(InternCategory("x"), 3);
  s.RecordDropped(InternCategory("y"), 1);
  EXPECT_EQ(s.total_sends(), 1u);
  EXPECT_EQ(s.total_units(), 2u);
  EXPECT_EQ(s.dropped_sends(), 2u);
  EXPECT_EQ(s.dropped_units(), 4u);
  EXPECT_EQ(s.dropped("x"), 3u);
  EXPECT_EQ(s.dropped("y"), 1u);
  EXPECT_EQ(s.dropped("z"), 0u);

  MessageStats other;
  other.RecordDropped(InternCategory("x"), 2);
  s.Merge(other);
  EXPECT_EQ(s.dropped_units(), 6u);
  EXPECT_EQ(s.dropped("x"), 5u);
  EXPECT_EQ(s.total_units(), 2u);  // Merge does not mix the ledgers.

  s.Reset();
  EXPECT_EQ(s.dropped_sends(), 0u);
  EXPECT_EQ(s.dropped_units(), 0u);
  EXPECT_TRUE(s.dropped_by_category().empty());
}

TEST(MessageStatsTest, MergeCarriesPerCategoryDropsAndDecodeErrors) {
  // Regression: a merge must carry every per-category counter — dropped
  // units/sends and decode errors — not just delivered units, for both
  // disjoint categories (never charged in the destination) and overlapping
  // ones.
  MessageStats a;
  a.Record(InternCategory("shared"), 1);
  a.RecordDropped(InternCategory("shared"), 2);
  a.RecordDecodeError(InternCategory("shared"));
  a.RecordDropped(InternCategory("only_a"), 4);

  MessageStats b;
  b.RecordDropped(InternCategory("only_b"), 7);  // Disjoint: never in `a`.
  b.RecordDropped(InternCategory("shared"), 3);  // Overlapping.
  b.RecordDecodeError(InternCategory("shared"));
  b.RecordDecodeError(InternCategory("only_b"));
  b.Record(InternCategory("only_b"), 5);

  a.Merge(b);
  EXPECT_EQ(a.dropped("shared"), 5u);
  EXPECT_EQ(a.dropped("only_a"), 4u);
  EXPECT_EQ(a.dropped("only_b"), 7u);
  EXPECT_EQ(a.dropped_units(), 16u);
  EXPECT_EQ(a.dropped_sends(), 4u);
  EXPECT_EQ(a.decode_errors(), 3u);
  EXPECT_EQ(a.decode_errors("shared"), 2u);
  EXPECT_EQ(a.decode_errors("only_b"), 1u);
  EXPECT_EQ(a.units("shared"), 1u);
  EXPECT_EQ(a.units("only_b"), 5u);
  const auto& dropped_view = a.dropped_by_category();
  ASSERT_EQ(dropped_view.size(), 3u);
  EXPECT_EQ(dropped_view.at("only_b"), 7u);

  // Merging into a fresh ledger (all categories disjoint) preserves the
  // combined picture too.
  MessageStats fresh;
  fresh.Merge(a);
  EXPECT_EQ(fresh.dropped("shared"), 5u);
  EXPECT_EQ(fresh.decode_errors("shared"), 2u);
  EXPECT_EQ(fresh.dropped_units(), a.dropped_units());
  EXPECT_EQ(fresh.decode_errors(), a.decode_errors());
}

TEST(MessageStatsTest, ToStringMentionsDropsOnlyWhenPresent) {
  MessageStats s;
  s.Record(InternCategory("x"), 1);
  EXPECT_EQ(s.ToString().find("dropped"), std::string::npos);
  s.RecordDropped(InternCategory("x"), 1);
  EXPECT_NE(s.ToString().find("dropped"), std::string::npos);
}

/// A protocol that re-arms its own timer forever: the event queue never
/// drains, so Run must stop at the cap and flag it instead of aborting.
class LivelockNode : public Node {
 public:
  void HandleMessage(int, const Message&) override {}
  void HandleTimer(int timer_id) override {
    network()->SetTimer(id(), 1.0, timer_id);
  }
};

TEST(NetworkTest, EventCapIsRecoverable) {
  Network::Config cfg;
  auto net = std::make_unique<Network>(MakeGridTopology(2, 2), cfg);
  net->InstallNodes([](int) { return std::make_unique<LivelockNode>(); });
  net->SetTimer(0, 1.0, 1);
  EXPECT_FALSE(net->hit_event_cap());
  EXPECT_EQ(net->Run(/*max_events=*/100), 100u);
  EXPECT_TRUE(net->hit_event_cap());
  // A later run that drains resets the flag.
  auto quiet = std::make_unique<Network>(MakeGridTopology(2, 2), cfg);
  quiet->InstallNodes([](int) { return std::make_unique<LivelockNode>(); });
  quiet->Run();
  EXPECT_FALSE(quiet->hit_event_cap());
}

// Run's "every node installed" precondition is a count of filled slots, so
// it must count slots, not InstallNode calls.
TEST(NetworkDeathTest, RunAbortsWithAnEmptySlot) {
  Network net(MakeGridTopology(2, 2), Network::Config{});
  for (int id = 0; id < 3; ++id) {
    net.InstallNode(id, std::make_unique<RecorderNode>());
  }
  EXPECT_DEATH(net.Run(), "installed_ == num_nodes");
}

TEST(NetworkDeathTest, ReinstallDoesNotFillAnEmptySlot) {
  // Four install calls, but only three distinct ids: slot 3 is empty.
  Network net(MakeGridTopology(2, 2), Network::Config{});
  for (int id : {0, 1, 2, 1}) {
    net.InstallNode(id, std::make_unique<RecorderNode>());
  }
  EXPECT_DEATH(net.Run(), "installed_ == num_nodes");
}

TEST(NetworkTest, ReinstalledNodeRunsAndReceives) {
  Network net(MakeGridTopology(2, 2), Network::Config{});
  net.InstallNodes([](int) { return std::make_unique<RecorderNode>(); });
  net.InstallNode(1, std::make_unique<RecorderNode>());
  Message m;
  m.type = 7;
  m.category = InternCategory("test");
  net.Send(0, 1, m);
  net.Run();
  EXPECT_EQ(static_cast<RecorderNode*>(net.node(1))->received.size(), 1u);
}

TEST(MessageTest, CostUnitsRules) {
  Message empty;
  EXPECT_EQ(empty.CostUnits(), 1);
  Message with_payload;
  with_payload.doubles = {1, 2, 3, 4};
  EXPECT_EQ(with_payload.CostUnits(), 4);
}

}  // namespace
}  // namespace elink
