// Tests for the topology-churn layer (sim/churn.h + its Network
// integration): plan evaluation, absence windows, restart semantics,
// neighbor notifications, live-adjacency edits, and the determinism
// contract (churn draws no randomness, so enabling it never perturbs the
// fault or delay RNG streams).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/churn.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace elink {
namespace {

// -- ChurnSchedule ------------------------------------------------------------

TEST(ChurnScheduleTest, DefaultPlanIsInert) {
  ChurnPlan plan;
  EXPECT_FALSE(plan.enabled());
  ChurnSchedule sched(plan, 9);
  EXPECT_FALSE(sched.enabled());
  EXPECT_TRUE(sched.events().empty());
  EXPECT_FALSE(sched.IsAbsent(0, 0.0));
}

TEST(ChurnScheduleTest, AbsenceWindowsAreHalfOpen) {
  ChurnPlan plan;
  plan.joins.push_back({1, 10.0});
  plan.leaves.push_back({2, 20.0});
  plan.crashes.push_back({3, 5.0, 15.0});
  plan.crashes.push_back({4, 5.0});  // Permanent: no repair event.
  ChurnSchedule sched(plan, 9);
  ASSERT_TRUE(sched.enabled());

  // Join: absent during [0, at).
  EXPECT_TRUE(sched.IsAbsent(1, 0.0));
  EXPECT_TRUE(sched.IsAbsent(1, 9.9));
  EXPECT_FALSE(sched.IsAbsent(1, 10.0));
  // Leave: absent during [at, inf).
  EXPECT_FALSE(sched.IsAbsent(2, 19.9));
  EXPECT_TRUE(sched.IsAbsent(2, 20.0));
  EXPECT_TRUE(sched.IsAbsent(2, 1e12));
  // Crash: absent during [crash_at, recover_at).
  EXPECT_FALSE(sched.IsAbsent(3, 4.9));
  EXPECT_TRUE(sched.IsAbsent(3, 5.0));
  EXPECT_TRUE(sched.IsAbsent(3, 14.9));
  EXPECT_FALSE(sched.IsAbsent(3, 15.0));
  EXPECT_TRUE(sched.IsAbsent(4, 1e12));  // Never repaired.
  // Unlisted nodes are always present.
  EXPECT_FALSE(sched.IsAbsent(0, 50.0));
}

TEST(ChurnScheduleTest, EventsAreTimeSortedWithRepairs) {
  ChurnPlan plan;
  plan.leaves.push_back({2, 20.0});
  plan.joins.push_back({1, 10.0});
  plan.crashes.push_back({3, 5.0, 15.0});
  plan.link_changes.push_back({0, 1, 12.0, /*add=*/false});
  ChurnSchedule sched(plan, 9);
  std::vector<std::string> kinds;
  for (const auto& ev : sched.events()) {
    kinds.push_back(ChurnSchedule::KindName(ev.kind));
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"crash", "join", "link_remove",
                                             "repair", "leave"}));
  for (size_t i = 1; i < sched.events().size(); ++i) {
    EXPECT_LE(sched.events()[i - 1].at, sched.events()[i].at);
  }
}

// -- Network under churn ------------------------------------------------------

class ChurnProbe : public Node {
 public:
  void HandleMessage(int from, const Message& msg) override {
    (void)from;
    received.push_back(msg.type);
  }
  void HandleTimer(int timer_id) override { timers.push_back(timer_id); }
  void OnRestart() override { restarts.push_back(network()->Now()); }
  void OnNeighborChange(int neighbor, bool up) override {
    changes.push_back({network()->Now(), neighbor, up});
  }
  struct Change {
    double at;
    int neighbor;
    bool up;
    bool operator==(const Change& o) const {
      return at == o.at && neighbor == o.neighbor && up == o.up;
    }
  };
  std::vector<int> received;
  std::vector<int> timers;
  std::vector<double> restarts;
  std::vector<Change> changes;
};

std::unique_ptr<Network> MakeChurnGrid(ChurnPlan plan, FaultPlan fault = {}) {
  Network::Config cfg;
  cfg.seed = 5;
  cfg.fault = std::move(fault);
  cfg.churn = std::move(plan);
  auto net = std::make_unique<Network>(MakeGridTopology(3, 3), cfg);
  net->InstallNodes([](int) { return std::make_unique<ChurnProbe>(); });
  return net;
}

ChurnProbe* Probe(Network* net, int id) {
  return static_cast<ChurnProbe*>(net->node(id));
}

Message Msg(int type) {
  Message m;
  m.type = type;
  m.category = InternCategory("t");
  return m;
}

TEST(NetworkChurnTest, DepartedReceiverDropsAndCounts) {
  ChurnPlan plan;
  plan.leaves.push_back({1, 10.0});
  auto net = MakeChurnGrid(plan);
  net->ScheduleAfter(20.0, [n = net.get()]() { n->Send(0, 1, Msg(7)); });
  net->Run();
  EXPECT_TRUE(Probe(net.get(), 1)->received.empty());
  EXPECT_EQ(net->stats().dropped_sends(), 1u);
  EXPECT_EQ(net->churn_drops(), 1u);
}

TEST(NetworkChurnTest, JoinRestartsAndNotifiesNeighbors) {
  ChurnPlan plan;
  plan.joins.push_back({4, 10.0});  // Grid center; neighbors 1, 3, 5, 7.
  auto net = MakeChurnGrid(plan);
  Network* n = net.get();
  EXPECT_FALSE(net->IsPresent(4));
  // Before the join: sends to 4 sink into the churn layer.
  net->ScheduleAfter(5.0, [n]() { n->Send(1, 4, Msg(1)); });
  net->ScheduleAfter(20.0, [n]() { n->Send(1, 4, Msg(2)); });
  net->Run();
  EXPECT_EQ(Probe(n, 4)->received, (std::vector<int>{2}));
  EXPECT_EQ(net->churn_drops(), 1u);
  EXPECT_TRUE(net->IsPresent(4));
  // The join restarted node 4 exactly once, at the join instant.
  EXPECT_EQ(Probe(n, 4)->restarts, (std::vector<double>{10.0}));
  // Neighbor 1 saw 4 down at t=0 (late joiner) and up at the join.
  EXPECT_EQ(Probe(n, 1)->changes,
            (std::vector<ChurnProbe::Change>{{0.0, 4, false}, {10.0, 4, true}}));
}

TEST(NetworkChurnTest, CrashRepairCycleRestartsAndOrphansTimers) {
  ChurnPlan plan;
  plan.crashes.push_back({4, 5.0, 15.0});
  auto net = MakeChurnGrid(plan);
  Network* n = net.get();
  net->SetTimer(4, 8.0, 1);   // Fires while absent: suppressed.
  net->SetTimer(4, 20.0, 2);  // Pre-crash timer, post-repair fire: orphaned.
  net->ScheduleAfter(16.0, [n]() { n->SetTimer(4, 2.0, 3); });
  net->Run();
  EXPECT_EQ(Probe(n, 4)->timers, (std::vector<int>{3}));
  EXPECT_EQ(Probe(n, 4)->restarts, (std::vector<double>{15.0}));
  // Neighbor 3 saw the full down/up cycle.
  EXPECT_EQ(Probe(n, 3)->changes,
            (std::vector<ChurnProbe::Change>{{5.0, 4, false}, {15.0, 4, true}}));
}

TEST(NetworkChurnTest, LinkRemoveDropsSendsAndReroutes) {
  ChurnPlan plan;
  plan.link_changes.push_back({0, 1, 10.0, /*add=*/false});
  auto net = MakeChurnGrid(plan);
  Network* n = net.get();
  net->ScheduleAfter(5.0, [n]() { n->Send(0, 1, Msg(1)); });
  net->ScheduleAfter(20.0, [n]() { n->Send(0, 1, Msg(2)); });
  // Routed traffic re-routes around the removed edge instead of dying.
  net->ScheduleAfter(20.0, [n]() { EXPECT_EQ(n->SendRouted(0, 1, Msg(3)), 3); });
  net->Run();
  EXPECT_EQ(Probe(n, 1)->received, (std::vector<int>{1, 3}));
  EXPECT_EQ(net->churn_drops(), 1u);
  // Both endpoints were told the link went down.
  EXPECT_EQ(Probe(n, 0)->changes,
            (std::vector<ChurnProbe::Change>{{10.0, 1, false}}));
  EXPECT_EQ(Probe(n, 1)->changes,
            (std::vector<ChurnProbe::Change>{{10.0, 0, false}}));
  // Broadcast fan-out follows the live adjacency.
  EXPECT_EQ(Probe(n, 1)->changes.size(), 1u);
}

TEST(NetworkChurnTest, LinkAddCreatesNewEdge) {
  // 0 and 4 are not grid neighbors; the plan wires them directly.
  ChurnPlan plan;
  plan.link_changes.push_back({0, 4, 10.0, /*add=*/true});
  auto net = MakeChurnGrid(plan);
  Network* n = net.get();
  net->ScheduleAfter(20.0, [n]() { n->Send(0, 4, Msg(9)); });
  net->ScheduleAfter(20.0, [n]() { EXPECT_EQ(n->SendRouted(0, 4, Msg(8)), 1); });
  net->Run();
  EXPECT_EQ(Probe(n, 4)->received, (std::vector<int>{9, 8}));
  EXPECT_EQ(net->churn_drops(), 0u);
  EXPECT_EQ(Probe(n, 0)->changes,
            (std::vector<ChurnProbe::Change>{{10.0, 4, true}}));
}

TEST(NetworkChurnTest, PartitionedRoutedSendIsChurnDrop) {
  // Cut corner 0 off entirely (links 0-1 and 0-3); a routed send from the
  // island is a recorded churn drop, not a crash.
  ChurnPlan plan;
  plan.link_changes.push_back({0, 1, 5.0, /*add=*/false});
  plan.link_changes.push_back({0, 3, 5.0, /*add=*/false});
  auto net = MakeChurnGrid(plan);
  Network* n = net.get();
  net->ScheduleAfter(10.0, [n]() { EXPECT_EQ(n->SendRouted(0, 8, Msg(1)), 0); });
  net->Run();
  EXPECT_TRUE(Probe(n, 8)->received.empty());
  EXPECT_EQ(net->stats().dropped_sends(), 1u);
  EXPECT_EQ(net->churn_drops(), 1u);
}

TEST(NetworkChurnTest, ChurnNeverPerturbsFaultDraws) {
  // Identical fault plans, one run with an extra (non-interfering) churn
  // leave: the per-transmission fault decisions must be bit-identical, which
  // shows churn consumes nothing from the fault RNG stream.
  auto deliveries = [](bool with_churn) {
    FaultPlan fault;
    fault.drop_probability = 0.5;
    ChurnPlan churn;
    if (with_churn) churn.leaves.push_back({8, 1000.0});  // After the run.
    auto net = MakeChurnGrid(churn, fault);
    Network* n = net.get();
    for (int i = 0; i < 100; ++i) {
      net->ScheduleAfter(i + 1.0, [n, i]() { n->Send(0, 1, Msg(i)); });
    }
    net->Run();
    return Probe(n, 1)->received;
  };
  EXPECT_EQ(deliveries(false), deliveries(true));
}

TEST(NetworkChurnTest, SameSeedSamePlanIsDeterministic) {
  auto run = []() {
    ChurnPlan plan;
    plan.crashes.push_back({4, 5.0, 15.0});
    plan.link_changes.push_back({0, 1, 8.0, /*add=*/false});
    FaultPlan fault;
    fault.drop_probability = 0.2;
    auto net = MakeChurnGrid(plan, fault);
    Network* n = net.get();
    for (int i = 0; i < 50; ++i) {
      net->ScheduleAfter(i + 0.5, [n, i]() { n->Broadcast(i % 9, Msg(i)); });
    }
    net->Run();
    return net->stats().ToString();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace elink
