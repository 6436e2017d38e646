// Regression corpus for the scenario fuzzer (src/check): every seed that
// ever exposed a bug is pinned here as a named case, plus a smoke sweep per
// protocol so new regressions surface in ctest before the deep CI sweep.
//
// To reproduce any failure interactively:
//   bench/check_fuzz --seed=<S> --protocol=<P>
#include <gtest/gtest.h>

#include "check/runner.h"

namespace elink {
namespace check {
namespace {

// -- Pinned findings --------------------------------------------------------

TEST(CheckFuzzRegressionTest, MaintenanceDetachUnderLossSeed4) {
  // Found by check_fuzz: a node that detached (StartDetach) and whose probe
  // replies were then lost stayed a self-rooted singleton with the root-role
  // fields (announced_/stored_root_) never initialized; the next local
  // update crashed WeightedEuclidean on an empty feature.  Fixed by making
  // StartDetach set the root-role state immediately.
  const CheckOutcome out = RunScenario(Protocol::kMaintenance, 4);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, MaintenanceDetachUnderLossSeed12) {
  // Second seed of the same StartDetach finding; kept because its fault mix
  // (truncation + loss) reaches the crash through the RootChanged path.
  const CheckOutcome out = RunScenario(Protocol::kMaintenance, 12);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, MaintenanceMutualAdoptionCycleSeed412) {
  // Found by the churn-isolated sweep, but a pure legacy-path bug (the
  // minimal repro disables churn too): on a linear topology under async
  // delays, a root's feature push evicted node 1, whose re-probe read
  // neighbor 0's not-yet-updated stored root feature and re-adopted into
  // the stale cluster; node 0's own eviction then crossed node 1's Attach,
  // and 0 adopted 1 back — a parent 2-cycle disconnected from the real
  // tree, forwarding RootChanged to each other forever (event-cap
  // livelock).  Fixed three ways: the RootChanged idempotence guard is
  // unconditional, a node never adopts its own current child, and a
  // relabel that lands out of range evicts unconditionally.
  ScenarioKnobs knobs;
  knobs.faults = false;
  knobs.reliable = false;
  knobs.slack = false;
  const CheckOutcome out = RunScenario(Protocol::kMaintenance, 412, knobs);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, MaintenanceStaleVerifiedBaseUnderFireFront) {
  // Found by the 1000-seed sweep (synchronous churn with a fire front):
  // a root's feature push moved a member's stored root feature while its
  // verified_ feature stayed at a pre-shift value more than delta away, so
  // a later update was absorbed by A1/A2 against that stale base and left
  // the node out of range of its root (seed 611: node 4 at 0.736 > 0.506;
  // 772: node 6 at 1.886 > 1.550; 971: node 1 at 3.746 > 3.256).  Fixed by
  // rebasing verified_ on the checked feature whenever a push or relabel
  // leaves the node in range under churn.
  for (const uint64_t seed : {611, 772, 971}) {
    const CheckOutcome out = RunScenario(Protocol::kMaintenance, seed);
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": " << out.Summary();
  }
}

TEST(CheckFuzzRegressionTest, ReliableRoutedSelfAckSeed62) {
  // Found by check_fuzz: ReliableChannel acked a routed self-delivery
  // (rel_from == from == self) with Network::Send(self, self), which fails
  // the HasEdge check — there is no self edge.  Fixed by routing the ack
  // whenever the originator is the receiving node itself.
  const CheckOutcome out = RunScenario(Protocol::kRangeQuery, 62);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(CheckFuzzRegressionTest, ReliableRoutedSelfAckAllSeeds) {
  // The remaining seeds of the self-ack finding from the first 1000-seed
  // sweep; cheap enough to keep wholesale.
  const uint64_t kSeeds[] = {66,  99,  104, 108, 115, 129, 135, 217,
                             235, 237, 389, 449, 481, 483, 621, 634,
                             893, 931, 942, 962, 973, 984, 988};
  for (const uint64_t seed : kSeeds) {
    const CheckOutcome out = RunScenario(Protocol::kRangeQuery, seed);
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": " << out.Summary();
  }
}

// -- Smoke sweeps -----------------------------------------------------------
//
// One hundred scenarios per protocol on every ctest run.  The CI check-fuzz
// job runs the same harness ten times deeper (bench/check_fuzz
// --scenarios=1000); these keep local runs honest.

class CheckFuzzSmokeTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(CheckFuzzSmokeTest, HundredScenariosHoldAllInvariants) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const CheckOutcome out = RunScenario(GetParam(), seed);
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": " << out.Summary()
                          << "\n  repro: bench/check_fuzz --seed=" << seed
                          << " --protocol=" << ProtocolName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CheckFuzzSmokeTest,
                         ::testing::ValuesIn(AllProtocols()),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(ProtocolName(info.param)) ==
                                          "range_query"
                                      ? "RangeQuery"
                                  : std::string(ProtocolName(info.param)) ==
                                          "path_query"
                                      ? "PathQuery"
                                  : std::string(ProtocolName(info.param)) ==
                                          "maintenance"
                                      ? "Maintenance"
                                      : "Elink";
                         });

}  // namespace
}  // namespace check
}  // namespace elink
