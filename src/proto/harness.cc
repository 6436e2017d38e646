#include "proto/harness.h"

namespace elink {
namespace proto {

void RunHarness::InstallNodes(const NodeFactory& factory) {
  for (int id = 0; id < net_.num_nodes(); ++id) {
    std::unique_ptr<ProtocolNode> node = factory(id);
    ELINK_CHECK(node != nullptr);
    // Bind before install: OnInstall (channel attach, OnReady) may already
    // need the runtime hooks in place.
    node->BindRuntime(&activity_, &trace_);
    net_.InstallNode(id, std::move(node));
  }
}

RunHarness::Report RunHarness::Run(uint64_t max_events) {
  if (options_.quiet_timeout > 0.0) {
    timed_out_ = false;
    watchdog_last_seen_ = activity_;
    if (observer_ != nullptr) {
      observer_->OnWatchdogArm(net_.Now(), options_.quiet_timeout);
    }
    net_.ScheduleAfter(options_.quiet_timeout, [this] { WatchdogTick(); });
  }
  if (options_.run_horizon > 0.0) {
    net_.ScheduleAfter(options_.run_horizon, [] {});
  }
  Report report;
  report.events = net_.Run(max_events);
  report.hit_event_cap = net_.hit_event_cap();
  report.timed_out = timed_out_;
  report.end_time = net_.Now();
  if (observer_ != nullptr) {
    observer_->OnRunEnd(report.end_time, report.events, report.timed_out,
                        report.hit_event_cap);
  }
  return report;
}

void RunHarness::WatchdogTick() {
  // Quiet-period completion detection: a full window with no handler
  // activity and no success verdict means lost waves or dead coordinators —
  // report "timed out" instead of letting the drained queue masquerade as a
  // protocol error.
  if ((done_ && done_()) || timed_out_) return;
  if (activity_ == watchdog_last_seen_) {
    timed_out_ = true;
    if (observer_ != nullptr) observer_->OnWatchdogFire(net_.Now());
    return;
  }
  watchdog_last_seen_ = activity_;
  if (observer_ != nullptr) {
    observer_->OnWatchdogArm(net_.Now(), options_.quiet_timeout);
  }
  net_.ScheduleAfter(options_.quiet_timeout, [this] { WatchdogTick(); });
}

}  // namespace proto
}  // namespace elink
