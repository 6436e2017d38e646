// One deploy -> run -> watchdog -> collect driver for all protocols.
//
// RunHarness owns the Network and centralizes the run-loop machinery each
// protocol driver used to duplicate:
//
//  * node installation with runtime binding (the activity counter);
//  * quiet-period completion detection — the watchdog that re-arms every
//    `quiet_timeout` and declares the run timed out when a full window
//    passes with no handler invocations (ELink's completion watchdog,
//    verbatim);
//  * an optional run horizon — a no-op event at `run_horizon` that keeps the
//    clock honest when the protocol dies en route (the query deadline).
//
// Delivered frames, timers and watchdog events are observed through one
// SimObserver (set_observer).
//
// Scheduling order is part of the determinism contract: the caller performs
// all protocol setup (timers, injected messages) on net() first; Run() then
// arms the watchdog, then the horizon, then drains the event queue — the
// exact insertion order of the drivers this replaces.
#ifndef ELINK_PROTO_HARNESS_H_
#define ELINK_PROTO_HARNESS_H_

#include <functional>
#include <memory>
#include <utility>

#include "proto/node.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace elink {
namespace proto {

class RunHarness {
 public:
  struct Options {
    Network::Config net;
    /// Watchdog window: when > 0, the run is declared timed out after a full
    /// window with no protocol activity (unless `done` already reports
    /// success).  0 disables the watchdog.
    double quiet_timeout = 0.0;
    /// When > 0, a no-op event at this time keeps the simulation clock
    /// running to at least the horizon (deadline accounting).
    double run_horizon = 0.0;
  };

  struct Report {
    uint64_t events = 0;
    bool hit_event_cap = false;
    /// True when the watchdog fired with the protocol still incomplete.
    bool timed_out = false;
    double end_time = 0.0;
  };

  RunHarness(const Topology& topology, const Options& options)
      : options_(options), net_(topology, options.net) {}

  Network& net() { return net_; }
  const Network& net() const { return net_; }

  using NodeFactory = std::function<std::unique_ptr<ProtocolNode>(int)>;

  /// Installs factory(id) for every node, binding the harness's activity
  /// counter before each node's install runs.
  void InstallNodes(const NodeFactory& factory);

  /// Completion predicate consulted by the watchdog: when it returns true
  /// the watchdog stands down without declaring a timeout.
  void set_done(std::function<bool()> done) { done_ = std::move(done); }

  /// Installs a SimObserver (telemetry/tracer) on the run: the network
  /// reports sends/delivers/drops/timers to it, the harness adds watchdog
  /// arm/fire and run-end events.  Null detaches.  Set before Run().
  void set_observer(SimObserver* observer) {
    observer_ = observer;
    net_.set_observer(observer);
  }

  /// Arms the watchdog and horizon, then drains the event queue, dispatching
  /// at most `max_events` events.  May be called repeatedly (incremental
  /// protocols re-enter between updates).
  Report Run(uint64_t max_events = Network::kDefaultMaxEvents);

 private:
  void WatchdogTick();

  Options options_;
  Network net_;
  SimObserver* observer_ = nullptr;
  std::function<bool()> done_;
  uint64_t activity_ = 0;
  uint64_t watchdog_last_seen_ = 0;
  bool timed_out_ = false;
};

}  // namespace proto
}  // namespace elink

#endif  // ELINK_PROTO_HARNESS_H_
