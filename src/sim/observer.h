// Observability seam of the simulator core.
//
// SimObserver is the single hook through which the discrete-event machinery
// reports what it is doing: message sends/hops/deliveries/drops, timer
// fires, decode errors, reliable-transport retransmissions/acks/give-ups,
// protocol phase transitions, and the run harness's watchdog.  The default
// implementation of every callback is a no-op, and every emission site is
// guarded by a null check on the installed pointer — a run with no observer
// attached pays one predictable branch per event and nothing else (the
// perf_simcore gate enforces this stays true).
//
// Determinism contract: observers are *read-only* witnesses.  They are
// invoked at deterministic points in the event schedule with deterministic
// arguments, never consult the RNG, and must not feed anything back into the
// simulation — so attaching or detaching an observer cannot change a run's
// outcome, and two same-seed runs present byte-identical event streams.
#ifndef ELINK_SIM_OBSERVER_H_
#define ELINK_SIM_OBSERVER_H_

#include <cstdint>

#include "sim/category.h"
#include "sim/message.h"

namespace elink {

/// \brief No-op base class for simulation observers (tracers, telemetry).
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  // -- Causal plane (Network) --------------------------------------------
  /// Causal annotation for the *next* callback on this observer.  Ids are
  /// assigned deterministically by the Network (dense, starting at 1; 0
  /// means "none"), and are only consumed while an observer is attached, so
  /// two same-seed runs with the same observer configuration see identical
  /// ids — and detaching the observer still changes no simulation outcome.
  struct CausalInfo {
    /// Fresh id of the handler activation this event *is* (a delivery
    /// dispatch or an actual timer fire); 0 for send/hop/drop annotations.
    uint64_t self = 0;
    /// Stable id of the in-flight message (send/hop/drop/deliver); one id
    /// per logical message — broadcast fan-out legs and every relay hop of
    /// a routed send share it.  0 when the event has no message.
    uint64_t msg = 0;
    /// Id of the causing handler activation: for sends/hops/drops the
    /// delivery or timer handler that was running when the message went on
    /// the air; for timer fires the handler that armed the timer.  0 means
    /// genesis (driver code outside any handler).
    uint64_t parent = 0;
  };
  /// Emitted immediately before the OnSend/OnHop/OnDeliver/OnDrop/
  /// OnTimerFire callback it annotates.  Observers that do not record
  /// causality ignore it (but chained observers must forward it).
  virtual void OnCausal(const CausalInfo& info) { (void)info; }

  // -- Message plane (Network) -------------------------------------------
  /// A message was charged and scheduled for delivery.  `delay` is the full
  /// send-to-deliver latency (all hops for routed sends), so message-delay
  /// distributions can be recorded at send time.
  virtual void OnSend(double now, int from, int to, const Message& msg,
                      double delay) {
    (void)now, (void)from, (void)to, (void)msg, (void)delay;
  }
  /// One relay transmission of a routed message (charged like a send);
  /// `at` is the simulated time the hop goes on the air.
  virtual void OnHop(double at, int from, int to, const Message& msg) {
    (void)at, (void)from, (void)to, (void)msg;
  }
  /// A message reached its destination's handler.
  virtual void OnDeliver(double now, int from, int to, const Message& msg) {
    (void)now, (void)from, (void)to, (void)msg;
  }
  /// A transmission was lost to fault injection (loss, outage, crash).
  virtual void OnDrop(double at, int from, int to, const Message& msg) {
    (void)at, (void)from, (void)to, (void)msg;
  }
  /// A protocol timer fired on `node` (suppressed timers of crashed nodes
  /// are not reported: they never fire).
  virtual void OnTimerFire(double now, int node, int timer_id) {
    (void)now, (void)node, (void)timer_id;
  }
  /// A delivered frame was rejected by the receiving protocol (truncated,
  /// malformed, or failing protocol-level field validation).
  virtual void OnDecodeError(double now, int node, CategoryId category) {
    (void)now, (void)node, (void)category;
  }

  // -- Transport plane (ReliableChannel) ---------------------------------
  /// `node` retransmitted an unacknowledged message to `to` (attempt n).
  virtual void OnRetransmit(double now, int node, int to, const Message& msg,
                            int attempt) {
    (void)now, (void)node, (void)to, (void)msg, (void)attempt;
  }
  /// `node` acknowledged delivery `seq` back to originator `to`.
  virtual void OnTransportAck(double now, int node, int to, long long seq) {
    (void)now, (void)node, (void)to, (void)seq;
  }
  /// `node` abandoned a message to `to` after exhausting its retry budget.
  virtual void OnTransportGiveUp(double now, int node, int to,
                                 const Message& msg) {
    (void)now, (void)node, (void)to, (void)msg;
  }

  // -- Topology plane (Network, churn) -----------------------------------
  /// A scheduled ChurnPlan event took effect.  `kind` is one of the
  /// ChurnSchedule::KindName spellings ("join", "leave", "crash", "repair",
  /// "link_add", "link_remove"); `a` is the node (or link endpoint u) and
  /// `b` the other link endpoint (-1 for node events).  Fault-plan crash
  /// recoveries are NOT reported here — only first-class churn.
  virtual void OnChurn(double now, const char* kind, int a, int b) {
    (void)now, (void)kind, (void)a, (void)b;
  }

  // -- Protocol plane (drivers, via ProtocolNode::TracePhase) ------------
  /// A named protocol phase transition on `node` (ELink round starts and
  /// completions, maintenance detach/adopt, query fan-out/collect, ...).
  virtual void OnPhase(double now, int node, const char* phase,
                       long long value) {
    (void)now, (void)node, (void)phase, (void)value;
  }

  // -- Run harness -------------------------------------------------------
  /// The quiet-period watchdog (re-)armed for a `window`-long wait.
  virtual void OnWatchdogArm(double now, double window) {
    (void)now, (void)window;
  }
  /// The watchdog saw a full quiet window and declared the run timed out.
  virtual void OnWatchdogFire(double now) { (void)now; }
  /// One RunHarness::Run drained (or hit its cap).
  virtual void OnRunEnd(double end_time, uint64_t events, bool timed_out,
                        bool hit_event_cap) {
    (void)end_time, (void)events, (void)timed_out, (void)hit_event_cap;
  }
};

}  // namespace elink

#endif  // ELINK_SIM_OBSERVER_H_
