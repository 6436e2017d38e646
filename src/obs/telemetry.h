// Per-run telemetry aggregation (elink_obs).
//
// RunTelemetry is the SimObserver a RunHarness binds for the lifetime of a
// run (or a sequence of runs on one network, as the maintenance protocol
// does).  It folds the event stream into a MetricsRegistry as it happens:
//
//  * counters for every event class ("sim.sends", "sim.delivers",
//    "transport.retx", "phase.<name>", ...);
//  * a "message_delay" histogram of full send-to-deliver latencies;
//  * per-node last-activity times, rendered at report time into a
//    "node_completion" histogram (when each node went quiet);
//  * watchdog slack — per armed window, how much margin remained between the
//    last protocol activity and the window expiring (0 when it fired) — as a
//    "watchdog_slack" histogram plus a "watchdog.min_slack" gauge.
//
// MakeReport then snapshots everything into a RunReport together with a
// caller-supplied MessageStats ledger.  The ledger is passed in (not
// accumulated from OnRunEnd) because incremental drivers run many
// RunHarness::Run calls against one network whose stats are cumulative —
// merging per-run would double-count.
//
// Chain a Tracer behind it with set_next to record the same stream.
#ifndef ELINK_OBS_TELEMETRY_H_
#define ELINK_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_report.h"
#include "sim/observer.h"

namespace elink {
namespace obs {

/// \brief Metrics-folding observer bound to one run (or run sequence).
class RunTelemetry : public SimObserver {
 public:
  RunTelemetry();

  /// Chains a second observer (typically a Tracer) that receives every
  /// event after telemetry records it.  Null unchains.
  void set_next(SimObserver* next) { next_ = next; }

  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  // SimObserver implementation.
  void OnCausal(const CausalInfo& info) override;
  void OnSend(double now, int from, int to, const Message& msg,
              double delay) override;
  void OnHop(double at, int from, int to, const Message& msg) override;
  void OnDeliver(double now, int from, int to, const Message& msg) override;
  void OnDrop(double at, int from, int to, const Message& msg) override;
  void OnTimerFire(double now, int node, int timer_id) override;
  void OnDecodeError(double now, int node, CategoryId category) override;
  void OnRetransmit(double now, int node, int to, const Message& msg,
                    int attempt) override;
  void OnTransportAck(double now, int node, int to, long long seq) override;
  void OnTransportGiveUp(double now, int node, int to,
                         const Message& msg) override;
  void OnPhase(double now, int node, const char* phase,
               long long value) override;
  void OnChurn(double now, const char* kind, int a, int b) override;
  void OnWatchdogArm(double now, double window) override;
  void OnWatchdogFire(double now) override;
  void OnRunEnd(double end_time, uint64_t events, bool timed_out,
                bool hit_event_cap) override;

  /// Builds the run's report: outcome from the observed OnRunEnd(s),
  /// communication snapshot from `stats`, metrics from the fold (plus the
  /// node_completion histogram and watchdog gauges materialized here).
  RunReport MakeReport(const std::string& protocol, uint64_t seed,
                       const MessageStats& stats) const;

  /// Smallest observed watchdog slack, or a negative value when the
  /// watchdog never completed a window.
  double min_slack() const { return has_slack_ ? min_slack_ : -1.0; }

  /// Zeroes the fold (metric names stay interned; chaining is kept).
  void Reset();

 private:
  void NoteActivity(double now, int node);
  void NoteSlack(double slack);

  MetricsRegistry metrics_;
  // Pre-interned ids so the per-event cost is one array bump.
  MetricsRegistry::MetricId c_sends_, c_send_units_, c_wire_bytes_, c_hops_,
      c_delivers_, c_drops_, c_dropped_wire_bytes_, c_timer_fires_,
      c_decode_errors_, c_retx_, c_acks_, c_give_ups_, c_watchdog_arms_,
      c_watchdog_fires_, c_runs_;
  // Topology-plane counters ("churn.join", "churn.leave", ...), one per
  // ChurnSchedule event kind.
  MetricsRegistry::MetricId c_churn_join_, c_churn_leave_, c_churn_crash_,
      c_churn_repair_, c_churn_link_add_, c_churn_link_remove_;
  MetricsRegistry::MetricId h_message_delay_, h_watchdog_slack_;

  SimObserver* next_ = nullptr;

  std::vector<double> last_activity_;  // Per node; -1 = never active.

  // Watchdog window bookkeeping for slack computation.
  double last_event_time_ = 0.0;
  double armed_at_ = 0.0;
  bool armed_ = false;
  bool has_slack_ = false;
  double min_slack_ = 0.0;

  // Accumulated outcome over the observed OnRunEnd calls.
  double end_time_ = 0.0;
  uint64_t events_ = 0;
  bool timed_out_ = false;
  bool hit_event_cap_ = false;
};

}  // namespace obs
}  // namespace elink

#endif  // ELINK_OBS_TELEMETRY_H_
