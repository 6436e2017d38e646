#include "obs/telemetry.h"

#include <algorithm>
#include <cstring>

#include "proto/wire.h"

namespace elink {
namespace obs {

RunTelemetry::RunTelemetry() {
  c_sends_ = metrics_.CounterId("sim.sends");
  c_send_units_ = metrics_.CounterId("sim.send_units");
  c_wire_bytes_ = metrics_.CounterId("sim.wire_bytes");
  c_hops_ = metrics_.CounterId("sim.hops");
  c_delivers_ = metrics_.CounterId("sim.delivers");
  c_drops_ = metrics_.CounterId("sim.drops");
  c_dropped_wire_bytes_ = metrics_.CounterId("sim.dropped_wire_bytes");
  c_timer_fires_ = metrics_.CounterId("sim.timer_fires");
  c_decode_errors_ = metrics_.CounterId("sim.decode_errors");
  c_retx_ = metrics_.CounterId("transport.retx");
  c_acks_ = metrics_.CounterId("transport.acks");
  c_give_ups_ = metrics_.CounterId("transport.give_ups");
  c_watchdog_arms_ = metrics_.CounterId("harness.watchdog_arms");
  c_watchdog_fires_ = metrics_.CounterId("harness.watchdog_fires");
  c_runs_ = metrics_.CounterId("harness.runs");
  c_churn_join_ = metrics_.CounterId("churn.join");
  c_churn_leave_ = metrics_.CounterId("churn.leave");
  c_churn_crash_ = metrics_.CounterId("churn.crash");
  c_churn_repair_ = metrics_.CounterId("churn.repair");
  c_churn_link_add_ = metrics_.CounterId("churn.link_add");
  c_churn_link_remove_ = metrics_.CounterId("churn.link_remove");
  h_message_delay_ = metrics_.HistogramId("message_delay");
  h_watchdog_slack_ = metrics_.HistogramId("watchdog_slack");
}

void RunTelemetry::NoteActivity(double now, int node) {
  last_event_time_ = std::max(last_event_time_, now);
  if (node < 0) return;
  if (last_activity_.size() <= static_cast<size_t>(node)) {
    last_activity_.resize(static_cast<size_t>(node) + 1, -1.0);
  }
  last_activity_[static_cast<size_t>(node)] =
      std::max(last_activity_[static_cast<size_t>(node)], now);
}

void RunTelemetry::NoteSlack(double slack) {
  slack = std::max(slack, 0.0);
  metrics_.Record(h_watchdog_slack_, slack);
  if (!has_slack_ || slack < min_slack_) {
    has_slack_ = true;
    min_slack_ = slack;
  }
}

void RunTelemetry::OnCausal(const CausalInfo& info) {
  // Telemetry aggregates; causality only matters to a chained Tracer.
  if (next_ != nullptr) next_->OnCausal(info);
}

void RunTelemetry::OnSend(double now, int from, int to, const Message& msg,
                          double delay) {
  metrics_.Add(c_sends_);
  metrics_.Add(c_send_units_, static_cast<uint64_t>(msg.CostUnits()));
  metrics_.Add(c_wire_bytes_, wire::FrameSize(msg));
  metrics_.Record(h_message_delay_, delay);
  if (next_ != nullptr) next_->OnSend(now, from, to, msg, delay);
}

void RunTelemetry::OnHop(double at, int from, int to, const Message& msg) {
  metrics_.Add(c_hops_);
  if (next_ != nullptr) next_->OnHop(at, from, to, msg);
}

void RunTelemetry::OnDeliver(double now, int from, int to,
                             const Message& msg) {
  metrics_.Add(c_delivers_);
  NoteActivity(now, to);
  if (next_ != nullptr) next_->OnDeliver(now, from, to, msg);
}

void RunTelemetry::OnDrop(double at, int from, int to, const Message& msg) {
  metrics_.Add(c_drops_);
  metrics_.Add(c_dropped_wire_bytes_, wire::FrameSize(msg));
  if (next_ != nullptr) next_->OnDrop(at, from, to, msg);
}

void RunTelemetry::OnTimerFire(double now, int node, int timer_id) {
  metrics_.Add(c_timer_fires_);
  NoteActivity(now, node);
  if (next_ != nullptr) next_->OnTimerFire(now, node, timer_id);
}

void RunTelemetry::OnDecodeError(double now, int node,
                                 CategoryId category) {
  metrics_.Add(c_decode_errors_);
  if (next_ != nullptr) next_->OnDecodeError(now, node, category);
}

void RunTelemetry::OnRetransmit(double now, int node, int to,
                                const Message& msg, int attempt) {
  metrics_.Add(c_retx_);
  if (next_ != nullptr) next_->OnRetransmit(now, node, to, msg, attempt);
}

void RunTelemetry::OnTransportAck(double now, int node, int to,
                                  long long seq) {
  metrics_.Add(c_acks_);
  if (next_ != nullptr) next_->OnTransportAck(now, node, to, seq);
}

void RunTelemetry::OnTransportGiveUp(double now, int node, int to,
                                     const Message& msg) {
  metrics_.Add(c_give_ups_);
  if (next_ != nullptr) next_->OnTransportGiveUp(now, node, to, msg);
}

void RunTelemetry::OnPhase(double now, int node, const char* phase,
                           long long value) {
  metrics_.AddCounter(std::string("phase.") + phase);
  if (next_ != nullptr) next_->OnPhase(now, node, phase, value);
}

void RunTelemetry::OnChurn(double now, const char* kind, int a, int b) {
  // `kind` is one of ChurnSchedule::KindName's six literals.
  if (std::strcmp(kind, "join") == 0) {
    metrics_.Add(c_churn_join_);
  } else if (std::strcmp(kind, "leave") == 0) {
    metrics_.Add(c_churn_leave_);
  } else if (std::strcmp(kind, "crash") == 0) {
    metrics_.Add(c_churn_crash_);
  } else if (std::strcmp(kind, "repair") == 0) {
    metrics_.Add(c_churn_repair_);
  } else if (std::strcmp(kind, "link_add") == 0) {
    metrics_.Add(c_churn_link_add_);
  } else if (std::strcmp(kind, "link_remove") == 0) {
    metrics_.Add(c_churn_link_remove_);
  } else {
    metrics_.AddCounter(std::string("churn.") + kind);
  }
  if (next_ != nullptr) next_->OnChurn(now, kind, a, b);
}

void RunTelemetry::OnWatchdogArm(double now, double window) {
  metrics_.Add(c_watchdog_arms_);
  if (armed_) {
    // The previous window completed with activity; its slack is how early
    // before expiry the last protocol event landed.
    NoteSlack(window - (now - last_event_time_));
  }
  armed_ = true;
  armed_at_ = now;
  if (next_ != nullptr) next_->OnWatchdogArm(now, window);
}

void RunTelemetry::OnWatchdogFire(double now) {
  metrics_.Add(c_watchdog_fires_);
  if (armed_) NoteSlack(0.0);
  armed_ = false;
  if (next_ != nullptr) next_->OnWatchdogFire(now);
}

void RunTelemetry::OnRunEnd(double end_time, uint64_t events, bool timed_out,
                            bool hit_event_cap) {
  metrics_.Add(c_runs_);
  armed_ = false;
  end_time_ = end_time;
  events_ += events;
  timed_out_ = timed_out_ || timed_out;
  hit_event_cap_ = hit_event_cap_ || hit_event_cap;
  if (next_ != nullptr) {
    next_->OnRunEnd(end_time, events, timed_out, hit_event_cap);
  }
}

RunReport RunTelemetry::MakeReport(const std::string& protocol, uint64_t seed,
                                   const MessageStats& stats) const {
  RunReport report;
  report.protocol = protocol;
  report.seed = seed;
  report.end_time = end_time_;
  report.events = events_;
  report.timed_out = timed_out_;
  report.hit_event_cap = hit_event_cap_;
  report.CaptureStats(stats);
  report.metrics = metrics_;
  for (const double t : last_activity_) {
    if (t >= 0.0) report.metrics.RecordHistogram("node_completion", t);
  }
  if (has_slack_) {
    report.metrics.SetGauge("watchdog.min_slack", min_slack_);
  }
  return report;
}

void RunTelemetry::Reset() {
  metrics_.Reset();
  last_activity_.clear();
  last_event_time_ = 0.0;
  armed_at_ = 0.0;
  armed_ = false;
  has_slack_ = false;
  min_slack_ = 0.0;
  end_time_ = 0.0;
  events_ = 0;
  timed_out_ = false;
  hit_event_cap_ = false;
}

}  // namespace obs
}  // namespace elink
