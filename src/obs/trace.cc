#include "obs/trace.h"

#include <utility>

#include "common/status.h"
#include "obs/metrics.h"
#include "proto/wire.h"

namespace elink {
namespace obs {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSend:
      return "send";
    case TraceKind::kHop:
      return "hop";
    case TraceKind::kDeliver:
      return "deliver";
    case TraceKind::kDrop:
      return "drop";
    case TraceKind::kTimerFire:
      return "timer";
    case TraceKind::kDecodeError:
      return "decode_error";
    case TraceKind::kRetransmit:
      return "retx";
    case TraceKind::kTransportAck:
      return "ack";
    case TraceKind::kTransportGiveUp:
      return "give_up";
    case TraceKind::kPhase:
      return "phase";
    case TraceKind::kChurn:
      return "churn";
    case TraceKind::kWatchdogArm:
      return "watchdog_arm";
    case TraceKind::kWatchdogFire:
      return "watchdog_fire";
    case TraceKind::kRunEnd:
      return "run_end";
  }
  return "unknown";
}

Tracer::Tracer(size_t capacity) {
  ELINK_CHECK(capacity > 0);
  buffer_.resize(capacity);
}

uint32_t Tracer::Intern(const std::string& label) {
  auto [it, inserted] =
      label_index_.emplace(label, static_cast<uint32_t>(labels_.size()));
  if (inserted) labels_.push_back(label);
  return it->second;
}

void Tracer::Push(TraceEvent event) {
  if (has_pending_causal_) {
    // The OnCausal emitted just before this event annotates it.
    event.causal_self = pending_causal_.self;
    event.causal_msg = pending_causal_.msg;
    event.causal_parent = pending_causal_.parent;
    has_pending_causal_ = false;
  }
  event.seq = next_seq_++;
  if (count_ < buffer_.size()) {
    buffer_[(start_ + count_) % buffer_.size()] = event;
    ++count_;
  } else {
    buffer_[start_] = event;  // Overwrite the oldest event.
    start_ = (start_ + 1) % buffer_.size();
  }
}

void Tracer::OnCausal(const CausalInfo& info) {
  pending_causal_ = info;
  has_pending_causal_ = true;
}

void Tracer::OnSend(double now, int from, int to, const Message& msg,
                    double delay) {
  TraceEvent e;
  e.kind = TraceKind::kSend;
  e.time = now;
  e.aux = delay;
  e.node = from;
  e.peer = to;
  e.label = Intern(CategoryName(msg.category));
  e.value = msg.CostUnits();
  e.bytes = static_cast<uint32_t>(wire::FrameSize(msg));
  Push(e);
}

void Tracer::OnHop(double at, int from, int to, const Message& msg) {
  TraceEvent e;
  e.kind = TraceKind::kHop;
  e.time = at;
  e.node = from;
  e.peer = to;
  e.label = Intern(CategoryName(msg.category));
  e.value = msg.CostUnits();
  e.bytes = static_cast<uint32_t>(wire::FrameSize(msg));
  Push(e);
}

void Tracer::OnDeliver(double now, int from, int to, const Message& msg) {
  TraceEvent e;
  e.kind = TraceKind::kDeliver;
  e.time = now;
  e.node = to;
  e.peer = from;
  e.label = Intern(CategoryName(msg.category));
  e.value = msg.CostUnits();
  e.bytes = static_cast<uint32_t>(wire::FrameSize(msg));
  Push(e);
}

void Tracer::OnDrop(double at, int from, int to, const Message& msg) {
  TraceEvent e;
  e.kind = TraceKind::kDrop;
  e.time = at;
  e.node = from;
  e.peer = to;
  e.label = Intern(CategoryName(msg.category));
  e.value = msg.CostUnits();
  e.bytes = static_cast<uint32_t>(wire::FrameSize(msg));
  Push(e);
}

void Tracer::OnTimerFire(double now, int node, int timer_id) {
  TraceEvent e;
  e.kind = TraceKind::kTimerFire;
  e.time = now;
  e.node = node;
  e.value = timer_id;
  Push(e);
}

void Tracer::OnDecodeError(double now, int node, CategoryId category) {
  TraceEvent e;
  e.kind = TraceKind::kDecodeError;
  e.time = now;
  e.node = node;
  e.label = Intern(CategoryName(category));
  Push(e);
}

void Tracer::OnRetransmit(double now, int node, int to, const Message& msg,
                          int attempt) {
  TraceEvent e;
  e.kind = TraceKind::kRetransmit;
  e.time = now;
  e.node = node;
  e.peer = to;
  e.label = Intern(CategoryName(msg.category));
  e.value = attempt;
  Push(e);
}

void Tracer::OnTransportAck(double now, int node, int to, long long seq) {
  TraceEvent e;
  e.kind = TraceKind::kTransportAck;
  e.time = now;
  e.node = node;
  e.peer = to;
  e.value = seq;
  Push(e);
}

void Tracer::OnTransportGiveUp(double now, int node, int to,
                               const Message& msg) {
  TraceEvent e;
  e.kind = TraceKind::kTransportGiveUp;
  e.time = now;
  e.node = node;
  e.peer = to;
  e.label = Intern(CategoryName(msg.category));
  Push(e);
}

void Tracer::OnPhase(double now, int node, const char* phase,
                     long long value) {
  TraceEvent e;
  e.kind = TraceKind::kPhase;
  e.time = now;
  e.node = node;
  e.label = Intern(phase);
  e.value = value;
  Push(e);
}

void Tracer::OnChurn(double now, const char* kind, int a, int b) {
  TraceEvent e;
  e.kind = TraceKind::kChurn;
  e.time = now;
  e.node = a;
  e.peer = b;
  e.label = Intern(kind);
  Push(e);
}

void Tracer::OnWatchdogArm(double now, double window) {
  TraceEvent e;
  e.kind = TraceKind::kWatchdogArm;
  e.time = now;
  e.aux = window;
  Push(e);
}

void Tracer::OnWatchdogFire(double now) {
  TraceEvent e;
  e.kind = TraceKind::kWatchdogFire;
  e.time = now;
  Push(e);
}

void Tracer::OnRunEnd(double end_time, uint64_t events, bool timed_out,
                      bool hit_event_cap) {
  TraceEvent e;
  e.kind = TraceKind::kRunEnd;
  e.time = end_time;
  e.label = Intern(timed_out ? "timed_out" : (hit_event_cap ? "event_cap"
                                                            : "ok"));
  e.value = static_cast<long long>(events);
  Push(e);
}

void Tracer::Clear() {
  start_ = 0;
  count_ = 0;
  next_seq_ = 0;
}

void Tracer::AppendJsonl(const TraceEvent& e, std::string* out) const {
  *out += "{\"t\":";
  *out += JsonDouble(e.time);
  *out += ",\"seq\":";
  *out += std::to_string(e.seq);
  *out += ",\"kind\":\"";
  *out += TraceKindName(e.kind);
  *out += "\"";
  if (e.node >= 0) {
    *out += ",\"node\":";
    *out += std::to_string(e.node);
  }
  if (e.peer >= 0) {
    *out += ",\"peer\":";
    *out += std::to_string(e.peer);
  }
  if (e.label != TraceEvent::kNoLabel) {
    *out += ",\"label\":\"";
    *out += JsonEscape(labels_[e.label]);
    *out += "\"";
  }
  if (e.value != 0) {
    *out += ",\"value\":";
    *out += std::to_string(e.value);
  }
  if (e.aux != 0.0) {
    *out += ",\"aux\":";
    *out += JsonDouble(e.aux);
  }
  // Causal annotation and wire bytes render only when present, so untraced
  // runs (and pre-causal fixtures) export byte-identical lines.
  if (e.causal_self != 0) {
    *out += ",\"cid\":";
    *out += std::to_string(e.causal_self);
  }
  if (e.causal_msg != 0) {
    *out += ",\"mid\":";
    *out += std::to_string(e.causal_msg);
  }
  if (e.causal_parent != 0) {
    *out += ",\"parent\":";
    *out += std::to_string(e.causal_parent);
  }
  if (e.bytes != 0) {
    *out += ",\"bytes\":";
    *out += std::to_string(e.bytes);
  }
  *out += "}\n";
}

std::string Tracer::ExportJsonl() const {
  std::string out;
  out.reserve(count_ * 64);
  if (overwritten() > 0) {
    // Overflow banner: the retained window is a suffix of the run, so
    // causal chains that started earlier are truncated.
    out += "{\"warning\":\"trace ring overflowed\",\"overwritten\":";
    out += std::to_string(overwritten());
    out += ",\"capacity\":";
    out += std::to_string(capacity());
    out += "}\n";
  }
  ForEach([&](const TraceEvent& e) { AppendJsonl(e, &out); });
  return out;
}

void Tracer::AppendChrome(const TraceEvent& e, std::string* out) const {
  // One sim time unit renders as 1 ms; trace_event "ts"/"dur" are in us.
  const double ts = e.time * 1000.0;
  const char* name = e.label != TraceEvent::kNoLabel
                         ? labels_[e.label].c_str()
                         : TraceKindName(e.kind);
  *out += "{\"name\":\"";
  *out += JsonEscape(*name != '\0' ? name : TraceKindName(e.kind));
  *out += "\",\"cat\":\"";
  *out += TraceKindName(e.kind);
  *out += "\",\"pid\":0,\"tid\":";
  *out += std::to_string(e.node >= 0 ? e.node : -1);
  if (e.kind == TraceKind::kSend && e.aux > 0.0) {
    // Sends render as complete events spanning the send-to-deliver delay on
    // the sender's track.
    *out += ",\"ph\":\"X\",\"ts\":";
    *out += JsonDouble(ts);
    *out += ",\"dur\":";
    *out += JsonDouble(e.aux * 1000.0);
  } else {
    *out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    *out += JsonDouble(ts);
  }
  *out += ",\"args\":{\"seq\":";
  *out += std::to_string(e.seq);
  if (e.peer >= 0) {
    *out += ",\"peer\":";
    *out += std::to_string(e.peer);
  }
  if (e.value != 0) {
    *out += ",\"value\":";
    *out += std::to_string(e.value);
  }
  *out += "}}";
}

void Tracer::AppendChromeFlow(const TraceEvent& e, std::string* out) const {
  // Flow arrows pair a start at the send with an end at the deliver,
  // matched by identical name + id.  The id is the message id plus the
  // receiving endpoint, so every leg of a broadcast fan-out gets its own
  // arrow off the shared payload.
  const bool start = e.kind == TraceKind::kSend;
  const int dest = start ? e.peer : e.node;
  const char* name = e.label != TraceEvent::kNoLabel
                         ? labels_[e.label].c_str()
                         : TraceKindName(e.kind);
  *out += "{\"name\":\"";
  *out += JsonEscape(*name != '\0' ? name : TraceKindName(e.kind));
  *out += "\",\"cat\":\"flow\",\"ph\":\"";
  *out += start ? "s" : "f";
  if (!start) *out += "\",\"bp\":\"e";
  *out += "\",\"id\":\"";
  *out += std::to_string(e.causal_msg);
  *out += "-";
  *out += std::to_string(dest);
  *out += "\",\"pid\":0,\"tid\":";
  *out += std::to_string(e.node >= 0 ? e.node : -1);
  *out += ",\"ts\":";
  *out += JsonDouble(e.time * 1000.0);
  *out += "}";
}

std::string Tracer::ExportChromeTrace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out.reserve(count_ * 96);
  bool first = true;
  ForEach([&](const TraceEvent& e) {
    if (!first) out += ",\n";
    first = false;
    AppendChrome(e, &out);
    // Causally-annotated message motion additionally renders as a flow
    // arrow from the send to its deliver (drops have no end, so no arrow).
    if (e.causal_msg != 0 &&
        (e.kind == TraceKind::kSend || e.kind == TraceKind::kDeliver)) {
      out += ",\n";
      AppendChromeFlow(e, &out);
    }
  });
  out += "]";
  if (overwritten() > 0) {
    out += ",\"otherData\":{\"warning\":\"trace ring overflowed: oldest ";
    out += std::to_string(overwritten());
    out += " of ";
    out += std::to_string(total_recorded());
    out += " events were overwritten; causal chains may be truncated\"}";
  }
  out += "}\n";
  return out;
}

std::string Tracer::StatsJson() const {
  std::string out = "{\"capacity\":";
  out += std::to_string(capacity());
  out += ",\"recorded\":";
  out += std::to_string(total_recorded());
  out += ",\"retained\":";
  out += std::to_string(size());
  out += ",\"overwritten\":";
  out += std::to_string(overwritten());
  out += ",\"utilization\":";
  out += JsonDouble(static_cast<double>(size()) /
                    static_cast<double>(capacity()));
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace elink
