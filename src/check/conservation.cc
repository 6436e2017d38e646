#include "check/conservation.h"

#include <set>

#include "common/strings.h"
#include "proto/wire.h"

namespace elink {
namespace check {

void ConservationLedger::OnCausal(const CausalInfo& info) {
  // Pure pass-through: causal ids do not change any conservation law, but a
  // tracer chained behind the ledger needs them to annotate its events.
  if (next_ != nullptr) next_->OnCausal(info);
}

void ConservationLedger::OnSend(double now, int from, int to,
                                const Message& msg, double delay) {
  ++logical_sends_;
  logical_units_ += static_cast<uint64_t>(msg.CostUnits());
  logical_bytes_ += wire::FrameSize(msg);
  if (routed_pending_) {
    // Closing OnSend of a routed message: hops already charged.
    routed_pending_ = false;
  } else if (from != to) {
    // Plain single-hop send: charged exactly like MessageStats::Record.
    // The observer sees the same (possibly truncated) message the Network
    // charged, so re-encoding its frame length here reproduces the byte
    // ledger independently.
    ++charged_sends_;
    charged_units_ += static_cast<uint64_t>(msg.CostUnits());
    charged_bytes_ += wire::FrameSize(msg);
    Category& c = Cat(msg.category);
    ++c.sends;
    c.units += static_cast<uint64_t>(msg.CostUnits());
    c.bytes += wire::FrameSize(msg);
  }
  // from == to (routed self-delivery) is free on the wire.
  if (next_ != nullptr) next_->OnSend(now, from, to, msg, delay);
}

void ConservationLedger::OnHop(double at, int from, int to,
                               const Message& msg) {
  ++hops_;
  ++charged_sends_;
  charged_units_ += static_cast<uint64_t>(msg.CostUnits());
  charged_bytes_ += wire::FrameSize(msg);
  Category& c = Cat(msg.category);
  ++c.sends;
  c.units += static_cast<uint64_t>(msg.CostUnits());
  c.bytes += wire::FrameSize(msg);
  routed_pending_ = true;
  if (next_ != nullptr) next_->OnHop(at, from, to, msg);
}

void ConservationLedger::OnDeliver(double now, int from, int to,
                                   const Message& msg) {
  ++delivers_;
  if (next_ != nullptr) next_->OnDeliver(now, from, to, msg);
}

void ConservationLedger::OnDrop(double at, int from, int to,
                                const Message& msg) {
  ++drops_;
  dropped_units_ += static_cast<uint64_t>(msg.CostUnits());
  dropped_bytes_ += wire::FrameSize(msg);
  Category& c = Cat(msg.category);
  ++c.dropped_sends;
  c.dropped_units += static_cast<uint64_t>(msg.CostUnits());
  c.dropped_bytes += wire::FrameSize(msg);
  // A routed message that died mid-path never emits its closing OnSend.
  routed_pending_ = false;
  if (next_ != nullptr) next_->OnDrop(at, from, to, msg);
}

void ConservationLedger::OnTimerFire(double now, int node, int timer_id) {
  ++timer_fires_;
  if (next_ != nullptr) next_->OnTimerFire(now, node, timer_id);
}

void ConservationLedger::OnDecodeError(double now, int node,
                                       CategoryId category) {
  ++decode_errors_;
  ++Cat(category).decode_errors;
  if (next_ != nullptr) next_->OnDecodeError(now, node, category);
}

void ConservationLedger::OnRetransmit(double now, int node, int to,
                                      const Message& msg, int attempt) {
  ++retransmits_;
  if (next_ != nullptr) next_->OnRetransmit(now, node, to, msg, attempt);
}

void ConservationLedger::OnTransportAck(double now, int node, int to,
                                        long long seq) {
  ++transport_acks_;
  if (next_ != nullptr) next_->OnTransportAck(now, node, to, seq);
}

void ConservationLedger::OnTransportGiveUp(double now, int node, int to,
                                           const Message& msg) {
  ++transport_give_ups_;
  if (next_ != nullptr) next_->OnTransportGiveUp(now, node, to, msg);
}

void ConservationLedger::OnPhase(double now, int node, const char* phase,
                                 long long value) {
  if (next_ != nullptr) next_->OnPhase(now, node, phase, value);
}

void ConservationLedger::OnChurn(double now, const char* kind, int a, int b) {
  if (next_ != nullptr) next_->OnChurn(now, kind, a, b);
}

void ConservationLedger::OnWatchdogArm(double now, double window) {
  if (next_ != nullptr) next_->OnWatchdogArm(now, window);
}

void ConservationLedger::OnWatchdogFire(double now) {
  if (next_ != nullptr) next_->OnWatchdogFire(now);
}

void ConservationLedger::OnRunEnd(double end_time, uint64_t events,
                                  bool timed_out, bool hit_event_cap) {
  if (next_ != nullptr) {
    next_->OnRunEnd(end_time, events, timed_out, hit_event_cap);
  }
}

namespace {

Status Mismatch(const char* what, uint64_t ledger, uint64_t stats) {
  return Status::FailedPrecondition(
      StringPrintf("conservation: %s — ledger %llu vs stats %llu", what,
                   static_cast<unsigned long long>(ledger),
                   static_cast<unsigned long long>(stats)));
}

}  // namespace

Status CheckConservation(const ConservationLedger& ledger,
                         const MessageStats& stats, bool drained,
                         const std::vector<std::string>& ignore_categories) {
  // Law 1: every logical send is matched by exactly one delivery.
  if (ledger.delivers() > ledger.logical_sends()) {
    return Mismatch("delivers exceed sends", ledger.logical_sends(),
                    ledger.delivers());
  }
  if (drained && ledger.in_flight() != 0) {
    return Status::FailedPrecondition(StringPrintf(
        "conservation: %llu message(s) still in flight after the queue "
        "drained (sends %llu, delivers %llu)",
        static_cast<unsigned long long>(ledger.in_flight()),
        static_cast<unsigned long long>(ledger.logical_sends()),
        static_cast<unsigned long long>(ledger.delivers())));
  }

  // Law 2: hop-level charges equal the Network's own ledger.  Categories
  // recorded outside the Network are subtracted from the stats totals.
  const std::set<std::string> ignored(ignore_categories.begin(),
                                      ignore_categories.end());
  uint64_t ignored_sends = 0, ignored_units = 0;
  for (const std::string& cat : ignored) {
    ignored_sends += stats.sends(cat);
    ignored_units += stats.units(cat);
    if (stats.dropped(cat) != 0 || stats.decode_errors(cat) != 0) {
      return Status::FailedPrecondition(StringPrintf(
          "conservation: ignored category '%s' carries drops or decode "
          "errors",
          cat.c_str()));
    }
  }
  if (ledger.charged_sends() != stats.total_sends() - ignored_sends) {
    return Mismatch("total sends", ledger.charged_sends(),
                    stats.total_sends() - ignored_sends);
  }
  if (ledger.charged_units() != stats.total_units() - ignored_units) {
    return Mismatch("total units", ledger.charged_units(),
                    stats.total_units() - ignored_units);
  }
  if (ledger.drops() != stats.dropped_sends()) {
    return Mismatch("dropped sends", ledger.drops(), stats.dropped_sends());
  }
  if (ledger.dropped_units() != stats.dropped_units()) {
    return Mismatch("dropped units", ledger.dropped_units(),
                    stats.dropped_units());
  }
  if (ledger.decode_errors() != stats.decode_errors()) {
    return Mismatch("decode errors", ledger.decode_errors(),
                    stats.decode_errors());
  }

  // Per category, both directions: every category either side knows about.
  std::set<std::string> cats;
  for (const auto& [cat, c] : ledger.by_category()) cats.insert(cat);
  for (const auto& [cat, units] : stats.units_by_category()) cats.insert(cat);
  for (const auto& [cat, units] : stats.dropped_by_category()) {
    cats.insert(cat);
  }
  for (const std::string& cat : cats) {
    if (ignored.count(cat)) continue;
    ConservationLedger::Category want;  // Zeroes when the ledger never saw it.
    const auto it = ledger.by_category().find(cat);
    if (it != ledger.by_category().end()) want = it->second;
    if (want.sends != stats.sends(cat)) {
      return Mismatch(("sends of '" + cat + "'").c_str(), want.sends,
                      stats.sends(cat));
    }
    if (want.units != stats.units(cat)) {
      return Mismatch(("units of '" + cat + "'").c_str(), want.units,
                      stats.units(cat));
    }
    if (want.dropped_units != stats.dropped(cat)) {
      return Mismatch(("dropped units of '" + cat + "'").c_str(),
                      want.dropped_units, stats.dropped(cat));
    }
    if (want.decode_errors != stats.decode_errors(cat)) {
      return Mismatch(("decode errors of '" + cat + "'").c_str(),
                      want.decode_errors, stats.decode_errors(cat));
    }
  }
  return Status::OK();
}

Status CheckTelemetryConsistency(const ConservationLedger& ledger,
                                 const obs::MetricsRegistry& metrics) {
  const struct {
    const char* counter;
    uint64_t want;
  } rows[] = {
      {"sim.sends", ledger.logical_sends()},
      {"sim.send_units", ledger.logical_units()},
      {"sim.hops", ledger.hops()},
      {"sim.delivers", ledger.delivers()},
      {"sim.drops", ledger.drops()},
      {"sim.timer_fires", ledger.timer_fires()},
      {"sim.decode_errors", ledger.decode_errors()},
      {"transport.retx", ledger.retransmits()},
      {"transport.acks", ledger.transport_acks()},
      {"transport.give_ups", ledger.transport_give_ups()},
      {"sim.wire_bytes", ledger.logical_bytes()},
      {"sim.dropped_wire_bytes", ledger.dropped_bytes()},
  };
  for (const auto& row : rows) {
    const uint64_t got = metrics.counter(row.counter);
    if (got != row.want) {
      return Status::FailedPrecondition(StringPrintf(
          "telemetry: %s = %llu, ledger says %llu", row.counter,
          static_cast<unsigned long long>(got),
          static_cast<unsigned long long>(row.want)));
    }
  }
  return Status::OK();
}

Status CheckByteConservation(const ConservationLedger& ledger,
                             const MessageStats& stats,
                             const std::vector<std::string>& ignore_categories) {
  // Categories recorded outside the Network never ride the radio, so the
  // stats must carry zero bytes for them and the totals need no subtraction.
  const std::set<std::string> ignored(ignore_categories.begin(),
                                      ignore_categories.end());
  for (const std::string& cat : ignored) {
    if (stats.bytes(cat) != 0) {
      return Status::FailedPrecondition(StringPrintf(
          "byte conservation: ignored category '%s' carries %llu wire bytes",
          cat.c_str(), static_cast<unsigned long long>(stats.bytes(cat))));
    }
  }
  if (ledger.charged_bytes() != stats.total_bytes()) {
    return Mismatch("total wire bytes", ledger.charged_bytes(),
                    stats.total_bytes());
  }
  if (ledger.dropped_bytes() != stats.dropped_bytes()) {
    return Mismatch("dropped wire bytes", ledger.dropped_bytes(),
                    stats.dropped_bytes());
  }
  // Per category, both directions.
  std::set<std::string> cats;
  for (const auto& [cat, c] : ledger.by_category()) cats.insert(cat);
  for (const MessageStats::CategorySnapshot& c : stats.Snapshot()) {
    cats.insert(c.category);
  }
  for (const std::string& cat : cats) {
    if (ignored.count(cat)) continue;
    ConservationLedger::Category want;  // Zeroes when the ledger never saw it.
    const auto it = ledger.by_category().find(cat);
    if (it != ledger.by_category().end()) want = it->second;
    if (want.bytes != stats.bytes(cat)) {
      return Mismatch(("wire bytes of '" + cat + "'").c_str(), want.bytes,
                      stats.bytes(cat));
    }
  }
  return Status::OK();
}

}  // namespace check
}  // namespace elink
