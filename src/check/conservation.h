// Simulator conservation laws (elink_check).
//
// ConservationLedger is a read-only SimObserver that re-derives the
// Network's accounting from the event stream alone, so a finished run can be
// cross-checked three ways:
//
//   * against itself  — every logical send (one OnSend) must be matched by
//     exactly one delivery: sends == delivers + in-flight, and a drained
//     event queue means in-flight == 0;
//   * against MessageStats — hop-level charges (per-hop for routed sends),
//     dropped sends/units, and decode errors must agree with the Network's
//     own ledger, per category and in total;
//   * against RunTelemetry — the "sim.*" / "transport.*" counters folded by
//     the observability layer must agree with the ledger's counts.
//
// Attribution rules mirror sim/network.cc exactly: a plain Send charges one
// send of CostUnits at OnSend; a routed send charges per OnHop and its
// closing OnSend carries no extra charge; a self-delivery (SendRouted with
// from == to) is free; every drop (OnDrop) charges the dropped counters once
// regardless of how many hops preceded it.  OnHop/OnSend sequences of one
// routed send are emitted synchronously by the Network, so a single pending
// flag suffices to tell the closing OnSend apart from a plain one.
//
// Chain the run's real observer (telemetry/tracer) behind the ledger with
// set_next; the ledger forwards every event unchanged.
#ifndef ELINK_CHECK_CONSERVATION_H_
#define ELINK_CHECK_CONSERVATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/observer.h"
#include "sim/stats.h"

namespace elink {
namespace check {

/// \brief Event-stream reimplementation of the Network's message accounting.
class ConservationLedger : public SimObserver {
 public:
  struct Category {
    uint64_t sends = 0;          // Hop-level transmissions (MessageStats).
    uint64_t units = 0;          // Hop-level units.
    uint64_t bytes = 0;          // Hop-level frame bytes (wire::FrameSize).
    uint64_t dropped_sends = 0;  // One per OnDrop.
    uint64_t dropped_units = 0;
    uint64_t dropped_bytes = 0;
    uint64_t decode_errors = 0;
  };

  /// Chains the observer that should see the stream after the ledger.
  void set_next(SimObserver* next) { next_ = next; }

  // -- Logical message plane (one per OnSend) -----------------------------
  uint64_t logical_sends() const { return logical_sends_; }
  uint64_t logical_units() const { return logical_units_; }
  /// Frame bytes of every logical send (one frame per OnSend; what the
  /// telemetry's "sim.wire_bytes" counter folds).
  uint64_t logical_bytes() const { return logical_bytes_; }
  uint64_t delivers() const { return delivers_; }
  /// Logical sends not yet delivered; 0 once the queue drained.
  uint64_t in_flight() const { return logical_sends_ - delivers_; }

  // -- Hop-level charges (what MessageStats records) ----------------------
  uint64_t charged_sends() const { return charged_sends_; }
  uint64_t charged_units() const { return charged_units_; }
  /// Frame bytes re-derived at the hop plane: one frame per plain send plus
  /// one per routed hop — what MessageStats::total_bytes() records.
  uint64_t charged_bytes() const { return charged_bytes_; }
  uint64_t drops() const { return drops_; }
  uint64_t dropped_units() const { return dropped_units_; }
  uint64_t dropped_bytes() const { return dropped_bytes_; }
  uint64_t hops() const { return hops_; }
  uint64_t decode_errors() const { return decode_errors_; }

  // -- Timers and transport ----------------------------------------------
  uint64_t timer_fires() const { return timer_fires_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t transport_acks() const { return transport_acks_; }
  uint64_t transport_give_ups() const { return transport_give_ups_; }

  const std::map<std::string, Category>& by_category() const {
    return by_category_;
  }

  // SimObserver implementation (each forwards to the chained observer).
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

 private:
  Category& Cat(CategoryId category) {
    return by_category_[CategoryName(category)];
  }

  uint64_t logical_sends_ = 0;
  uint64_t logical_units_ = 0;
  uint64_t logical_bytes_ = 0;
  uint64_t delivers_ = 0;
  uint64_t charged_sends_ = 0;
  uint64_t charged_units_ = 0;
  uint64_t charged_bytes_ = 0;
  uint64_t drops_ = 0;
  uint64_t dropped_units_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t hops_ = 0;
  uint64_t decode_errors_ = 0;
  uint64_t timer_fires_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t transport_acks_ = 0;
  uint64_t transport_give_ups_ = 0;

  /// True between a routed send's first OnHop and its closing OnSend (the
  /// Network emits them back to back; see header comment).
  bool routed_pending_ = false;

  std::map<std::string, Category> by_category_;
  SimObserver* next_ = nullptr;
};

/// The conservation laws of one finished run: ledger internally consistent
/// (sends == delivers + in-flight; in-flight == 0 when `drained`) and equal
/// to `stats` per category and in total.  `ignore_categories` names
/// categories recorded into `stats` outside the Network (engine-parity
/// bookkeeping such as the path protocol's "path_search"/"path_trace"); they
/// are subtracted from the stats totals and skipped in the per-category
/// comparison, but must never carry drops or decode errors.
Status CheckConservation(const ConservationLedger& ledger,
                         const MessageStats& stats, bool drained,
                         const std::vector<std::string>& ignore_categories = {});

/// Cross-checks the ledger against RunTelemetry's folded counters
/// ("sim.sends", "sim.send_units", "sim.hops", "sim.delivers", "sim.drops",
/// "sim.timer_fires", "sim.decode_errors", "transport.retx",
/// "transport.acks", "transport.give_ups").  Pass the telemetry's
/// metrics(); the telemetry must have been chained behind this ledger (or
/// attached to the same run) so both saw the same stream.
Status CheckTelemetryConsistency(const ConservationLedger& ledger,
                                 const obs::MetricsRegistry& metrics);

/// Byte-plane conservation: the encoded frame bytes the ledger re-derived
/// from the event stream (wire::FrameSize per plain send / routed hop /
/// drop) must equal the byte counters MessageStats accumulated inside the
/// Network, per category and in total.  `ignore_categories` follows
/// CheckConservation: categories recorded outside the Network carry no
/// wire bytes, and are skipped in the per-category comparison.
Status CheckByteConservation(
    const ConservationLedger& ledger, const MessageStats& stats,
    const std::vector<std::string>& ignore_categories = {});

}  // namespace check
}  // namespace elink

#endif  // ELINK_CHECK_CONSERVATION_H_
