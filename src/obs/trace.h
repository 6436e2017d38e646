// Sim-time event tracing (elink_obs).
//
// Tracer is a SimObserver that records every observed event — message
// send/hop/deliver/drop, decode errors, timer fires, transport
// retransmit/ack/give-up, protocol phase transitions, watchdog arm/fire,
// run end — as a compact typed record in a bounded ring buffer.  Category
// and phase strings are interned into dense label ids (one hash lookup per
// event), so recording is allocation-free on the hot path once labels are
// warm.  When the buffer fills, the oldest events are overwritten and
// counted, never reallocated.
//
// Two exporters turn the buffer into artifacts:
//  * ExportJsonl      — one JSON object per line, in record order;
//  * ExportChromeTrace — Chrome trace_event JSON (open in Perfetto /
//    chrome://tracing): node id -> tid, sim time -> ts with one sim time
//    unit rendered as 1 ms (ts is in microseconds), sends as complete
//    events ("ph":"X") whose duration is the delivery delay, everything
//    else as instant events ("ph":"i").
//
// Determinism: record order is the simulator's deterministic emission order
// and all numbers render via shortest-round-trip formatting, so two
// same-seed runs export byte-identical artifacts.
#ifndef ELINK_OBS_TRACE_H_
#define ELINK_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/observer.h"

namespace elink {
namespace obs {

/// What happened; mirrors the SimObserver callbacks one to one.
enum class TraceKind : uint8_t {
  kSend,
  kHop,
  kDeliver,
  kDrop,
  kTimerFire,
  kDecodeError,
  kRetransmit,
  kTransportAck,
  kTransportGiveUp,
  kPhase,
  kChurn,
  kWatchdogArm,
  kWatchdogFire,
  kRunEnd,
};

/// Short stable name of a kind ("send", "deliver", ...), used by exporters.
const char* TraceKindName(TraceKind kind);

/// \brief One recorded event (fixed-size POD; strings live interned).
struct TraceEvent {
  static constexpr uint32_t kNoLabel = 0xffffffffu;

  double time = 0.0;      // Sim time the event refers to.
  double aux = 0.0;       // Delay (send), watchdog window (arm), else 0.
  long long value = 0;    // Units / timer id / attempt / phase value / seq.
  uint64_t seq = 0;       // Monotone emission index (never wraps).
  // Causal annotation (0 = none), populated from the OnCausal emitted just
  // before this event when the run's Network assigns causal ids:
  uint64_t causal_self = 0;    // Handler-activation id (deliver/timer).
  uint64_t causal_msg = 0;     // In-flight message id (send/hop/drop/deliver).
  uint64_t causal_parent = 0;  // Causing activation (send/hop/drop/timer).
  uint32_t label = kNoLabel;  // Interned category / phase name.
  uint32_t bytes = 0;     // Frame bytes on the air (send/hop/deliver/drop).
  TraceKind kind = TraceKind::kSend;
  int32_t node = -1;      // Primary node (sender or owner); -1 when none.
  int32_t peer = -1;      // Other endpoint; -1 when none.
};

/// \brief Bounded ring-buffer recorder of typed sim events.
class Tracer : public SimObserver {
 public:
  /// `capacity` bounds the buffer (events, not bytes); must be > 0.
  explicit Tracer(size_t capacity = 1 << 16);

  // SimObserver implementation (records one TraceEvent each; OnCausal
  // instead annotates the event recorded immediately after it).
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

  /// Events currently held (<= capacity).
  size_t size() const { return count_; }
  size_t capacity() const { return buffer_.size(); }
  /// Total events ever recorded, including overwritten ones.
  uint64_t total_recorded() const { return next_seq_; }
  /// Events lost to ring-buffer wraparound.
  uint64_t overwritten() const { return next_seq_ - count_; }

  /// Resolves an interned label id back to its string.
  const std::string& label(uint32_t id) const { return labels_[id]; }
  /// All interned labels, dense by id (CausalGraph copies them wholesale).
  const std::vector<std::string>& labels() const { return labels_; }

  /// Invokes fn(event) oldest-to-newest over the retained window.
  template <typename F>
  void ForEach(F&& fn) const {
    for (size_t i = 0; i < count_; ++i) {
      fn(buffer_[(start_ + i) % buffer_.size()]);
    }
  }

  /// Drops all retained events (interned labels survive).
  void Clear();

  /// Ring-buffer accounting as a JSON object (capacity, recorded, retained,
  /// overwritten, utilization) — embeddable as a RunReport section so a run
  /// that overflowed its ring says so in the artifact.
  std::string StatsJson() const;

  /// Exporters.  When the ring overflowed, both lead with a warning banner
  /// (a JSONL comment-object line / a Chrome "otherData" entry) instead of
  /// silently truncating causal chains.
  std::string ExportJsonl() const;
  std::string ExportChromeTrace() const;

 private:
  uint32_t Intern(const std::string& label);
  void Push(TraceEvent event);
  void AppendJsonl(const TraceEvent& e, std::string* out) const;
  void AppendChrome(const TraceEvent& e, std::string* out) const;
  /// Appends the Chrome flow-arrow record ("ph":"s" at the send, "ph":"f"
  /// at the matching deliver) for causally-annotated message events.
  void AppendChromeFlow(const TraceEvent& e, std::string* out) const;

  std::vector<TraceEvent> buffer_;
  size_t start_ = 0;  // Index of the oldest retained event.
  size_t count_ = 0;
  uint64_t next_seq_ = 0;

  // Causal annotation waiting for the event it describes (emitted
  // immediately before it on the same observer).
  CausalInfo pending_causal_;
  bool has_pending_causal_ = false;

  std::vector<std::string> labels_;
  std::unordered_map<std::string, uint32_t> label_index_;
};

}  // namespace obs
}  // namespace elink

#endif  // ELINK_OBS_TRACE_H_
