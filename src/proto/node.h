// Protocol node base class: typed dispatch over the simulated network.
//
// ProtocolNode extends sim's Node with the plumbing every protocol in this
// repo used to hand-roll:
//
//  * typed handler registration — OnMsg<Schema>(handler) binds a decoder and
//    a handler to the schema's message type; incoming frames are
//    bounds-checked by proto::Decode before the handler runs, and malformed
//    ones are counted in MessageStats::decode_errors instead of crashing;
//  * optional ReliableChannel integration — EnableReliable() attaches the
//    ack/retransmit channel at install time and interposes it on every
//    incoming message and timer, exactly as the hand-written protocols did;
//  * send helpers — Send / SendRouted encode a schema and transparently pick
//    the reliable channel when one is enabled, the raw network otherwise;
//  * harness hooks — RunHarness binds an activity counter (for quiet-period
//    completion detection) and a per-message trace callback.
//
// Subclasses register handlers in their constructor and override the
// OnReady / OnProtocolTimer / OnGiveUp / OnBadMessage virtuals as needed.
#ifndef ELINK_PROTO_NODE_H_
#define ELINK_PROTO_NODE_H_

#include <functional>
#include <utility>
#include <vector>

#include "proto/codec.h"
#include "sim/network.h"
#include "sim/reliable.h"

namespace elink {
namespace proto {

/// Per-delivery trace hook: fires for every frame a node receives (before
/// duplicate suppression / transport acks are filtered out), so it sees the
/// raw wire traffic.  `to` is the receiving node.
using TraceFn =
    std::function<void(double now, int from, int to, const Message& msg)>;

class RunHarness;

/// \brief Base class for protocol logic built on the proto runtime.
class ProtocolNode : public Node {
 public:
  // The runtime owns the sim entry points; protocol code plugs in through
  // OnMsg registration and the virtuals below.
  void HandleMessage(int from, const Message& msg) final;
  void HandleTimer(int timer_id) final;
  void OnInstall() final;
  void OnRestart() final;
  void OnNeighborChange(int neighbor, bool up) final;

  /// Serializes the runtime's per-node state (reliable-transport channel:
  /// sequence counter, in-flight frames, delivery history) for a
  /// whole-network snapshot.  Protocols with additional durable state
  /// override OnEncodeSnapshotState to append their own bytes after it.
  void EncodeSnapshotState(std::vector<uint8_t>* out) const final;

 protected:
  /// Called once at install time, after the reliable channel (if any) is
  /// attached; the protocol's OnInstall replacement.
  virtual void OnReady() {}

  /// A timer that does not belong to the reliable channel.
  virtual void OnProtocolTimer(int timer_id) { (void)timer_id; }

  /// The node restarted (churn join/repair, or fault-plan crash recovery).
  /// The runtime has already voided the reliable channel's in-flight sends
  /// (ReliableChannel::Reset) and the network orphaned all pre-restart
  /// timers; the protocol resets its own state and re-arms here.
  virtual void OnNodeRestart() {}

  /// First-class churn changed this node's neighborhood (see
  /// Node::OnNeighborChange).  Fault-plan crashes are never announced.
  virtual void OnNeighborUpdate(int neighbor, bool up) {
    (void)neighbor, (void)up;
  }

  /// The reliable channel exhausted its retries sending `msg` to `to`.
  virtual void OnGiveUp(int to, const Message& msg) {
    (void)to;
    (void)msg;
  }

  /// Appends protocol-specific durable state to the node's snapshot record
  /// (after the runtime's transport state).  Must be deterministic: equal
  /// states must emit equal bytes.
  virtual void OnEncodeSnapshotState(std::vector<uint8_t>* out) const {
    (void)out;
  }

  /// An incoming frame failed to decode (truncated payload, unknown type).
  /// The decode error has already been counted in the network's stats.
  virtual void OnBadMessage(int from, const Message& msg,
                            const Status& error) {
    (void)from;
    (void)msg;
    (void)error;
  }

  /// Registers `handler` for schema M's message type.  Call from the
  /// subclass constructor.  The handler receives the decoded schema;
  /// malformed frames never reach it.
  template <typename M, typename F>
  void OnMsg(F handler) {
    const int type = M::kType;
    ELINK_CHECK(type >= 0);
    if (static_cast<int>(handlers_.size()) <= type) {
      handlers_.resize(static_cast<size_t>(type) + 1);
    }
    ELINK_CHECK(!handlers_[static_cast<size_t>(type)]);
    handlers_[static_cast<size_t>(type)] =
        [this, handler = std::move(handler)](int from, const Message& msg) {
          Result<M> decoded = Decode<M>(msg);
          if (!decoded.ok()) {
            network()->NoteDecodeError(id(), msg.category);
            OnBadMessage(from, msg, decoded.status());
            return;
          }
          handler(from, *decoded);
        };
  }

  /// Counts a delivered schema-M frame whose decoded fields fail
  /// protocol-level validation (e.g. a feature block of the wrong
  /// dimensionality after in-flight truncation).  Pair with an early return
  /// from the handler.
  template <typename M>
  void RejectBadFields() {
    network()->NoteDecodeError(id(), SchemaCategory<M>());
  }

  /// Reports a named protocol phase transition to the run's observer (ELink
  /// round boundaries, maintenance detach/adopt, query fan-out/collect).
  /// Free when no observer is attached; `phase` must be a string literal.
  void TracePhase(const char* phase, long long value = 0) {
    if (SimObserver* obs = network()->observer()) {
      obs->OnPhase(network()->Now(), id(), phase, value);
    }
  }

  /// Arms the reliable channel; it attaches at install time.  Call from the
  /// subclass constructor (before the node is installed).
  void EnableReliable(const ReliableChannel::Config& config) {
    reliable_enabled_ = true;
    channel_config_ = config;
  }

  bool reliable_enabled() const { return reliable_enabled_; }
  ReliableChannel& channel() { return channel_; }

  /// Single-hop send of a schema to neighbor `to`, over the reliable channel
  /// when enabled, the raw network otherwise.
  template <typename M>
  void Send(int to, const M& m) {
    SendRaw(to, Encode(m));
  }

  /// Routed send of a schema to arbitrary node `to`.
  template <typename M>
  void SendRouted(int to, const M& m) {
    SendRoutedRaw(to, Encode(m));
  }

  void SendRaw(int to, Message msg) {
    if (channel_.attached()) {
      channel_.Send(to, std::move(msg));
    } else {
      network()->Send(id(), to, std::move(msg));
    }
  }

  void SendRoutedRaw(int to, Message msg) {
    if (channel_.attached()) {
      channel_.SendRouted(to, std::move(msg));
    } else {
      network()->SendRouted(id(), to, std::move(msg));
    }
  }

 private:
  friend class RunHarness;

  /// Wires the harness's activity counter and trace hook.  Must run before
  /// the node is installed (the harness's InstallNodes does).
  void BindRuntime(uint64_t* activity, const TraceFn* trace) {
    activity_ = activity;
    trace_ = trace;
  }

  void DispatchMessage(int from, const Message& msg);

  std::vector<std::function<void(int, const Message&)>> handlers_;
  ReliableChannel channel_;
  ReliableChannel::Config channel_config_;
  bool reliable_enabled_ = false;
  // Harness bindings; null when the node runs outside a RunHarness.
  uint64_t* activity_ = nullptr;
  const TraceFn* trace_ = nullptr;
};

}  // namespace proto
}  // namespace elink

#endif  // ELINK_PROTO_NODE_H_
