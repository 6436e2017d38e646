// Protocol node base class: typed dispatch over the simulated network.
//
// ProtocolNode extends sim's Node with the plumbing every protocol in this
// repo used to hand-roll:
//
//  * typed dispatch — each node class has one immutable HandlerTable, built
//    once in a function-local static and shared by all its nodes.  Entry t
//    is a plain function pointer to a thunk that bounds-checks the frame
//    with proto::Decode<M> and runs the class's captureless handler for
//    schema M on the node; malformed frames, and frames of a type the table
//    lacks, are counted in MessageStats::decode_errors and reported to
//    OnBadMessage instead of crashing;
//  * optional ReliableChannel integration — EnableReliable() attaches the
//    ack/retransmit channel at install time and interposes it on every
//    incoming message and timer, exactly as the hand-written protocols did;
//  * send helpers — Send / SendRouted encode a schema and transparently pick
//    the reliable channel when one is enabled, the raw network otherwise;
//  * harness hook — RunHarness binds an activity counter (for quiet-period
//    completion detection).
//
// Subclasses pass their table to the ProtocolNode constructor and override
// the OnReady / OnProtocolTimer / OnGiveUp / OnBadMessage virtuals as needed.
#ifndef ELINK_PROTO_NODE_H_
#define ELINK_PROTO_NODE_H_

#include <type_traits>
#include <utility>
#include <vector>

#include "proto/codec.h"
#include "sim/network.h"
#include "sim/reliable.h"

namespace elink {
namespace proto {

class ProtocolNode;
class RunHarness;

/// \brief One node class's message dispatch table: a thunk per message type.
/// Built with HandlerTableFor and never changed afterwards.
class HandlerTable {
 public:
  /// Decodes `msg` for the type it is registered under and runs the class's
  /// handler on `node`.
  using Thunk = void (*)(ProtocolNode& node, int from, const Message& msg);

  /// The thunk for message type `type`, or null when the class has none.
  Thunk Find(int type) const {
    return type >= 0 && static_cast<size_t>(type) < thunks_.size()
               ? thunks_[static_cast<size_t>(type)]
               : nullptr;
  }

 protected:
  /// Registers `thunk` for `type`; a second thunk for one type fails its
  /// check.
  void Add(int type, Thunk thunk) {
    ELINK_CHECK(type >= 0);
    if (thunks_.size() <= static_cast<size_t>(type)) {
      thunks_.resize(static_cast<size_t>(type) + 1, nullptr);
    }
    Thunk& slot = thunks_[static_cast<size_t>(type)];
    ELINK_CHECK(slot == nullptr);
    slot = thunk;
  }

 private:
  std::vector<Thunk> thunks_;
};

/// \brief Base class for protocol logic built on the proto runtime.
class ProtocolNode : public Node {
 public:
  /// A node that dispatches through `handlers`, its class's table.  The
  /// table must outlive the node (a function-local static does).
  explicit ProtocolNode(const HandlerTable& handlers)
      : handlers_(&handlers) {}

  // The runtime owns the sim entry points; protocol code plugs in through
  // its handler table and the virtuals below.
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
  template <typename NodeT>
  friend class HandlerTableFor;

  /// Wires the harness's activity counter.  Must run before the node is
  /// installed (the harness's InstallNodes does).
  void BindRuntime(uint64_t* activity) { activity_ = activity; }

  void DispatchMessage(int from, const Message& msg);

  /// Counts an undecodable frame against its category and reports it to
  /// OnBadMessage.
  void RejectFrame(int from, const Message& msg, const Status& error);

  /// The thunk HandlerTableFor<NodeT>::On<M> registers: decodes schema M,
  /// then runs the captureless handler F on the node.
  template <typename NodeT, typename M, typename F>
  static void DecodeAndRun(ProtocolNode& node, int from, const Message& msg) {
    Result<M> decoded = Decode<M>(msg);
    if (!decoded.ok()) {
      node.RejectFrame(from, msg, decoded.status());
      return;
    }
    F{}(static_cast<NodeT&>(node), from, *decoded);
  }

  const HandlerTable* handlers_;
  ReliableChannel channel_;
  ReliableChannel::Config channel_config_;
  bool reliable_enabled_ = false;
  // Harness binding; null when the node runs outside a RunHarness.
  uint64_t* activity_ = nullptr;
};

/// \brief Builds node class NodeT's HandlerTable, once, in a function-local
/// static that the class passes to the ProtocolNode constructor:
///
///   static const HandlerTable& Handlers() {
///     static const HandlerTable table = [] {
///       HandlerTableFor<QueryNode> t;
///       t.On<w::Up>([](QueryNode& n, int from, const w::Up& m) { ... });
///       t.On<w::Answer>(...);
///       return t;
///     }();
///     return table;
///   }
///
/// A handler reaches the node's private members through `n`: the lambda is
/// written inside the class.
template <typename NodeT>
class HandlerTableFor : public HandlerTable {
 public:
  /// Registers `handler`, a captureless callable taking (NodeT&, int from,
  /// const M&), for schema M's message type.  It receives the decoded
  /// schema; malformed frames never reach it.
  template <typename M, typename F>
  HandlerTableFor& On(F /*handler*/) {
    static_assert(std::is_empty_v<F> && std::is_default_constructible_v<F>,
                  "a handler captures nothing: it reaches state through "
                  "the node it is given");
    static_assert(std::is_invocable_v<F, NodeT&, int, const M&>);
    Add(M::kType, &ProtocolNode::DecodeAndRun<NodeT, M, F>);
    return *this;
  }
};

}  // namespace proto
}  // namespace elink

#endif  // ELINK_PROTO_NODE_H_
