// Reliable transport over the lossy simulated network.
//
// ReliableChannel wraps Network::Send / Network::SendRouted with sequence
// numbers, acknowledgments, duplicate suppression, and retransmit timers
// with exponential backoff and a bounded retry budget.  One channel lives
// inside each protocol node; the node forwards HandleMessage / HandleTimer
// into OnMessage / OnTimer so the channel can consume its own traffic.  All
// timing goes through the owning Network's event queue, so runs remain
// bit-reproducible for a fixed (seed, FaultPlan) pair.
//
// Cost accounting: the first copy of a message is charged under its own
// category, every retransmission under "<category>.retx", and transport acks
// under "<category>.ack" — so the overhead of reliability is measurable in
// the Section-8.2 ledger.  Both derived ids come from the category registry
// (RetxCategory / AckCategory), cached per category.
#ifndef ELINK_SIM_RELIABLE_H_
#define ELINK_SIM_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "sim/message.h"
#include "sim/network.h"

namespace elink {

/// \brief Per-node ack/retransmit wrapper over single-hop and routed sends.
class ReliableChannel {
 public:
  struct Config {
    /// Initial retransmit timeout.  Should exceed one round trip: two hop
    /// delays for neighbor sends, 2 * diameter for routed sends.
    double rto = 8.0;
    /// Multiplier applied to the timeout after every retransmission.
    double backoff = 2.0;
    /// Retransmissions attempted after the initial send before giving up.
    int max_retries = 5;
  };

  /// HandleTimer ids at or above this value belong to the channel; the
  /// owning protocol's own timer ids stay below it.
  static constexpr int kTimerIdBase = 1 << 20;

  /// Invoked when a message exhausts its retry budget (the destination is
  /// unreachable or dead).  The protocol decides what the loss means.
  using GiveUpCallback = std::function<void(int to, const Message& msg)>;

  ReliableChannel() = default;

  /// Binds the channel to its owning node.  Call from Node::OnInstall().
  void Attach(Network* network, int self, Config config);

  void set_give_up(GiveUpCallback cb) { give_up_ = std::move(cb); }

  bool attached() const { return network_ != nullptr; }

  /// Reliable single-hop send to neighbor `to`.
  void Send(int to, Message msg);

  /// Reliable end-to-end routed send to arbitrary node `to` (the ack routes
  /// back from the destination, so every relay loss triggers a retransmit).
  void SendRouted(int to, Message msg);

  /// Filters an incoming message.  Returns true when the channel consumed it
  /// (a transport ack, or a duplicate delivery); the caller processes the
  /// message normally when false.  First deliveries are acknowledged before
  /// being handed to the caller; duplicates are re-acknowledged (the first
  /// ack may itself have been lost) and swallowed.
  bool OnMessage(int from, const Message& msg);

  /// Filters a timer.  Returns true when `timer_id` belongs to the channel
  /// (a retransmit deadline, handled internally).
  bool OnTimer(int timer_id);

  /// Drops all in-flight sends without retransmitting or invoking give-up —
  /// the node restarted (churn repair/join) and its previous incarnation's
  /// traffic is void.  Delivery history and the sequence counter survive, so
  /// pre-restart duplicates stay suppressed and new sends stay unique.
  void Reset() { pending_.clear(); }

  /// Messages currently awaiting acknowledgment.
  size_t in_flight() const { return pending_.size(); }

  /// Appends the channel's full transport state — sequence counter,
  /// in-flight sends (with their payloads as encoded wire frames), delivery
  /// history — to `out`, for a whole-network snapshot (proto/snapshot.h).
  /// Deterministic: equal states emit equal bytes (both maps iterate in key
  /// order), which is what lets the restore path prove equality by byte
  /// comparison.
  void EncodeSnapshotState(std::vector<uint8_t>* out) const;

  /// Total retransmissions performed.
  uint64_t retransmissions() const { return retransmissions_; }

  /// Messages abandoned after exhausting the retry budget.
  uint64_t gave_up() const { return gave_up_count_; }

 private:
  struct Pending {
    int to = -1;
    bool routed = false;
    int attempts = 0;     // Retransmissions so far.
    double timeout = 0.0; // Next backoff interval.
    Message msg;          // Original, with envelope fields set.
  };

  void Dispatch(int to, bool routed, const Message& msg);
  void Enqueue(int to, bool routed, Message msg);

  Network* network_ = nullptr;
  int self_ = -1;
  Config config_;
  GiveUpCallback give_up_;
  long long next_seq_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t gave_up_count_ = 0;
  std::map<long long, Pending> pending_;
  // Per-originator seqs already delivered to the protocol (dup suppression).
  std::map<int, std::set<long long>> delivered_;
};

}  // namespace elink

#endif  // ELINK_SIM_RELIABLE_H_
