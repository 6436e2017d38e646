#include "sim/reliable.h"

#include <utility>

#include "proto/wire.h"

namespace elink {

void ReliableChannel::Attach(Network* network, int self, Config config) {
  ELINK_CHECK(network != nullptr);
  ELINK_CHECK(config.rto > 0.0);
  ELINK_CHECK(config.backoff >= 1.0);
  ELINK_CHECK(config.max_retries >= 0);
  network_ = network;
  self_ = self;
  config_ = config;
}

void ReliableChannel::Dispatch(int to, bool routed, const Message& msg) {
  if (routed) {
    network_->SendRouted(self_, to, msg);
  } else {
    network_->Send(self_, to, msg);
  }
}

void ReliableChannel::Enqueue(int to, bool routed, Message msg) {
  ELINK_CHECK(attached());
  const long long seq = next_seq_++;
  msg.rel_seq = seq;
  msg.rel_from = self_;
  msg.rel_ack = false;
  Pending p;
  p.to = to;
  p.routed = routed;
  p.timeout = config_.rto;
  p.msg = msg;
  Dispatch(to, routed, p.msg);
  pending_.emplace(seq, std::move(p));
  network_->SetTimer(self_, config_.rto,
                     kTimerIdBase + static_cast<int>(seq));
}

void ReliableChannel::Send(int to, Message msg) {
  Enqueue(to, /*routed=*/false, std::move(msg));
}

void ReliableChannel::SendRouted(int to, Message msg) {
  Enqueue(to, /*routed=*/true, std::move(msg));
}

bool ReliableChannel::OnMessage(int from, const Message& msg) {
  if (msg.rel_ack) {
    pending_.erase(msg.rel_seq);  // Stale retransmit timers find no entry.
    return true;
  }
  if (msg.rel_seq < 0) return false;  // Plain message, not ours.
  // Acknowledge every delivered copy: the originator keeps retransmitting
  // until an ack survives the return path.
  Message ack;
  ack.rel_ack = true;
  ack.rel_seq = msg.rel_seq;
  ack.rel_from = self_;
  ack.category = AckCategory(msg.category);
  if (SimObserver* obs = network_->observer()) {
    obs->OnTransportAck(network_->Now(), self_, msg.rel_from, msg.rel_seq);
  }
  if (msg.rel_from == from && from != self_) {
    network_->Send(self_, from, std::move(ack));
  } else {
    // Data arrived over a multi-hop route (`from` is just the last relay)
    // or was a routed self-delivery (from == self_, which Network::Send
    // would reject — there is no self edge); the ack routes back to the
    // logical originator.
    network_->SendRouted(self_, msg.rel_from, std::move(ack));
  }
  auto [it, first_delivery] = delivered_[msg.rel_from].insert(msg.rel_seq);
  (void)it;
  return !first_delivery;
}

bool ReliableChannel::OnTimer(int timer_id) {
  if (timer_id < kTimerIdBase) return false;
  const long long seq = timer_id - kTimerIdBase;
  auto it = pending_.find(seq);
  if (it == pending_.end()) return true;  // Acked; deadline is stale.
  Pending& p = it->second;
  if (p.attempts >= config_.max_retries) {
    ++gave_up_count_;
    Pending abandoned = std::move(p);
    pending_.erase(it);
    if (SimObserver* obs = network_->observer()) {
      obs->OnTransportGiveUp(network_->Now(), self_, abandoned.to,
                             abandoned.msg);
    }
    if (give_up_) give_up_(abandoned.to, abandoned.msg);
    return true;
  }
  ++p.attempts;
  ++retransmissions_;
  p.timeout *= config_.backoff;
  Message copy = p.msg;
  copy.category = RetxCategory(p.msg.category);
  if (SimObserver* obs = network_->observer()) {
    obs->OnRetransmit(network_->Now(), self_, p.to, copy, p.attempts);
  }
  Dispatch(p.to, p.routed, copy);
  network_->SetTimer(self_, p.timeout, timer_id);
  return true;
}

void ReliableChannel::EncodeSnapshotState(std::vector<uint8_t>* out) const {
  wire::PutU8(attached() ? 1 : 0, out);
  if (!attached()) return;
  wire::PutZigzag(self_, out);
  wire::PutZigzag(next_seq_, out);
  wire::PutVarint(retransmissions_, out);
  wire::PutVarint(gave_up_count_, out);
  // In-flight sends, ascending by sequence number (std::map order).  The
  // payload travels as a real wire frame plus its accounting category and
  // retx label (neither is on the radio frame).
  wire::PutVarint(pending_.size(), out);
  for (const auto& [seq, p] : pending_) {
    wire::PutZigzag(seq, out);
    wire::PutZigzag(p.to, out);
    wire::PutU8(p.routed ? 1 : 0, out);
    wire::PutZigzag(p.attempts, out);
    wire::PutF64Le(p.timeout, out);
    wire::PutString(CategoryName(p.msg.category), out);
    wire::PutString(CategoryName(RetxCategory(p.msg.category)), out);
    wire::EncodeFrame(p.msg, out);
  }
  // Delivery history: originator -> delivered seqs, both in ascending order.
  wire::PutVarint(delivered_.size(), out);
  for (const auto& [from, seqs] : delivered_) {
    wire::PutZigzag(from, out);
    wire::PutVarint(seqs.size(), out);
    for (const long long s : seqs) wire::PutZigzag(s, out);
  }
}

}  // namespace elink
