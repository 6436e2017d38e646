#include "proto/node.h"

#include "proto/wire.h"

namespace elink {
namespace proto {

void ProtocolNode::EncodeSnapshotState(std::vector<uint8_t>* out) const {
  wire::PutU8(reliable_enabled_ ? 1 : 0, out);
  channel_.EncodeSnapshotState(out);
  OnEncodeSnapshotState(out);
}

void ProtocolNode::HandleMessage(int from, const Message& msg) {
  // The activity counter ticks for every handler invocation — including
  // transport acks and duplicates — matching the quiet-period semantics the
  // protocols' hand-written watchdogs used.
  if (activity_ != nullptr) ++*activity_;
  if (channel_.attached() && channel_.OnMessage(from, msg)) return;
  DispatchMessage(from, msg);
}

void ProtocolNode::HandleTimer(int timer_id) {
  if (activity_ != nullptr) ++*activity_;
  if (channel_.attached() && channel_.OnTimer(timer_id)) return;
  OnProtocolTimer(timer_id);
}

void ProtocolNode::OnRestart() {
  // A restart is activity: a run is not quiet while nodes are still being
  // repaired and re-integrating.
  if (activity_ != nullptr) ++*activity_;
  if (channel_.attached()) channel_.Reset();
  OnNodeRestart();
}

void ProtocolNode::OnNeighborChange(int neighbor, bool up) {
  if (activity_ != nullptr) ++*activity_;
  OnNeighborUpdate(neighbor, up);
}

void ProtocolNode::OnInstall() {
  if (reliable_enabled_) {
    channel_.Attach(network(), id(), channel_config_);
    channel_.set_give_up(
        [this](int to, const Message& m) { OnGiveUp(to, m); });
  }
  OnReady();
}

void ProtocolNode::DispatchMessage(int from, const Message& msg) {
  if (msg.type >= 0 && msg.type < static_cast<int>(handlers_.size()) &&
      handlers_[static_cast<size_t>(msg.type)]) {
    handlers_[static_cast<size_t>(msg.type)](from, msg);
    return;
  }
  // No handler registered for this type: a corrupted or foreign frame.
  network()->NoteDecodeError(id(), msg.category);
  OnBadMessage(from, msg,
               Status::InvalidArgument("no handler for message type " +
                                       std::to_string(msg.type)));
}

}  // namespace proto
}  // namespace elink
