#include "sim/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "proto/wire.h"

namespace elink {

bool Network::default_arena_messages_ = true;

namespace {

// The armed-checkpoint slot lives behind this out-of-line accessor: a
// class-static thread_local inlined into other translation units goes
// through GCC's TLS wrapper, which UBSan flags as a null-pointer store.
Network::RunCheckpoint*& CheckpointSlot() {
  static thread_local Network::RunCheckpoint* slot = nullptr;
  return slot;
}

}  // namespace

void Network::ArmCheckpoint(RunCheckpoint* cp) { CheckpointSlot() = cp; }
Network::RunCheckpoint* Network::armed_checkpoint() { return CheckpointSlot(); }

namespace {

// Real bytes one hop of `msg` occupies on the air.  wire.h is a leaf header
// (message + status only), so charging actual frame lengths here does not
// create a sim <-> proto link cycle.
inline uint64_t FrameBytes(const Message& msg) {
  return static_cast<uint64_t>(wire::FrameSize(msg));
}

}  // namespace

Network::Network(Topology topology, Config config)
    : topology_(std::move(topology)),
      config_(std::move(config)),
      rng_(config_.seed),
      fault_(config_.fault, config_.seed),
      churn_(config_.churn, topology_.num_nodes()),
      restart_gen_(topology_.num_nodes(), 0),
      nodes_(topology_.num_nodes()),
      routes_(topology_.num_nodes()) {
  ELINK_CHECK(config_.async_delay_min > 0.0);
  ELINK_CHECK(config_.async_delay_max >= config_.async_delay_min);
  queue_.SetInlineHandlers(&Network::OnDeliveryEvent, &Network::OnTimerEvent,
                           this);
  if (churn_.enabled()) {
    live_adjacency_ = topology_.adjacency;
    // The whole plan is scheduled up front; event callbacks draw no
    // randomness, so enabling churn perturbs no RNG stream.
    for (const ChurnSchedule::Event& ev : churn_.events()) {
      queue_.ScheduleAfter(ev.at, [this, ev]() { ApplyChurnEvent(ev); });
    }
    // Neighbors of a late joiner see it down from the start; scheduled at
    // t=0 (before any protocol event: the constructor runs first) rather
    // than called here because nodes are not installed yet.
    for (const ChurnSchedule::Event& ev : churn_.events()) {
      if (ev.kind == ChurnSchedule::Event::kJoin && ev.at > 0.0) {
        queue_.ScheduleAfter(
            0.0, [this, n = ev.a]() { NotifyNeighbors(n, /*up=*/false); });
      }
    }
  }
  if (fault_.enabled()) {
    // A fault-plan crash with a finite recover_at is a repair: the node
    // restarts with reset protocol state (and no stale pre-crash timers)
    // instead of silently resuming where it left off.  Unlike churn, the
    // repair is not announced to neighbors — fault-plan crashes stay
    // protocol-invisible.
    for (const FaultPlan::NodeCrash& c : config_.fault.node_crashes) {
      if (c.recover_at < std::numeric_limits<double>::infinity()) {
        queue_.ScheduleAfter(c.recover_at,
                             [this, n = c.node]() { RestartNode(n); });
      }
    }
  }
}

bool Network::HasLiveEdge(int from, int to) const {
  const std::vector<int>& adj = live_adjacency_[from];
  return std::binary_search(adj.begin(), adj.end(), to);
}

void Network::RestartNode(int node) {
  ++restart_gen_[node];
  if (nodes_[node] != nullptr) nodes_[node]->OnRestart();
}

void Network::NotifyNeighbors(int node, bool up) {
  for (int nb : neighbors(node)) {
    if (churn_.IsAbsent(nb, Now())) continue;
    if (nodes_[nb] != nullptr) nodes_[nb]->OnNeighborChange(node, up);
  }
}

void Network::ApplyChurnEvent(const ChurnSchedule::Event& ev) {
  using Event = ChurnSchedule::Event;
  switch (ev.kind) {
    case Event::kJoin:
    case Event::kRepair:
      // The absence set changed, so cached routes (which must not relay
      // through absent nodes) are stale.
      InvalidateRoutes();
      RestartNode(ev.a);
      NotifyNeighbors(ev.a, /*up=*/true);
      break;
    case Event::kLeave:
    case Event::kCrash:
      InvalidateRoutes();
      NotifyNeighbors(ev.a, /*up=*/false);
      break;
    case Event::kLinkAdd:
    case Event::kLinkRemove: {
      const bool add = ev.kind == Event::kLinkAdd;
      auto edit = [add](std::vector<int>* adj, int other) {
        auto it = std::lower_bound(adj->begin(), adj->end(), other);
        if (add && (it == adj->end() || *it != other)) {
          adj->insert(it, other);
        } else if (!add && it != adj->end() && *it == other) {
          adj->erase(it);
        }
      };
      edit(&live_adjacency_[ev.a], ev.b);
      edit(&live_adjacency_[ev.b], ev.a);
      // Routed paths must not cross a removed edge (or miss a shortcut), so
      // every cached route is rebuilt on demand from the edited adjacency.
      InvalidateRoutes();
      if (!churn_.IsAbsent(ev.a, Now()) && nodes_[ev.a] != nullptr) {
        nodes_[ev.a]->OnNeighborChange(ev.b, add);
      }
      if (!churn_.IsAbsent(ev.b, Now()) && nodes_[ev.b] != nullptr) {
        nodes_[ev.b]->OnNeighborChange(ev.a, add);
      }
      break;
    }
  }
  if (observer_ != nullptr) {
    observer_->OnChurn(Now(), ChurnSchedule::KindName(ev.kind), ev.a, ev.b);
  }
}

void Network::InstallNode(int id, std::unique_ptr<Node> node) {
  ELINK_CHECK(id >= 0 && id < num_nodes());
  ELINK_CHECK(node != nullptr);
  node->network_ = this;
  node->id_ = id;
  nodes_[id] = std::move(node);
  nodes_[id]->OnInstall();
}

void Network::InstallNodes(
    const std::function<std::unique_ptr<Node>(int)>& factory) {
  for (int id = 0; id < num_nodes(); ++id) InstallNode(id, factory(id));
}

double Network::NextHopDelay() {
  if (config_.synchronous) return 1.0;
  return rng_.Uniform(config_.async_delay_min, config_.async_delay_max);
}

void Network::MaybeTruncate(Message* msg) {
  size_t keep_ints = 0, keep_doubles = 0;
  if (fault_.truncates() &&
      fault_.TruncatePayload(msg->ints.size(), msg->doubles.size(), &keep_ints,
                             &keep_doubles)) {
    msg->ints.resize(keep_ints);
    msg->doubles.resize(keep_doubles);
  }
}

void Network::Send(int from, int to, Message msg) {
  // Under churn a protocol may legitimately address a link that no longer
  // (or does not yet) exist — that transmission is lost below, not a bug.
  ELINK_CHECK(topology_.HasEdge(from, to) ||
              (churn_.enabled() && HasLiveEdge(from, to)));
  ELINK_CHECK(nodes_[to] != nullptr);
  const double delay = NextHopDelay();
  // Truncation is decided first (the chopped frame is what is on the air, so
  // drop charges reflect it), then loss.  Each fault stream draw happens in
  // the same order here and in SendShared, keeping Broadcast bit-identical
  // to the N Sends it replaces.
  if (fault_.enabled()) MaybeTruncate(&msg);
  // All fault decisions are made at send time (the receiver's crash state is
  // evaluated at the arrival instant), so runs stay deterministic and the
  // drop is charged to the ledger exactly once.  The fault decision is
  // always evaluated first — churn is schedule-only and draws nothing, so
  // adding it cannot perturb the fault RNG stream.
  const bool fault_drop =
      fault_.enabled() && (fault_.IsCrashed(from, Now()) ||
                           fault_.DropTransmission(from, to, Now()) ||
                           fault_.IsCrashed(to, Now() + delay));
  const bool churn_drop =
      churn_.enabled() &&
      (churn_.IsAbsent(from, Now()) || churn_.IsAbsent(to, Now() + delay) ||
       !HasLiveEdge(from, to));
  if (fault_drop || churn_drop) {
    if (churn_drop) ++churn_drops_;
    stats_.RecordDropped(msg.category, msg.CostUnits(), FrameBytes(msg));
    if (observer_ != nullptr) {
      observer_->OnCausal({0, NewCauseId(), queue_.active_cause()});
      observer_->OnDrop(Now(), from, to, msg);
    }
    return;
  }
  stats_.Record(msg.category, msg.CostUnits(), FrameBytes(msg));
  uint64_t mid = 0;
  if (observer_ != nullptr) {
    mid = NewCauseId();
    observer_->OnCausal({0, mid, queue_.active_cause()});
    observer_->OnSend(Now(), from, to, msg, delay);
  }
  ScheduleDelivery(delay, from, to, std::move(msg), mid);
}

void Network::ScheduleDelivery(double delay, int from, int to, Message&& msg,
                               uint64_t msg_id) {
  if (config_.arena_messages) {
    MessageArena::Slot* slot = arena_.Create(std::move(msg));
    slot->msg_id = msg_id;
    queue_.ScheduleDeliveryAfter(delay, from, to, slot);
  } else {
    queue_.ScheduleAfter(delay, [this, from, to, msg_id,
                                 m = std::move(msg)]() {
      DeliverHeap(from, to, m, msg_id);
    });
  }
}

void Network::DeliverHeap(int from, int to, const Message& msg,
                          uint64_t msg_id) {
  if (observer_ != nullptr) {
    const uint64_t self = NewCauseId();
    queue_.set_active_cause(self);
    observer_->OnCausal({self, msg_id, 0});
    observer_->OnDeliver(Now(), from, to, msg);
  }
  nodes_[to]->HandleMessage(from, msg);
}

void Network::OnDeliveryEvent(void* ctx, int from, int to, void* payload) {
  Network* net = static_cast<Network*>(ctx);
  auto* slot = static_cast<MessageArena::Slot*>(payload);
  if (net->observer_ != nullptr) {
    const uint64_t self = net->NewCauseId();
    net->queue_.set_active_cause(self);
    net->observer_->OnCausal({self, slot->msg_id, 0});
    net->observer_->OnDeliver(net->Now(), from, to, slot->msg);
  }
  net->nodes_[to]->HandleMessage(from, slot->msg);
  net->arena_.Release(slot);
}

void Network::OnTimerEvent(void* ctx, int node, int timer_id, uint64_t aux) {
  Network* net = static_cast<Network*>(ctx);
  // Unpack the aux word: restart generation below, traced causal-parent
  // pool slot (+1; 0 = untraced or genesis) above.  The pool slot is
  // reclaimed on every fire outcome — including generation-orphaned and
  // crash/absence-suppressed timers — so the pool's occupancy tracks timers
  // actually in flight.
  const uint32_t gen = static_cast<uint32_t>(aux);
  const uint32_t cause_slot = static_cast<uint32_t>(aux >> 32);
  uint64_t parent = 0;
  if (cause_slot != 0) {
    parent = net->timer_cause_pool_[cause_slot - 1];
    net->free_timer_slots_.push_back(cause_slot - 1);
  }
  // Timers set before a restart (churn join/repair, or a fault-plan crash
  // recovery) belong to the previous incarnation and never fire — the
  // restart bumped the node's generation.  OnRestart re-arms whatever the
  // new incarnation needs.
  if (net->restart_gen_[node] != gen) return;
  // A crashed/absent node's timers are suppressed (it recovers with no
  // pending timers; protocols re-arm on recovery if they support it).
  const double now = net->queue_.Now();
  if (net->fault_.enabled() && net->fault_.IsCrashed(node, now)) return;
  if (net->churn_.enabled() && net->churn_.IsAbsent(node, now)) return;
  if (net->observer_ != nullptr) {
    const uint64_t self = net->NewCauseId();
    net->queue_.set_active_cause(self);
    net->observer_->OnCausal({self, 0, parent});
    net->observer_->OnTimerFire(now, node, timer_id);
  }
  net->nodes_[node]->HandleTimer(timer_id);
}

void Network::SendShared(int from, int to,
                         const std::shared_ptr<const Message>& msg,
                         uint64_t msg_id) {
  ELINK_CHECK(topology_.HasEdge(from, to) ||
              (churn_.enabled() && HasLiveEdge(from, to)));
  ELINK_CHECK(nodes_[to] != nullptr);
  // Mirrors Send exactly — same RNG draw order (delay first, then truncate,
  // then loss), same charging — so a Broadcast is bit-identical to the N
  // independent Sends it replaces.  A truncated leg falls back to a private
  // copy of the payload; intact legs keep sharing the immutable message.
  const double delay = NextHopDelay();
  Message chopped;
  const Message* wire = msg.get();
  size_t keep_ints = 0, keep_doubles = 0;
  if (fault_.enabled() && fault_.truncates() &&
      fault_.TruncatePayload(msg->ints.size(), msg->doubles.size(), &keep_ints,
                             &keep_doubles)) {
    chopped = *msg;
    chopped.ints.resize(keep_ints);
    chopped.doubles.resize(keep_doubles);
    wire = &chopped;
  }
  const bool fault_drop =
      fault_.enabled() && (fault_.IsCrashed(from, Now()) ||
                           fault_.DropTransmission(from, to, Now()) ||
                           fault_.IsCrashed(to, Now() + delay));
  const bool churn_drop =
      churn_.enabled() &&
      (churn_.IsAbsent(from, Now()) || churn_.IsAbsent(to, Now() + delay) ||
       !HasLiveEdge(from, to));
  if (fault_drop || churn_drop) {
    if (churn_drop) ++churn_drops_;
    stats_.RecordDropped(wire->category, wire->CostUnits(),
                         FrameBytes(*wire));
    if (observer_ != nullptr) {
      observer_->OnCausal({0, msg_id, queue_.active_cause()});
      observer_->OnDrop(Now(), from, to, *wire);
    }
    return;
  }
  stats_.Record(wire->category, wire->CostUnits(), FrameBytes(*wire));
  if (observer_ != nullptr) {
    observer_->OnCausal({0, msg_id, queue_.active_cause()});
    observer_->OnSend(Now(), from, to, *wire, delay);
  }
  if (wire == &chopped) {
    queue_.ScheduleAfter(delay, [this, from, to, msg_id,
                                 m = std::move(chopped)]() {
      DeliverHeap(from, to, m, msg_id);
    });
  } else {
    queue_.ScheduleAfter(delay, [this, from, to, msg, msg_id]() {
      DeliverHeap(from, to, *msg, msg_id);
    });
  }
}

void Network::SendSharedArena(int from, int to, MessageArena::Slot* shared) {
  ELINK_CHECK(topology_.HasEdge(from, to) ||
              (churn_.enabled() && HasLiveEdge(from, to)));
  ELINK_CHECK(nodes_[to] != nullptr);
  // Mirrors Send (and the heap-path SendShared) exactly — same RNG draw
  // order (delay first, then truncate, then loss), same charging — so a
  // Broadcast is bit-identical to the N independent Sends it replaces.  A
  // truncated leg gets a private arena copy of the payload; intact legs
  // reference the shared slot (one AddRef per scheduled delivery).
  const Message& msg = shared->msg;
  const double delay = NextHopDelay();
  Message chopped;
  const Message* wire = &msg;
  size_t keep_ints = 0, keep_doubles = 0;
  bool truncated = false;
  if (fault_.enabled() && fault_.truncates() &&
      fault_.TruncatePayload(msg.ints.size(), msg.doubles.size(), &keep_ints,
                             &keep_doubles)) {
    chopped = msg;
    chopped.ints.resize(keep_ints);
    chopped.doubles.resize(keep_doubles);
    wire = &chopped;
    truncated = true;
  }
  const bool fault_drop =
      fault_.enabled() && (fault_.IsCrashed(from, Now()) ||
                           fault_.DropTransmission(from, to, Now()) ||
                           fault_.IsCrashed(to, Now() + delay));
  const bool churn_drop =
      churn_.enabled() &&
      (churn_.IsAbsent(from, Now()) || churn_.IsAbsent(to, Now() + delay) ||
       !HasLiveEdge(from, to));
  if (fault_drop || churn_drop) {
    // The leg never schedules, so it takes no reference: a fan-out whose
    // legs all drop releases the payload when Broadcast drops its own ref.
    if (churn_drop) ++churn_drops_;
    stats_.RecordDropped(wire->category, wire->CostUnits(),
                         FrameBytes(*wire));
    if (observer_ != nullptr) {
      observer_->OnCausal({0, shared->msg_id, queue_.active_cause()});
      observer_->OnDrop(Now(), from, to, *wire);
    }
    return;
  }
  stats_.Record(wire->category, wire->CostUnits(), FrameBytes(*wire));
  if (observer_ != nullptr) {
    observer_->OnCausal({0, shared->msg_id, queue_.active_cause()});
    observer_->OnSend(Now(), from, to, *wire, delay);
  }
  if (truncated) {
    // The truncated leg's private payload is still the same logical
    // transmission, so it keeps the fan-out's message id — the (id, to)
    // pair stays unique across legs either way.
    MessageArena::Slot* priv = arena_.Create(std::move(chopped));
    priv->msg_id = shared->msg_id;
    queue_.ScheduleDeliveryAfter(delay, from, to, priv);
  } else {
    MessageArena::AddRef(shared);
    queue_.ScheduleDeliveryAfter(delay, from, to, shared);
  }
}

void Network::Broadcast(int from, Message msg) {
  const std::vector<int>& nbrs = neighbors(from);
  if (nbrs.empty()) return;
  // One immutable payload shared by every fan-out leg; receivers get a
  // const& into it, so nothing is copied per neighbor.
  if (config_.arena_messages) {
    MessageArena::Slot* shared = arena_.Create(std::move(msg));
    if (observer_ != nullptr) shared->msg_id = NewCauseId();
    for (int nb : nbrs) SendSharedArena(from, nb, shared);
    // Drop the creator's reference; the payload now lives exactly as long
    // as its last scheduled delivery (or dies here if every leg dropped).
    arena_.Release(shared);
  } else {
    const auto shared = std::make_shared<const Message>(std::move(msg));
    const uint64_t mid = observer_ != nullptr ? NewCauseId() : 0;
    for (int nb : nbrs) SendShared(from, nb, shared, mid);
  }
}

void Network::InvalidateRoutes() {
  for (std::unique_ptr<ResumableBfs>& r : routes_) r.reset();
  route_absent_stale_ = true;
}

const ResumableBfs& Network::TableFor(int to, int from) {
  if (churn_.enabled() && route_absent_stale_) {
    // Routes must not relay through churn-absent nodes: an absent relay
    // sinks every frame that crosses it, so a path "through" one is no path
    // at all.  Absence only changes at churn events, each of which marks
    // the mask stale, so one evaluation serves the whole epoch.
    route_absent_.assign(num_nodes(), 0);
    for (int u = 0; u < num_nodes(); ++u) {
      route_absent_[u] = churn_.IsAbsent(u, Now()) ? 1 : 0;
    }
    route_absent_stale_ = false;
  }
  std::unique_ptr<ResumableBfs>& route = routes_[to];
  if (route == nullptr) {
    route = std::make_unique<ResumableBfs>(num_nodes(), to);
  }
  route->Expand(churn_.enabled() ? live_adjacency_ : topology_.adjacency,
                route_absent_, from);
  return *route;
}

int Network::SendRouted(int from, int to, Message msg) {
  ELINK_CHECK(nodes_[to] != nullptr);
  if (from == to) {
    if (fault_.enabled() && fault_.IsCrashed(to, Now())) return 0;
    if (churn_.enabled() && churn_.IsAbsent(to, Now())) return 0;
    uint64_t mid = 0;
    if (observer_ != nullptr) {
      mid = NewCauseId();
      observer_->OnCausal({0, mid, queue_.active_cause()});
      observer_->OnSend(Now(), from, to, msg, 0.0);
    }
    ScheduleDelivery(0.0, from, to, std::move(msg), mid);
    return 0;
  }
  const ResumableBfs& route = TableFor(to, from);
  const int hops = route.HopsToRoot(from);
  if (hops < 0) {
    // No path: the deployment is disconnected, or churn partitioned the live
    // graph.  The message is lost and charged once, like any other lost
    // frame; only churn runs count it as a churn drop.
    if (churn_.enabled()) ++churn_drops_;
    stats_.RecordDropped(msg.category, msg.CostUnits(), FrameBytes(msg));
    if (observer_ != nullptr) {
      observer_->OnCausal({0, NewCauseId(), queue_.active_cause()});
      observer_->OnDrop(Now(), from, to, msg);
    }
    return 0;
  }
  // End-to-end payload corruption: one truncation decision per routed
  // message, drawn before the per-hop loss draws.
  if (fault_.enabled()) MaybeTruncate(&msg);
  // The identical frame is on the air at every hop, so its length is
  // computed once per routed message, not once per relay.
  const uint64_t frame_bytes = FrameBytes(msg);
  // One message id covers the whole routed journey — every relay hop is the
  // same frame in flight.  The causal parent is pinned here: the hop loop
  // below runs synchronously inside the caller's handler, so the active
  // cause cannot change mid-walk.
  uint64_t mid = 0;
  uint64_t cause = 0;
  if (observer_ != nullptr) {
    mid = NewCauseId();
    cause = queue_.active_cause();
  }
  // Walk the path hop by hop: each relay transmission is charged when it
  // happens and any hop can lose the message (relay crashed, link down or
  // lossy, next relay dead on arrival).  Fault-free, this performs exactly
  // the per-hop charges and single end-delivery of the original code.
  double delay = 0.0;
  int cur = from;
  int prev = from;
  while (cur != to) {
    const int next = route.parent(cur);
    const double hop_delay = NextHopDelay();
    const bool fault_drop =
        fault_.enabled() &&
        (fault_.IsCrashed(cur, Now() + delay) ||
         fault_.DropTransmission(cur, next, Now() + delay) ||
         fault_.IsCrashed(next, Now() + delay + hop_delay));
    // The route reflects live links at send time, so only endpoint
    // absence (at the hop's own instants) can sink a hop here.
    const bool churn_drop =
        churn_.enabled() &&
        (churn_.IsAbsent(cur, Now() + delay) ||
         churn_.IsAbsent(next, Now() + delay + hop_delay));
    if (fault_drop || churn_drop) {
      if (churn_drop) ++churn_drops_;
      stats_.RecordDropped(msg.category, msg.CostUnits(), frame_bytes);
      if (observer_ != nullptr) {
        observer_->OnCausal({0, mid, cause});
        observer_->OnDrop(Now() + delay, cur, next, msg);
      }
      return hops;
    }
    stats_.Record(msg.category, msg.CostUnits(), frame_bytes);
    if (observer_ != nullptr) {
      observer_->OnCausal({0, mid, cause});
      observer_->OnHop(Now() + delay, cur, next, msg);
    }
    delay += hop_delay;
    prev = cur;
    cur = next;
  }
  if (observer_ != nullptr) {
    observer_->OnCausal({0, mid, cause});
    observer_->OnSend(Now(), from, to, msg, delay);
  }
  // The penultimate node on the path is the sender seen by `to`.
  ScheduleDelivery(delay, prev, to, std::move(msg), mid);
  return hops;
}

int Network::HopDistance(int from, int to) {
  if (from == to) return 0;
  return TableFor(to, from).HopsToRoot(from);
}

void Network::SetTimer(int id, double delay, int timer_id) {
  ELINK_CHECK(nodes_[id] != nullptr);
  // Inline POD event: the generation/crash/absence gating lives in
  // OnTimerEvent, so no closure is built per timer.  While traced and armed
  // from inside a handler, the arming cause parks in the pool and its slot
  // rides the aux word's high half (shifted +1 so 0 keeps meaning "none").
  uint64_t aux = restart_gen_[id];
  if (observer_ != nullptr) {
    const uint64_t cause = queue_.active_cause();
    if (cause != 0) {
      uint32_t slot;
      if (free_timer_slots_.empty()) {
        slot = static_cast<uint32_t>(timer_cause_pool_.size());
        timer_cause_pool_.push_back(cause);
      } else {
        slot = free_timer_slots_.back();
        free_timer_slots_.pop_back();
        timer_cause_pool_[slot] = cause;
      }
      aux |= (static_cast<uint64_t>(slot) + 1) << 32;
    }
  }
  queue_.ScheduleTimerAfter(delay, id, timer_id, aux);
}

void Network::ScheduleAfter(double delay, EventQueue::Callback cb) {
  queue_.ScheduleAfter(delay, std::move(cb));
}

uint64_t Network::Run(uint64_t max_events) {
  for (int id = 0; id < num_nodes(); ++id) {
    ELINK_CHECK(nodes_[id] != nullptr);
  }
  hit_event_cap_ = false;
  // Driver code brackets the drain: anything it sends before or after is a
  // causal genesis, never a child of whichever handler ran last.
  queue_.set_active_cause(0);
  uint64_t dispatched = 0;
  RunCheckpoint* cp = armed_checkpoint();
  if (cp == nullptr) {
    dispatched = queue_.RunAll(max_events);
  } else {
    // Chunked drain around the checkpoint: RunAll is resumable mid-bucket,
    // so splitting one drain into two is unobservable to the simulation.
    while (dispatched < max_events) {
      uint64_t budget = max_events - dispatched;
      if (!cp->fired && cp->countdown < budget) budget = cp->countdown;
      const uint64_t ran = budget == 0 ? 0 : queue_.RunAll(budget);
      dispatched += ran;
      cp->dispatched += ran;
      if (!cp->fired) {
        cp->countdown -= ran;
        if (cp->countdown == 0) {
          cp->fired = true;
          if (cp->on_fire) cp->on_fire(*this);
        }
      }
      // A short chunk means the queue drained; the checkpoint (if still
      // unfired) stays armed for the thread's next Run.
      if (ran < budget) break;
    }
  }
  queue_.set_active_cause(0);
  if (dispatched >= max_events && !queue_.Empty()) {
    hit_event_cap_ = true;
    ELINK_LOG(Warning) << "Network::Run hit the event cap (" << max_events
                       << " dispatched, " << queue_.Size()
                       << " pending); protocol is livelocked or runaway";
  }
  return dispatched;
}

}  // namespace elink
