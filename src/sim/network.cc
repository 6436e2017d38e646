#include "sim/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "proto/wire.h"

namespace elink {

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
    // Only nodes named by a churn event are ever absent.
    absent_.assign(topology_.num_nodes(), 0);
    for (const ChurnSchedule::Event& ev : churn_.events()) {
      absent_[ev.a] = churn_.IsAbsent(ev.a, Now()) ? 1 : 0;
    }
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
    if (absent_[nb]) continue;
    if (nodes_[nb] != nullptr) nodes_[nb]->OnNeighborChange(node, up);
  }
}

void Network::ApplyChurnEvent(const ChurnSchedule::Event& ev) {
  using Event = ChurnSchedule::Event;
  // Fold every event of this instant into the presence mask before any
  // restart or neighbor callback runs, so code reacting to the first of
  // several same-instant events (a fire front crossing a grid column)
  // already sees the presence IsAbsent reports for the instant.  Events fire
  // in events() order, so the cursor never skips one.
  const std::vector<Event>& events = churn_.events();
  for (; next_churn_event_ < events.size() &&
         events[next_churn_event_].at <= Now();
       ++next_churn_event_) {
    const int u = events[next_churn_event_].a;
    absent_[u] = churn_.IsAbsent(u, Now()) ? 1 : 0;
  }
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
      if (!absent_[ev.a] && nodes_[ev.a] != nullptr) {
        nodes_[ev.a]->OnNeighborChange(ev.b, add);
      }
      if (!absent_[ev.b] && nodes_[ev.b] != nullptr) {
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
  if (nodes_[id] == nullptr) ++installed_;
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

std::optional<Message> Network::Truncated(const Message& msg) {
  size_t keep_ints = 0, keep_doubles = 0;
  if (!fault_.truncates() ||
      !fault_.TruncatePayload(msg.ints.size(), msg.doubles.size(),
                              &keep_ints, &keep_doubles)) {
    return std::nullopt;
  }
  Message chopped = msg;
  chopped.ints.resize(keep_ints);
  chopped.doubles.resize(keep_doubles);
  return chopped;
}

bool Network::TransmitLeg(int from, int to, const Message& msg, double depart,
                          double hop_delay, uint64_t frame_bytes,
                          uint64_t msg_id, bool relay) {
  const double at = Now() + depart;
  // All fault decisions are made at send time (the receiver's crash state is
  // evaluated at the arrival instant), so runs stay deterministic and the
  // transmission is charged to the ledger exactly once.  The fault decision
  // is always evaluated first — churn is schedule-only and draws nothing, so
  // adding it cannot perturb the fault RNG stream.  A relay hop always
  // rides a live link (routes are rebuilt at every churn event), so its
  // live-edge test passes and only endpoint absence can sink it.
  const bool fault_drop =
      fault_.enabled() && (fault_.IsCrashed(from, at) ||
                           fault_.DropTransmission(from, to, at) ||
                           fault_.IsCrashed(to, at + hop_delay));
  const bool churn_drop =
      churn_.enabled() &&
      (churn_.IsAbsent(from, at) || churn_.IsAbsent(to, at + hop_delay) ||
       !HasLiveEdge(from, to));
  const bool lost = fault_drop || churn_drop;
  if (churn_drop) ++churn_drops_;
  if (lost) {
    stats_.RecordDropped(msg.category, msg.CostUnits(), frame_bytes);
  } else {
    stats_.Record(msg.category, msg.CostUnits(), frame_bytes);
  }
  if (observer_ != nullptr) {
    observer_->OnCausal({0, msg_id, queue_.active_cause()});
    if (lost) {
      observer_->OnDrop(at, from, to, msg);
    } else if (relay) {
      observer_->OnHop(at, from, to, msg);
    } else {
      observer_->OnSend(at, from, to, msg, hop_delay);
    }
  }
  return !lost;
}

void Network::Send(int from, int to, Message msg) {
  // Under churn a protocol may legitimately address a link that no longer
  // (or does not yet) exist — that transmission is lost below, not a bug.
  ELINK_CHECK(topology_.HasEdge(from, to) ||
              (churn_.enabled() && HasLiveEdge(from, to)));
  ELINK_CHECK(nodes_[to] != nullptr);
  // A single hop draws its delay, then its truncation (the chopped frame is
  // what is on the air, so drop charges reflect it), then its loss.
  const double delay = NextHopDelay();
  if (auto chopped = Truncated(msg)) msg = std::move(*chopped);
  const uint64_t mid = observer_ != nullptr ? NewCauseId() : 0;
  if (TransmitLeg(from, to, msg, 0.0, delay, FrameBytes(msg), mid,
                  /*relay=*/false)) {
    ScheduleDelivery(delay, from, to, std::move(msg), mid);
  }
}

void Network::ScheduleDelivery(double delay, int from, int to, Message&& msg,
                               uint64_t msg_id) {
  MessageArena::Slot* slot = arena_.Create(std::move(msg));
  slot->msg_id = msg_id;
  queue_.ScheduleDeliveryAfter(delay, from, to, slot);
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
  if (net->churn_.enabled() && net->absent_[node]) return;
  if (net->observer_ != nullptr) {
    const uint64_t self = net->NewCauseId();
    net->queue_.set_active_cause(self);
    net->observer_->OnCausal({self, 0, parent});
    net->observer_->OnTimerFire(now, node, timer_id);
  }
  net->nodes_[node]->HandleTimer(timer_id);
}

void Network::Broadcast(int from, Message msg) {
  const std::vector<int>& nbrs = neighbors(from);
  if (nbrs.empty()) return;
  // One immutable payload shared by every fan-out leg; receivers get a
  // const& into it, so nothing is copied per neighbor.
  MessageArena::Slot* shared = arena_.Create(std::move(msg));
  if (observer_ != nullptr) shared->msg_id = NewCauseId();
  const uint64_t frame_bytes = FrameBytes(shared->msg);
  for (int nb : nbrs) {
    ELINK_CHECK(nodes_[nb] != nullptr);
    // Each leg draws delay, truncation and loss exactly as a Send to `nb`
    // would, so a Broadcast is bit-identical to the N Sends it replaces.
    const double delay = NextHopDelay();
    std::optional<Message> chopped = Truncated(shared->msg);
    if (!TransmitLeg(from, nb, chopped ? *chopped : shared->msg, 0.0, delay,
                     chopped ? FrameBytes(*chopped) : frame_bytes,
                     shared->msg_id, /*relay=*/false)) {
      continue;  // A lost leg takes no reference on the payload.
    }
    if (chopped) {
      // The truncated leg's private payload is still the same logical
      // transmission, so it keeps the fan-out's message id — the (id, to)
      // pair stays unique across legs either way.
      ScheduleDelivery(delay, from, nb, std::move(*chopped), shared->msg_id);
    } else {
      MessageArena::AddRef(shared);
      queue_.ScheduleDeliveryAfter(delay, from, nb, shared);
    }
  }
  // Drop the creator's reference; the payload now lives exactly as long as
  // its last scheduled delivery (or dies here if every leg dropped).
  arena_.Release(shared);
}

void Network::InvalidateRoutes() {
  for (std::unique_ptr<ResumableBfs>& r : routes_) r.reset();
}

const ResumableBfs& Network::TableFor(int to, int from) {
  std::unique_ptr<ResumableBfs>& route = routes_[to];
  if (route == nullptr) {
    route = std::make_unique<ResumableBfs>(num_nodes(), to);
  }
  // Routes must not relay through churn-absent nodes: an absent relay sinks
  // every frame that crosses it, so a path "through" one is no path at all.
  // The mask is empty without churn.
  route->Expand(churn_.enabled() ? live_adjacency_ : topology_.adjacency,
                absent_, from);
  return *route;
}

int Network::SendRouted(int from, int to, Message msg) {
  ELINK_CHECK(nodes_[to] != nullptr);
  if (from == to) {
    if (fault_.enabled() && fault_.IsCrashed(to, Now())) return 0;
    if (churn_.enabled() && absent_[to]) return 0;
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
  // message, drawn before the per-hop delay and loss draws.
  if (auto chopped = Truncated(msg)) msg = std::move(*chopped);
  // The identical frame is on the air at every hop, so its length is
  // computed once per routed message, not once per relay.
  const uint64_t frame_bytes = FrameBytes(msg);
  // One message id covers the whole routed journey — every relay hop is the
  // same frame in flight.  The hop loop runs synchronously inside the
  // caller's handler, so every hop shares the caller's causal parent.
  const uint64_t mid = observer_ != nullptr ? NewCauseId() : 0;
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
    if (!TransmitLeg(cur, next, msg, delay, hop_delay, frame_bytes, mid,
                     /*relay=*/true)) {
      return hops;
    }
    delay += hop_delay;
    prev = cur;
    cur = next;
  }
  if (observer_ != nullptr) {
    observer_->OnCausal({0, mid, queue_.active_cause()});
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
  // Every slot filled: InstallNode counts first installs, and a slot never
  // empties again, so the precondition costs O(1) per call.
  ELINK_CHECK(installed_ == num_nodes());
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
