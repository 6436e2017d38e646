// The simulated sensor network: nodes, message delivery, timers, and cost
// accounting over a Topology, driven by a deterministic event queue.
//
// Two delay regimes model the paper's two settings:
//  * synchronous  — every hop takes exactly one time unit (Section 4);
//  * asynchronous — per-hop delays are drawn uniformly from a configured
//    interval (Section 5), so message orderings can interleave arbitrarily.
#ifndef ELINK_SIM_NETWORK_H_
#define ELINK_SIM_NETWORK_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/graph.h"
#include "sim/message.h"
#include "sim/msg_arena.h"
#include "sim/observer.h"
#include "sim/stats.h"
#include "sim/topology.h"

namespace elink {

class Network;

/// \brief Base class for protocol logic running on one sensor node.
///
/// Subclasses implement HandleMessage / HandleTimer; they send messages and
/// set timers through the owning Network.
class Node {
 public:
  virtual ~Node() = default;

  /// Delivery of a single-hop (or routed) message from `from`.
  virtual void HandleMessage(int from, const Message& msg) = 0;

  /// Expiry of a timer set via Network::SetTimer.
  virtual void HandleTimer(int timer_id) { (void)timer_id; }

  /// Called once by InstallNode after network()/id() are wired; protocols
  /// that own helper objects needing the back-pointers (e.g. a
  /// ReliableChannel) attach them here.
  virtual void OnInstall() {}

  /// The node came back with reset protocol state: a churn join/repair, or a
  /// fault-plan crash whose recover_at arrived.  Timers set before the
  /// restart never fire (the Network bumps the node's restart generation),
  /// so implementations re-arm whatever they need and drop in-flight
  /// bookkeeping.  The default keeps legacy resume-as-if-nothing-happened
  /// behavior for protocols that predate churn.
  virtual void OnRestart() {}

  /// First-class churn changed this node's neighborhood: `neighbor` became
  /// reachable (`up`) or unreachable (`!up`) through a join/leave/crash/
  /// repair/link change.  Fault-plan crashes and outages are NOT announced —
  /// those stay invisible at the protocol level, exactly as before.
  virtual void OnNeighborChange(int neighbor, bool up) {
    (void)neighbor, (void)up;
  }

  /// Appends this node's protocol state to `out` for a whole-network
  /// snapshot (proto/snapshot.h).  The encoding must be deterministic: two
  /// nodes in identical states must emit identical bytes, since the
  /// restore path proves state equality by byte comparison.  The base
  /// emits nothing — stateless relays have nothing to persist; the proto
  /// runtime overrides this with its transport state.
  virtual void EncodeSnapshotState(std::vector<uint8_t>* out) const {
    (void)out;
  }

  int id() const { return id_; }

 protected:
  Network* network() const { return network_; }

 private:
  friend class Network;
  Network* network_ = nullptr;
  int id_ = -1;
};

/// \brief The simulated network.
class Network {
 public:
  struct Config {
    /// Synchronous: one time unit per hop.  Asynchronous: U(min, max).
    bool synchronous = true;
    double async_delay_min = 0.5;
    double async_delay_max = 1.5;
    uint64_t seed = 1;
    /// Fault model of the run (message loss, link outages, node crashes).
    /// The default plan is inert: delivery is perfectly reliable and the run
    /// is byte-identical to a build without the fault layer.
    FaultPlan fault;
    /// Topology dynamics of the run (joins, leaves, crash/repair cycles,
    /// link add/remove).  The default plan is inert: the topology is frozen
    /// and the run is byte-identical to a build without the churn layer.
    ChurnPlan churn;
  };

  Network(Topology topology, Config config);

  // Nodes hold back-pointers to their Network, so it must never move.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the protocol object for node `id`, replacing any earlier one.
  /// All nodes must be installed before the first Send/SetTimer/Run; Run
  /// checks this against a count of filled slots, in O(1).
  void InstallNode(int id, std::unique_ptr<Node> node);

  /// Convenience: installs `factory(id)` for every node id.
  void InstallNodes(
      const std::function<std::unique_ptr<Node>(int)>& factory);

  int num_nodes() const { return topology_.num_nodes(); }
  const Topology& topology() const { return topology_; }
  /// Current radio neighborhood of `id`: the deployment adjacency, edited by
  /// any churn link changes that have taken effect.  Absent/crashed
  /// neighbors still appear — presence is a per-node property (IsPresent),
  /// not an edge property.
  const std::vector<int>& neighbors(int id) const {
    return churn_.enabled() ? live_adjacency_[id] : topology_.adjacency[id];
  }

  /// Sends `msg` over the single radio hop from `from` to neighbor `to`.
  /// Cost: msg.CostUnits() units in msg.category.
  void Send(int from, int to, Message msg);

  /// Sends `msg` to every neighbor of `from` (independent transmissions).
  /// All fan-out deliveries share one immutable payload — the message is
  /// materialized once, not copied per neighbor — but each transmission is
  /// charged, delayed, and fault-gated independently, exactly like N Sends.
  void Broadcast(int from, Message msg);

  /// Sends `msg` from `from` to an arbitrary node `to` along a shortest hop
  /// path; intermediate nodes relay without processing.  Each hop is charged
  /// like a Send.  Used for quadtree parent/child signalling and query
  /// routing, whose endpoints need not be radio neighbors.
  /// Returns the hop length of the chosen path, whether or not the message
  /// survives it: a hop lost mid-route ends the journey (the hops before it
  /// stay charged) but still returns the full path length.  Returns 0 for
  /// from == to, in which case the message is delivered locally after zero
  /// delay.  Under churn the path runs over live links between present
  /// nodes.  With no path at all (a disconnected deployment, or a
  /// churn-partitioned live graph) the message is charged once as a dropped
  /// send and 0 is returned.
  int SendRouted(int from, int to, Message msg);

  /// Hop distance between two nodes along the path SendRouted would take
  /// right now; -1 if there is none.
  int HopDistance(int from, int to);

  /// Schedules HandleTimer(timer_id) on node `id` after `delay`.
  void SetTimer(int id, double delay, int timer_id);

  /// Schedules an arbitrary callback (driver code, not charged).  Accepts
  /// any void() callable, including move-only closures.
  void ScheduleAfter(double delay, EventQueue::Callback cb);

  double Now() const { return queue_.Now(); }

  /// Default event cap of Run: far above any drained protocol run, so only
  /// a runaway or livelocked protocol reaches it.
  static constexpr uint64_t kDefaultMaxEvents = 200'000'000ULL;

  /// Runs until the event queue drains or `max_events` dispatches.  Returns
  /// the number of events dispatched; when the cap was hit with work still
  /// queued (a runaway/livelocked protocol), hit_event_cap() reports it and
  /// a warning is logged — callers turn that into a Status instead of the
  /// process aborting.
  uint64_t Run(uint64_t max_events = kDefaultMaxEvents);

  /// Mid-run checkpoint seam for the snapshot layer (proto/snapshot.h).
  ///
  /// While armed, every Network on the arming thread counts the events it
  /// dispatches into `dispatched`; when the cumulative count reaches the
  /// initial `countdown`, `on_fire` runs once, from inside Run between two
  /// events, with the Network that crossed the threshold.  The callback is
  /// a read-only witness: it must not send, schedule, or draw randomness —
  /// runs with and without an armed checkpoint are byte-identical.
  ///
  /// Armed Run calls drain in two RunAll chunks instead of one (RunAll is
  /// resumable mid-bucket, so the split is unobservable); disarmed runs
  /// pay one thread-local load per Run call and nothing per event.
  struct RunCheckpoint {
    /// Events still to dispatch before firing (UINT64_MAX: never fire —
    /// pure event counting).
    uint64_t countdown = UINT64_MAX;
    /// Total events dispatched while this checkpoint was armed.
    uint64_t dispatched = 0;
    bool fired = false;
    std::function<void(Network&)> on_fire;
  };

  /// Arms `cp` for the calling thread (nullptr disarms).  The caller owns
  /// the checkpoint and must disarm before it goes out of scope.
  static void ArmCheckpoint(RunCheckpoint* cp);
  static RunCheckpoint* armed_checkpoint();

  /// True when the last Run() stopped at the event cap with events pending.
  bool hit_event_cap() const { return hit_event_cap_; }

  Node* node(int id) { return nodes_[id].get(); }
  /// The payload arena (exposed for tests/diagnostics).
  const MessageArena& arena() const { return arena_; }
  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }

  /// True when `id` is deployed right now under the churn plan (joined, not
  /// left, not in a churn crash window).  Fault-plan crashes do NOT count:
  /// they are protocol-invisible.  Always true without churn.  This is the
  /// directory knowledge a membership layer would give protocols — it is
  /// deterministic and consumes no randomness.
  bool IsPresent(int id) const { return !churn_.enabled() || !absent_[id]; }

  /// Transmissions lost because of churn (absent endpoint or removed link).
  /// A transmission that would also have been lost to the fault plan still
  /// counts here, so `stats().dropped_sends() == churn_drops()` identifies
  /// runs whose only losses were topological.
  uint64_t churn_drops() const { return churn_drops_; }

  /// Installs (or clears, with nullptr) the observability hook.  Observers
  /// are read-only witnesses: attaching one never changes a run's outcome,
  /// and with none attached every emission site is a single null check.
  void set_observer(SimObserver* observer) { observer_ = observer; }
  SimObserver* observer() const { return observer_; }

  /// Counts a delivered-but-undecodable frame against `category` and reports
  /// it to the observer.  `node` is the rejecting receiver.
  void NoteDecodeError(int node, CategoryId category) {
    stats_.RecordDecodeError(category);
    if (observer_ != nullptr) {
      observer_->OnDecodeError(queue_.Now(), node, category);
    }
  }

 private:
  double NextHopDelay();
  /// The routing BFS towards `to`, expanded until `from` is discovered (or
  /// found unreachable).  Its parents are the next hops towards `to`.
  const ResumableBfs& TableFor(int to, int from);
  /// Drops every routing BFS; called on every churn event.
  void InvalidateRoutes();
  /// True when (from, to) is an edge of the *current* (churn-edited)
  /// adjacency.  Only meaningful while churn is enabled.
  bool HasLiveEdge(int from, int to) const;
  /// Applies one scheduled churn event: updates the presence mask,
  /// restarts/notifies nodes, edits the live adjacency, invalidates routes,
  /// reports to the observer.
  void ApplyChurnEvent(const ChurnSchedule::Event& ev);
  /// Bumps `node`'s restart generation (orphaning its pending timers) and
  /// invokes Node::OnRestart.
  void RestartNode(int node);
  /// Delivers OnNeighborChange(node, up) to every present live neighbor.
  void NotifyNeighbors(int node, bool up);
  /// The fault plan's in-flight payload truncation for one transmission of
  /// `msg`: the chopped frame, or nullopt when the frame stays intact.
  /// Draws from the fault RNG stream only when the plan truncates.
  std::optional<Message> Truncated(const Message& msg);
  /// One single-hop transmission of the frame `msg` (`frame_bytes` on the
  /// air) from `from` to `to`, leaving `depart` after Now() and taking
  /// `hop_delay`: decides loss (fault plan first, then churn), charges the
  /// ledger once — sent or dropped — and reports the outcome under causal
  /// message id `msg_id`: OnDrop, else OnHop for a `relay` hop, else
  /// OnSend.  Returns false when the transmission was lost.  Every send
  /// path funnels through here, so each hop is charged on its own exactly
  /// as the paper's cost model (Section 8.2) prescribes.
  bool TransmitLeg(int from, int to, const Message& msg, double depart,
                   double hop_delay, uint64_t frame_bytes, uint64_t msg_id,
                   bool relay);
  /// Schedules the final delivery of `msg` (already charged and fault-
  /// cleared) as an inline arena-backed POD event.  `msg_id` rides along so
  /// the delivery can report which traced message it completes.
  void ScheduleDelivery(double delay, int from, int to, Message&& msg,
                        uint64_t msg_id);
  /// Inline-event trampolines installed into the EventQueue.
  static void OnDeliveryEvent(void* ctx, int from, int to, void* payload);
  static void OnTimerEvent(void* ctx, int node, int timer_id, uint64_t aux);

  /// Next causal id.  Ids are dense from 1 and drawn only inside
  /// observer-attached branches, so untraced runs never touch the counter
  /// and traced same-seed runs draw identical id streams.  Purely
  /// observational: no simulation decision depends on an id.
  uint64_t NewCauseId() { return ++next_cause_id_; }

  Topology topology_;
  Config config_;
  EventQueue queue_;
  MessageArena arena_;
  Rng rng_;
  FaultInjector fault_;
  ChurnSchedule churn_;
  // Deployment adjacency with churn link changes applied; populated (and
  // consulted) only while churn is enabled.  Neighbor lists stay sorted
  // ascending, matching Topology::adjacency's contract.
  std::vector<std::vector<int>> live_adjacency_;
  // Per-node restart generation: bumped by RestartNode so timers set before
  // a restart are orphaned instead of firing on the new incarnation.
  std::vector<uint32_t> restart_gen_;
  uint64_t churn_drops_ = 0;
  // Causal-trace plumbing (all of it dormant without an observer).
  // `timer_cause_pool_` parks the arming handler's id for each in-flight
  // traced timer; the pool slot index (+1, 0 meaning "no parent") rides in
  // the high half of the timer event's aux word and is recycled when the
  // timer fires, is suppressed, or is orphaned by a restart generation
  // bump... the last of which cannot be detected at arm time, so orphaned
  // slots are reclaimed at fire time like every other.
  uint64_t next_cause_id_ = 0;
  std::vector<uint64_t> timer_cause_pool_;
  std::vector<uint32_t> free_timer_slots_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Filled slots of nodes_ (a reinstall into a filled slot does not count).
  int installed_ = 0;
  MessageStats stats_;
  SimObserver* observer_ = nullptr;
  bool hit_event_cap_ = false;
  // Per-destination routing BFSs for SendRouted/HopDistance, indexed by
  // destination node id: created on a destination's first routed call and
  // expanded only as far as the sources asked about so far.
  std::vector<std::unique_ptr<ResumableBfs>> routes_;
  // Churn only: 1 for nodes absent right now (ChurnSchedule::IsAbsent at
  // Now()).  Presence, timer suppression and routing (which never relays
  // through an absent node) all read it.  Absence changes only at churn
  // events, so ApplyChurnEvent keeps it current: `next_churn_event_` is the
  // first event of churn_.events() not yet folded into the mask.
  std::vector<char> absent_;
  size_t next_churn_event_ = 0;
};

}  // namespace elink

#endif  // ELINK_SIM_NETWORK_H_
