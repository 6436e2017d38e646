#include "cluster/elink.h"

#include <algorithm>
#include <cmath>

#include "cluster/elink_wire.h"
#include "proto/harness.h"

namespace elink {

namespace {

namespace w = elink_wire;

// Timer ids.
enum TimerType : int { kSentinelTimer = 1 };

/// Run-wide shared state for the protocol nodes.
struct RunContext {
  const QuadtreeDecomposition* quadtree = nullptr;
  const std::vector<Feature>* features = nullptr;
  const DistanceMetric* metric = nullptr;
  ElinkConfig config;
  ElinkMode mode = ElinkMode::kImplicit;
  double effective_delta = 0.0;
  double phi = 0.0;
  // Explicit mode: wrap protocol waves in ReliableChannel.
  bool reliable = false;
  // Aggregated outputs.
  int total_switches = 0;
  bool terminated = false;       // Explicit mode: root declared all rounds done.
  double termination_time = 0.0;
};

/// One sensor node running ELink.  See elink.h for the protocol overview.
class ElinkNode : public proto::ProtocolNode {
 public:
  explicit ElinkNode(RunContext* ctx)
      : ProtocolNode(Handlers()), ctx_(ctx) {
    if (ctx_->reliable) EnableReliable(ctx_->config.reliable);
  }

  // -- Clustering state, read out by the driver after the run. ------------
  bool clustered() const { return clustered_; }
  int root() const { return root_; }

 protected:
  void OnGiveUp(int /*to*/, const Message& m) override {
    // An expand that exhausted its retries behaves like a nack (the
    // neighbor is dead or unreachable).  Abandoned acks and phase/start
    // waves leave no local obligation; a stalled round is the completion
    // watchdog's job.
    if (m.type == w::Expand::kType) {
      --pending_;
      CheckExpansionComplete();
    }
  }

  void OnProtocolTimer(int timer_id) override {
    ELINK_CHECK(timer_id == kSentinelTimer);
    Activate();
  }

 private:
  static const proto::HandlerTable& Handlers() {
    static const proto::HandlerTable table = [] {
      proto::HandlerTableFor<ElinkNode> t;
      t.On<w::Expand>([](ElinkNode& n, int from, const w::Expand& m) {
        n.OnExpand(from, m);
      });
      t.On<w::Ack1>([](ElinkNode& n, int, const w::Ack1&) {
        --n.pending_;
        ++n.children_;
        n.CheckExpansionComplete();
      });
      t.On<w::Nack>([](ElinkNode& n, int, const w::Nack&) {
        --n.pending_;
        n.CheckExpansionComplete();
      });
      t.On<w::Ack2>([](ElinkNode& n, int, const w::Ack2&) {
        --n.children_;
        n.CheckExpansionComplete();
      });
      t.On<w::Phase1>([](ElinkNode& n, int, const w::Phase1& m) {
        n.OnPhase1(static_cast<int>(m.round));
      });
      t.On<w::Phase2>([](ElinkNode& n, int, const w::Phase2& m) {
        n.OnPhase2(static_cast<int>(m.round));
      });
      t.On<w::Start>([](ElinkNode& n, int, const w::Start&) { n.Activate(); });
      return t;
    }();
    return table;
  }

  bool explicit_mode() const { return ctx_->mode == ElinkMode::kExplicit; }
  int my_level() const { return ctx_->quadtree->level_of(id()); }
  const Feature& my_feature() const { return (*ctx_->features)[id()]; }

  // -- Activation (Fig. 16, procedure ELink) ------------------------------
  void Activate() {
    if (clustered_) {
      // Nothing to expand; in explicit mode still confirm round completion.
      if (explicit_mode()) SendPhase1Up(my_level());
      return;
    }
    clustered_ = true;
    is_root_ = true;
    root_ = id();
    root_feature_ = my_feature();
    member_level_ = my_level();
    root_distance_ = 0.0;
    TracePhase("elink.sentinel_start", my_level());
    ExpandToNeighbors(/*exclude=*/-1);
    CheckExpansionComplete();
  }

  void ExpandToNeighbors(int exclude) {
    settled_ = false;
    for (int nb : network()->neighbors(id())) {
      if (nb == exclude) continue;
      w::Expand m;
      m.root = root_;
      m.level = member_level_;
      m.feature = root_feature_;
      Send(nb, m);
      if (explicit_mode()) ++pending_;
    }
  }

  // -- Receiving an expand (Fig. 16, message handler) ----------------------
  void OnExpand(int from, const w::Expand& msg) {
    if (msg.feature.size() != my_feature().size()) {
      // Truncated in flight to a still-decodable but wrong-dimensional
      // feature: a protocol-level decode error, not a metric crash.
      RejectBadFields<w::Expand>();
      return;
    }
    const int offered_root = static_cast<int>(msg.root);
    const int offered_level = static_cast<int>(msg.level);
    const Feature& offered_feature = msg.feature;
    const double d_new = ctx_->metric->Distance(offered_feature, my_feature());

    bool join = false;
    if (d_new <= ctx_->effective_delta / 2.0 + 1e-12) {
      if (!clustered_) {
        join = true;
      } else if (offered_root != root_ && !is_root_ &&
                 // Ordered modes only allow same-level switches so earlier
                 // levels' clusters are never destroyed (Section 3.2); the
                 // unordered ablation has no level ordering to protect.
                 (offered_level == member_level_ ||
                  ctx_->mode == ElinkMode::kUnordered) &&
                 switches_used_ < ctx_->config.max_switches &&
                 SwitchGainOk(d_new) &&
                 (!explicit_mode() || SettledForSwitch())) {
        join = true;
        ++switches_used_;
        ++ctx_->total_switches;
        TracePhase("elink.switch", switches_used_);
      }
    }

    if (!join) {
      if (explicit_mode()) Send(from, w::Nack{});
      return;
    }

    clustered_ = true;
    is_root_ = false;
    root_ = offered_root;
    root_feature_ = offered_feature;
    member_level_ = offered_level;
    root_distance_ = d_new;
    parent_ = from;
    if (explicit_mode()) {
      Send(from, w::Ack1{});
      owed_parents_.push_back(from);
    }
    ExpandToNeighbors(/*exclude=*/from);
    CheckExpansionComplete();
  }

  bool SwitchGainOk(double d_new) const {
    if (ctx_->config.literal_figure_switch_rule) {
      // Fig. 16 as printed: d(F_rj, F_i) < d(F_ri, F_i) + phi.
      return d_new < root_distance_ + ctx_->phi;
    }
    // The prose of Sections 3.2 / 8.4: the *decrease* must reach phi.
    return d_new + ctx_->phi <= root_distance_;
  }

  // A node may switch only when its current engagement is discharged
  // (no outstanding expands, no cluster-tree children awaiting completion).
  // This keeps the ack2 completion detection acyclic; see DESIGN.md.
  bool SettledForSwitch() const { return settled_; }

  // -- Completion detection (explicit mode; Fig. 18) -----------------------
  void CheckExpansionComplete() {
    if (!explicit_mode()) return;
    if (!clustered_ || settled_ || pending_ > 0 || children_ > 0) return;
    settled_ = true;
    if (is_root_) {
      // This sentinel's cluster finished expanding: report the round.
      SendPhase1Up(my_level());
    } else {
      for (int p : owed_parents_) Send(p, w::Ack2{});
      owed_parents_.clear();
    }
  }

  // -- Quadtree synchronization (explicit mode; Fig. 18) --------------------
  void SendPhase1Up(int round) {
    const int qp = ctx_->quadtree->quad_parent(id());
    if (qp == id()) {
      // This node is the quadtree root; its own report completes the round.
      OnRoundComplete(round);
      return;
    }
    w::Phase1 m;
    m.round = round;
    SendRouted(qp, m);
  }

  void OnPhase1(int round) {
    ELINK_CHECK(round == waiting_round_);
    ELINK_CHECK(phase1_waiting_ > 0);
    if (--phase1_waiting_ > 0) return;
    if (ctx_->quadtree->quad_parent(id()) == id()) {
      OnRoundComplete(round);
    } else {
      SendPhase1Up(round);
    }
  }

  /// At the quadtree root: round `round` is globally complete.
  void OnRoundComplete(int round) {
    TracePhase("elink.round_complete", round);
    const int last_round = ctx_->quadtree->num_levels() - 1;
    if (round >= last_round) {
      ctx_->terminated = true;
      ctx_->termination_time = network()->Now();
      TracePhase("elink.terminated", round);
      return;
    }
    BeginNextRound(round);
  }

  /// Propagate phase2(round) / start according to this node's level.
  void BeginNextRound(int round) {
    const auto& kids = ctx_->quadtree->quad_children(id());
    if (kids.empty()) {
      // No subtree: the next round is vacuously complete below this node.
      SendPhase1Up(round + 1);
      return;
    }
    waiting_round_ = round + 1;
    phase1_waiting_ = static_cast<int>(kids.size());
    const bool start_children = my_level() == round;
    for (int kid : kids) {
      if (start_children) {
        SendRouted(kid, w::Start{});
      } else {
        w::Phase2 m;
        m.round = round;
        SendRouted(kid, m);
      }
    }
  }

  void OnPhase2(int round) { BeginNextRound(round); }

  RunContext* ctx_;

  // Cluster membership (Fig. 16's <r_i, F_ri, p> plus bookkeeping).
  bool clustered_ = false;
  bool is_root_ = false;
  int root_ = -1;
  Feature root_feature_;
  int member_level_ = -1;
  double root_distance_ = 0.0;
  int parent_ = -1;
  int switches_used_ = 0;

  // Explicit-mode completion detection.
  int pending_ = 0;   // Expands awaiting ack1/nack.
  int children_ = 0;  // Cluster-tree children awaiting ack2.
  bool settled_ = true;
  std::vector<int> owed_parents_;

  // Explicit-mode quadtree synchronization.
  int waiting_round_ = -1;
  int phase1_waiting_ = 0;
};

}  // namespace

ImplicitSchedule ComputeImplicitSchedule(int num_nodes, int num_levels,
                                         double gamma) {
  ImplicitSchedule s;
  s.kappa = (1.0 + gamma) * std::sqrt(num_nodes / 2.0);
  s.window.resize(num_levels);
  s.start.resize(num_levels);
  double offset = 0.0;
  for (int l = 0; l < num_levels; ++l) {
    // t_l = kappa * (1 + 1/2 + ... + 1/2^l) = kappa * (2 - 2^-l).
    s.window[l] = s.kappa * (2.0 - std::pow(2.0, -l));
    s.start[l] = offset;
    offset += s.window[l];
  }
  return s;
}

Result<ElinkResult> RunElink(const Topology& topology,
                             const std::vector<Feature>& features,
                             const DistanceMetric& metric,
                             const ElinkConfig& config, ElinkMode mode) {
  const int n = topology.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty topology");
  if (features.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("features size mismatch");
  }
  // Negated comparisons, so a NaN fails them too.
  if (!(config.delta >= 0)) {
    return Status::InvalidArgument("delta must be non-negative");
  }
  if (!(config.slack >= 0)) {
    return Status::InvalidArgument("slack must be non-negative");
  }
  if (config.delta - 2.0 * config.slack < 0) {
    return Status::InvalidArgument("slack too large: delta - 2*slack < 0");
  }
  if (mode == ElinkMode::kImplicit && !config.synchronous) {
    return Status::FailedPrecondition(
        "the implicit technique requires a synchronous network (Section 4); "
        "use kExplicit for asynchronous networks");
  }
  if (!IsConnected(topology.adjacency)) {
    return Status::InvalidArgument("communication graph must be connected");
  }

  const QuadtreeDecomposition quadtree = QuadtreeDecomposition::Build(topology);

  RunContext ctx;
  ctx.quadtree = &quadtree;
  ctx.features = &features;
  ctx.metric = &metric;
  ctx.config = config;
  ctx.mode = mode;
  ctx.effective_delta = config.delta - 2.0 * config.slack;
  ctx.phi = config.phi_fraction * ctx.effective_delta;
  ctx.reliable = mode == ElinkMode::kExplicit && config.reliable_transport;

  // Completion watchdog (explicit mode): if the run goes quiet for a full
  // timeout window without the root declaring termination — lost waves, a
  // crashed sentinel or coordinator — declare it degraded instead of letting
  // the drained queue turn into an opaque protocol error.
  proto::RunHarness::Options hopt;
  hopt.net.synchronous = config.synchronous;
  hopt.net.seed = config.seed;
  hopt.net.fault = config.fault;
  hopt.quiet_timeout =
      mode == ElinkMode::kExplicit && config.completion_timeout > 0
          ? config.completion_timeout
          : 0.0;
  proto::RunHarness harness(topology, hopt);
  harness.set_observer(config.observer);
  harness.set_done([&ctx] { return ctx.terminated; });
  harness.InstallNodes(
      [&](int) { return std::make_unique<ElinkNode>(&ctx); });
  Network& net = harness.net();

  switch (mode) {
    case ElinkMode::kImplicit: {
      const ImplicitSchedule schedule =
          ComputeImplicitSchedule(n, quadtree.num_levels(), config.gamma);
      for (int i = 0; i < n; ++i) {
        net.SetTimer(i, schedule.start[quadtree.level_of(i)], kSentinelTimer);
      }
      break;
    }
    case ElinkMode::kExplicit:
      net.SetTimer(quadtree.root(), 0.0, kSentinelTimer);
      break;
    case ElinkMode::kUnordered: {
      // A literal simultaneous start would make every sentinel self-root
      // before any expand message arrives (all-singleton output); small
      // random activation jitter lets expansion waves form and contend,
      // which is the behavior the Section-5 remark describes.
      Rng jitter(config.seed ^ 0x5deece66dULL);
      for (int i = 0; i < n; ++i) {
        net.SetTimer(i, jitter.Uniform(0.0, 5.0), kSentinelTimer);
      }
      break;
    }
  }

  const proto::RunHarness::Report report = harness.Run();

  if (report.hit_event_cap) {
    return Status::Internal("ELink hit the event cap: protocol runaway");
  }
  if (mode == ElinkMode::kExplicit && !ctx.terminated && !report.timed_out) {
    return Status::Internal("explicit ELink did not reach termination");
  }

  ElinkResult result;
  result.num_levels = quadtree.num_levels();
  result.total_switches = ctx.total_switches;
  result.completion_time = mode == ElinkMode::kExplicit && ctx.terminated
                               ? ctx.termination_time
                               : report.end_time;
  result.completed = mode != ElinkMode::kExplicit || ctx.terminated;
  result.stats = net.stats();
  result.clustering.root_of.resize(n);
  for (int i = 0; i < n; ++i) {
    auto* node = static_cast<ElinkNode*>(net.node(i));
    if (!config.fault.enabled()) {
      // Fault-free runs must cluster everyone; anything else is a bug.
      ELINK_CHECK(node->clustered());
    }
    if (node->clustered()) {
      result.clustering.root_of[i] = node->root();
    } else {
      // Crashed or unreached under fault injection: emit as a singleton so
      // the output is still a valid (degraded) delta-clustering.
      result.clustering.root_of[i] = i;
      ++result.unclustered_nodes;
    }
  }
  result.repaired_fragments =
      RepairDisconnectedClusters(&result.clustering, topology.adjacency);
  return result;
}

Result<ElinkResult> RunElink(const SensorDataset& dataset,
                             const ElinkConfig& config, ElinkMode mode) {
  return RunElink(dataset.topology, dataset.features, *dataset.metric, config,
                  mode);
}

}  // namespace elink
