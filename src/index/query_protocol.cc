#include "index/query_protocol.h"

#include <algorithm>
#include <cmath>

#include "index/query_wire.h"
#include "index/screen.h"
#include "proto/harness.h"

namespace elink {

namespace {

namespace w = query_wire;

// Aggregation points arm this timer when a node deadline is configured; on
// expiry they flush a partial reply instead of waiting forever for children
// that are dead or whose replies were lost.
enum QueryTimer : int { kDeadlineTimer = 1 };

// Deadline budgets ride in the (cost-free) ints of visit/descend messages,
// fixed-point encoded.  Each hop hands its children its own remaining budget
// minus the round trip of the leg plus this slack, so the deepest nodes
// flush *first* and partial counts roll up before any ancestor's deadline —
// a uniform per-node deadline would make the root flush before its children
// and write off their (late but healthy) partial replies.
constexpr double kBudgetScale = 1e6;
constexpr double kBudgetSlack = 10.0;
constexpr double kMinBudget = 5.0;

long long EncodeBudget(double b) {
  return static_cast<long long>(std::llround(b * kBudgetScale));
}
double DecodeBudget(long long b) {
  return static_cast<double>(b) / kBudgetScale;
}

}  // namespace

/// Immutable per-node protocol state (what Section 7 says each node holds).
/// Features are pointers into the deployment's index and feature vectors.
struct DistributedRangeQuery::NodeState {
  // Cluster membership / tree.
  int cluster_root = -1;
  int tree_parent = -1;
  // M-tree summaries of the node's cluster-tree children.
  struct ChildInfo {
    int id;
    const Feature* routing_feature;
    double covering_radius;
    long long population;
  };
  std::vector<ChildInfo> mtree_children;
  // Leader-only: backbone links and upper-level child summaries.
  bool is_leader = false;
  bool is_backbone_root = false;
  int backbone_parent = -1;
  double root_ball = 0.0;      // Exact root-ball radius of the own cluster.
  long long population = 0;    // Own cluster size (leaders only).
  struct BackboneChildInfo {
    int id;
    const Feature* feature;
    double subtree_radius;
    long long subtree_population;
  };
  std::vector<BackboneChildInfo> backbone_children;
};

namespace {

using NodeState = DistributedRangeQuery::NodeState;

/// Shared run context.
struct QueryContext {
  Feature q;
  double r = 0.0;
  int query_units = 1;
  const DistanceMetric* metric = nullptr;
  int initiator = -1;
  int initiator_root = -1;
  // Per-aggregation-point flush deadline (0 = wait for everything).
  double node_deadline = 0.0;
  // Ack/retransmit transport (ProtocolOptions::reliable_transport).
  bool reliable = false;
  ReliableChannel::Config reliable_cfg;
  // Filled on completion.
  bool done = false;
  long long answer = -1;
  long long answer_incomplete = 0;  // Unreachable subtrees behind the answer.
  double finish_time = 0.0;
};

class QueryNode : public proto::ProtocolNode {
 public:
  QueryNode(const NodeState* state, const Feature* feature, QueryContext* ctx)
      : ProtocolNode(Handlers()), state_(state), ctx_(ctx), feature_(feature) {
    if (ctx_->reliable) {
      // An exhausted retry budget needs no give-up callback here: the
      // destination (or a relay to it) is dead, and the waiting aggregation
      // point writes the subtree off at its deadline.
      EnableReliable(ctx_->reliable_cfg);
    }
  }

  /// Injects the query at the initiator (driver call, before Run()).
  void Inject() {
    TracePhase("query.inject", state_->cluster_root);
    if (id() == state_->cluster_root) {
      ArrivedAtOwnRoot();
    } else {
      w::Up m;
      m.payload = QueryPayload();
      Send(state_->tree_parent, m);
    }
  }

 protected:
  void OnProtocolTimer(int timer_id) override {
    ELINK_CHECK(timer_id == kDeadlineTimer);
    // Deadline reached with replies still outstanding: write the missing
    // subtrees off as unreachable and flush a partial aggregate upward.  A
    // stale deadline (the node already reported) is a no-op.
    if (!active_ || pending_ <= 0) return;
    TracePhase("query.deadline_flush", pending_);
    incomplete_ += pending_;
    pending_ = 0;
    CheckDone();
  }

 private:
  static const proto::HandlerTable& Handlers() {
    static const proto::HandlerTable table = [] {
      proto::HandlerTableFor<QueryNode> t;
      t.On<w::Up>([](QueryNode& n, int, const w::Up& m) {
        if (n.id() == n.state_->cluster_root) {
          n.ArrivedAtOwnRoot();
        } else {
          n.Send(n.state_->tree_parent, m);
        }
      });
      t.On<w::ToBackboneRoot>([](QueryNode& n, int, const w::ToBackboneRoot&) {
        if (n.state_->is_backbone_root) {
          n.StartVisit(/*reply_to=*/-1, n.ctx_->node_deadline);
        } else {
          n.ForwardToBackboneRoot();
        }
      });
      t.On<w::Visit>([](QueryNode& n, int, const w::Visit& m) {
        // Routed messages deliver with `from` = the last relay hop; the
        // logical sender rides in the schema (and its deadline budget when
        // deadlines are configured).
        n.StartVisit(/*reply_to=*/static_cast<int>(m.sender),
                     m.budget.has_value() ? DecodeBudget(*m.budget) : 0.0);
      });
      t.On<w::BackboneInclude>([](QueryNode& n, int,
                                  const w::BackboneInclude& m) {
        // Whole backbone subtree matches; answer with the cached population.
        w::BackboneReply reply;
        reply.count = n.SubtreePopulation();
        reply.incomplete = 0;
        n.SendRouted(static_cast<int>(m.sender), reply);
      });
      t.On<w::BackboneReply>([](QueryNode& n, int, const w::BackboneReply& m) {
        n.count_ += m.count;
        n.incomplete_ += m.incomplete;
        --n.pending_;
        n.CheckDone();
      });
      t.On<w::Descend>([](QueryNode& n, int from, const w::Descend& m) {
        n.OnDescend(from, m.budget.has_value() ? DecodeBudget(*m.budget) : 0.0);
      });
      t.On<w::DescendInclude>([](QueryNode& n, int from,
                                 const w::DescendInclude&) {
        w::DescendReply reply;
        reply.count = n.MTreePopulation();
        reply.incomplete = 0;
        n.Send(from, reply);
      });
      t.On<w::DescendReply>([](QueryNode& n, int, const w::DescendReply& m) {
        n.count_ += m.count;
        n.incomplete_ += m.incomplete;
        --n.pending_;
        n.CheckDone();
      });
      t.On<w::Answer>([](QueryNode& n, int, const w::Answer& m) {
        if (n.id() == n.ctx_->initiator) {
          n.ctx_->done = true;
          n.ctx_->answer = m.count;
          n.ctx_->answer_incomplete = m.incomplete;
          n.ctx_->finish_time = n.network()->Now();
          n.TracePhase("query.answer", n.ctx_->answer);
        } else {
          // The initiator's root relays the answer down to the initiator.
          n.SendRouted(n.ctx_->initiator, m);
        }
      });
      return t;
    }();
    return table;
  }

  double Dist(const Feature& a, const Feature& b) const {
    return ctx_->metric->Distance(a, b);
  }

  long long MTreePopulation() const {
    long long pop = 1;
    for (const auto& c : state_->mtree_children) pop += c.population;
    return pop;
  }
  long long SubtreePopulation() const {
    long long pop = state_->population;
    for (const auto& c : state_->backbone_children) {
      pop += c.subtree_population;
    }
    return pop;
  }

  /// The query feature + radius payload.
  std::vector<double> QueryPayload() const {
    std::vector<double> p = ctx_->q;
    p.push_back(ctx_->r);
    return p;
  }

  /// Payload carried by routed leader-chain/backbone messages: the query
  /// rides along only when it costs more than the one free control unit.
  std::vector<double> PayloadIfMultiUnit() const {
    return ctx_->query_units > 1 ? QueryPayload() : std::vector<double>();
  }

  void ForwardToBackboneRoot() {
    w::ToBackboneRoot m;
    m.sender = id();  // Logical sender (routed `from` is just the relay).
    m.payload = PayloadIfMultiUnit();
    SendRouted(state_->backbone_parent, m);
  }

  /// The query reached the initiator's own cluster root: route it to the
  /// backbone root (possibly ourselves).
  void ArrivedAtOwnRoot() {
    if (state_->is_backbone_root) {
      StartVisit(/*reply_to=*/-1, ctx_->node_deadline);
    } else {
      ForwardToBackboneRoot();
    }
  }

  void ArmDeadline(double budget) {
    budget_ = budget;
    if (ctx_->node_deadline > 0.0) {
      network()->SetTimer(id(), budget, kDeadlineTimer);
    }
  }

  /// The flush budget handed to a child `hops` hops away: our own remaining
  /// budget minus the leg's round trip and slack, so the child reports (even
  /// partially) before *our* deadline fires.
  double ChildBudget(int hops) const {
    return std::max(kMinBudget, budget_ - (2.0 * hops + kBudgetSlack));
  }

  /// Leader processing: screen own cluster, decide per backbone child.
  void StartVisit(int reply_to, double budget) {
    TracePhase("query.visit", reply_to);
    reply_to_ = reply_to;
    active_ = true;
    count_ = 0;
    pending_ = 0;
    incomplete_ = 0;
    ArmDeadline(budget);

    // Own cluster screen (Section 7.2) with the exact root-ball radius.
    const double d_root = Dist(ctx_->q, *feature_);
    if (screen::BallOutOfRange(d_root, ctx_->r, state_->root_ball)) {
      // Excluded: contributes nothing.
    } else if (screen::BallInRange(d_root, ctx_->r, state_->root_ball)) {
      count_ += state_->population;  // Whole cluster matches.
    } else {
      // M-tree descent rooted here.
      StartLocalDescent();
    }

    // Backbone children via the cached upper-level summaries.
    for (const auto& child : state_->backbone_children) {
      const double d_child = Dist(ctx_->q, *child.feature);
      if (screen::BallOutOfRange(d_child, ctx_->r, child.subtree_radius)) {
        continue;  // Whole subtree excluded, no transmission.
      }
      if (screen::BallInRange(d_child, ctx_->r, child.subtree_radius)) {
        w::BackboneInclude m;
        m.sender = id();
        m.payload = PayloadIfMultiUnit();
        SendRouted(child.id, m);
        ++pending_;
        continue;
      }
      w::Visit m;
      m.sender = id();
      m.budget = EncodeBudget(
          ChildBudget(network()->HopDistance(id(), child.id)));
      m.payload = PayloadIfMultiUnit();
      SendRouted(child.id, m);
      ++pending_;
    }
    CheckDone();
  }

  /// Self-test plus M-tree child decisions (both for leaders starting a
  /// descent and for interior nodes receiving a descend).
  void DescendBody() {
    const double d_self = Dist(ctx_->q, *feature_);
    if (screen::InRange(d_self, ctx_->r)) ++count_;
    for (const auto& child : state_->mtree_children) {
      const double d_link = Dist(*feature_, *child.routing_feature);
      if (screen::ChildOutOfRange(d_self, d_link, ctx_->r,
                                  child.covering_radius)) {
        continue;  // Subtree excluded via the parent-side bound.
      }
      if (screen::ChildInRange(d_self, d_link, ctx_->r,
                               child.covering_radius)) {
        w::DescendInclude m;
        m.payload = QueryPayload();
        Send(child.id, m);
        ++pending_;
        continue;
      }
      w::Descend m;
      if (ctx_->node_deadline > 0.0) {
        m.budget = EncodeBudget(ChildBudget(1));
      }
      m.payload = QueryPayload();
      Send(child.id, m);
      ++pending_;
    }
  }

  void StartLocalDescent() { DescendBody(); }

  void OnDescend(int from, double budget) {
    descent_parent_ = from;
    active_ = true;
    count_ = 0;
    pending_ = 0;
    incomplete_ = 0;
    ArmDeadline(budget);
    DescendBody();
    CheckDone();
  }

  /// All outstanding replies arrived: report upward.
  void CheckDone() {
    if (!active_ || pending_ > 0) return;
    active_ = false;
    if (descent_parent_ >= 0) {
      // Interior descent node: aggregate to the descent parent.
      w::DescendReply m;
      m.count = count_;
      m.incomplete = incomplete_;
      Send(descent_parent_, m);
      descent_parent_ = -1;
      return;
    }
    // Leader: report to the backbone parent, or deliver the answer.
    if (reply_to_ >= 0) {
      w::BackboneReply m;
      m.count = count_;
      m.incomplete = incomplete_;
      SendRouted(reply_to_, m);
      reply_to_ = -1;
      return;
    }
    // Backbone root: answer travels to the initiator's root, then down.
    if (id() == ctx_->initiator) {
      ctx_->done = true;
      ctx_->answer = count_;
      ctx_->answer_incomplete = incomplete_;
      ctx_->finish_time = network()->Now();
      TracePhase("query.answer", ctx_->answer);
    } else {
      w::Answer m;
      m.count = count_;
      m.incomplete = incomplete_;
      SendRouted(ctx_->initiator_root, m);
    }
  }

  const NodeState* state_;
  QueryContext* ctx_;
  const Feature* feature_;

  bool active_ = false;
  long long count_ = 0;
  long long incomplete_ = 0;  // Subtrees written off at the deadline.
  int pending_ = 0;
  int reply_to_ = -1;
  int descent_parent_ = -1;
  double budget_ = 0.0;  // Remaining flush budget of the current visit.
};

}  // namespace

DistributedRangeQuery::DistributedRangeQuery(
    const Topology& topology, const Clustering& clustering,
    const ClusterIndex& index, const Backbone& backbone,
    const std::vector<Feature>& features,
    std::shared_ptr<const DistanceMetric> metric, ProtocolOptions options)
    : topology_(topology),
      clustering_(clustering),
      index_(index),
      backbone_(backbone),
      features_(features),
      metric_(std::move(metric)),
      options_(std::move(options)),
      upper_(backbone, index, features, *metric_) {}

DistributedRangeQuery::~DistributedRangeQuery() = default;

Result<DistributedQueryOutcome> DistributedRangeQuery::Run(int initiator,
                                                           const Feature& q,
                                                           double r) {
  if (initiator < 0 || initiator >= topology_.num_nodes()) {
    return Status::InvalidArgument("initiator out of range");
  }
  // Negated, so a NaN radius fails it too.
  if (!(r >= 0)) return Status::InvalidArgument("radius must be non-negative");
  if (q.size() != features_[initiator].size()) {
    return Status::InvalidArgument("query feature has the wrong dimension");
  }
  if (!IsFinite(q)) {
    return Status::InvalidArgument("query feature must be finite");
  }

  // Built on the first Run, not in the constructor: an object that never
  // runs a query holds no per-node state.
  if (states_.empty()) {
    const int n = topology_.num_nodes();
    states_.resize(n);
    for (int i = 0; i < n; ++i) {
      NodeState& s = states_[i];
      s.cluster_root = clustering_.root_of[i];
      s.tree_parent = index_.parent(i);
      for (int child : index_.children(i)) {
        s.mtree_children.push_back(
            {child, &index_.routing_feature(child),
             index_.covering_radius(child),
             static_cast<long long>(index_.subtree(child).size())});
      }
      if (s.cluster_root == i) {
        s.is_leader = true;
        s.is_backbone_root = backbone_.tree_root() == i;
        s.backbone_parent = backbone_.tree_parent(i);
        s.root_ball = index_.root_ball_radius(i);
        s.population = static_cast<long long>(index_.subtree(i).size());
        for (int child : backbone_.tree_children(i)) {
          s.backbone_children.push_back(
              {child, &features_[child], upper_.radius(child),
               static_cast<long long>(upper_.members(child).size())});
        }
      }
    }
  }

  QueryContext ctx;
  ctx.q = q;
  ctx.r = r;
  ctx.query_units = static_cast<int>(q.size()) + 1;
  ctx.metric = metric_.get();
  ctx.initiator = initiator;
  ctx.initiator_root = clustering_.root_of[initiator];
  ctx.node_deadline = options_.node_deadline;
  ctx.reliable = options_.reliable_transport;
  ctx.reliable_cfg = options_.reliable;

  proto::RunHarness::Options hopt;
  hopt.net.synchronous = options_.synchronous;
  hopt.net.seed = options_.seed;
  hopt.net.fault = options_.fault;
  hopt.net.churn = options_.churn;
  hopt.net.shared_paths = &paths_;
  // Keeps the clock honest when the query dies en route: the initiator
  // gives up at this time, which is what the reported latency shows.
  hopt.run_horizon = options_.query_deadline;
  proto::RunHarness harness(topology_, hopt);
  harness.set_observer(options_.observer);
  harness.InstallNodes([&](int id) {
    return std::make_unique<QueryNode>(&states_[id], &features_[id], &ctx);
  });
  static_cast<QueryNode*>(harness.net().node(initiator))->Inject();
  const proto::RunHarness::Report report = harness.Run();

  if (report.hit_event_cap) {
    return Status::Internal("distributed range query hit the event cap");
  }
  if (!ctx.done) {
    if (!options_.fault.enabled() && !options_.churn.enabled()) {
      // No faults were injected, so this is a protocol bug, not degradation.
      return Status::Internal("distributed range query did not terminate");
    }
    DistributedQueryOutcome lost;
    lost.match_count = 0;
    lost.latency = report.end_time;
    lost.stats = harness.net().stats();
    lost.complete = false;
    lost.answer_received = false;
    return lost;
  }
  DistributedQueryOutcome outcome;
  outcome.match_count = ctx.answer;
  outcome.latency = ctx.finish_time;
  outcome.stats = harness.net().stats();
  outcome.unreachable_subtrees = ctx.answer_incomplete;
  outcome.complete = ctx.answer_incomplete == 0;
  return outcome;
}

}  // namespace elink
