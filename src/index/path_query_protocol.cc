#include "index/path_query_protocol.h"

#include <span>
#include <utility>

#include "common/strings.h"
#include "index/path_wire.h"
#include "index/screen.h"
#include "proto/harness.h"
#include "proto/node.h"

namespace elink {

/// Read-only per-node deployment state (object-owned, kept across runs).
struct DistributedPathQuery::PathNodeState {
  int cluster_root = -1;
  int tree_parent = -1;
  const std::vector<int>* mtree_children = nullptr;
  const Feature* routing_feature = nullptr;
  double covering_radius = 0.0;
  const std::vector<int>* subtree = nullptr;

  // Leader-only backbone state.
  bool is_leader = false;
  bool is_backbone_root = false;
  int backbone_parent = -1;
  double root_ball = 0.0;
  struct BackboneChild {
    int id = -1;
    const Feature* feature = nullptr;
    double subtree_radius = 0.0;
    std::span<const int> members;
  };
  std::vector<BackboneChild> backbone_children;
};

namespace {

namespace w = path_wire;

using PathNodeState = DistributedPathQuery::PathNodeState;

/// Query-global blackboard the nodes report their classifications into.
struct PathContext {
  const DistanceMetric* metric = nullptr;
  Feature danger;
  double gamma = 0.0;
  std::vector<char> safe;
  bool suppressed = false;
  bool classification_done = false;
  int clusters_safe = 0;
  int clusters_unsafe = 0;
  int clusters_drilled = 0;
};

class PathNode : public proto::ProtocolNode {
 public:
  PathNode(const PathNodeState* state, PathContext* ctx)
      : ProtocolNode(Handlers()), state_(state), ctx_(ctx) {}

  /// Driver entry point at the source node (before the event loop runs).
  void Inject() {
    if (id() == state_->cluster_root) {
      LeaderEntry();
    } else {
      w::PathUp m;
      m.danger = ctx_->danger;
      m.gamma = ctx_->gamma;
      Send(state_->tree_parent, m);
    }
  }

 private:
  static const proto::HandlerTable& Handlers() {
    static const proto::HandlerTable table = [] {
      proto::HandlerTableFor<PathNode> t;
      t.On<w::PathUp>([](PathNode& n, int, const w::PathUp& m) {
        if (n.id() == n.state_->cluster_root) {
          n.LeaderEntry();
        } else {
          n.Send(n.state_->tree_parent, m);
        }
      });
      t.On<w::PathRoute>([](PathNode& n, int, const w::PathRoute& m) {
        if (n.state_->is_backbone_root) {
          n.StartVisit(/*reply_to=*/-1);
        } else {
          n.SendRouted(n.state_->backbone_parent, m);
        }
      });
      t.On<w::PathVisit>([](PathNode& n, int, const w::PathVisit& m) {
        n.StartVisit(static_cast<int>(m.sender));
      });
      t.On<w::PathDrill>([](PathNode& n, int from, const w::PathDrill&) {
        n.OnDrill(from);
      });
      t.On<w::PathDrillDone>([](PathNode& n, int, const w::PathDrillDone&) {
        --n.pending_;
        n.CheckDone();
      });
      t.On<w::PathVisitDone>([](PathNode& n, int, const w::PathVisitDone&) {
        --n.pending_;
        n.CheckDone();
      });
      return t;
    }();
    return table;
  }

  double DangerDist(const Feature& f) const {
    return ctx_->metric->Distance(f, ctx_->danger);
  }

  /// The query reached the source's cluster root: suppress or escalate.
  void LeaderEntry() {
    const double d = DangerDist(*state_->routing_feature);
    if (screen::SubtreeUnsafe(d, ctx_->gamma, state_->covering_radius)) {
      // Own cluster conclusively unsafe: kill the query here (Section 7.3),
      // no further transmissions.
      ctx_->suppressed = true;
      TracePhase("path.suppressed");
      return;
    }
    if (state_->is_backbone_root) {
      StartVisit(/*reply_to=*/-1);
      return;
    }
    w::PathRoute m;
    m.danger = ctx_->danger;
    m.gamma = ctx_->gamma;
    SendRouted(state_->backbone_parent, m);
  }

  /// Classify own cluster and disseminate down the backbone subtree.
  void StartVisit(int reply_to) {
    TracePhase("path.visit", reply_to);
    visiting_ = true;
    visit_reply_to_ = reply_to;
    // Own-cluster screen with the exact root-ball radius.
    const double ball = state_->root_ball;
    const double d = DangerDist(*state_->routing_feature);
    if (screen::ClusterSafe(d, ctx_->gamma, ball)) {
      ++ctx_->clusters_safe;
      for (int m : *state_->subtree) ctx_->safe[m] = 1;
    } else if (screen::ClusterUnsafe(d, ctx_->gamma, ball)) {
      ++ctx_->clusters_unsafe;
    } else {
      ++ctx_->clusters_drilled;
      DrillLocal(/*reply_hop=*/-1);
    }
    // Decide per backbone child from the cached upper-level radii; only
    // inconclusive subtrees cost a routed visit.
    for (const auto& child : state_->backbone_children) {
      const double d_child = DangerDist(*child.feature);
      if (screen::SubtreeSafe(d_child, ctx_->gamma, child.subtree_radius)) {
        for (int m : child.members) ctx_->safe[m] = 1;
        continue;
      }
      if (screen::SubtreeUnsafe(d_child, ctx_->gamma, child.subtree_radius)) {
        continue;
      }
      w::PathVisit m;
      m.sender = id();
      m.danger = ctx_->danger;
      m.gamma = ctx_->gamma;
      SendRouted(child.id, m);
      ++pending_;
    }
    CheckDone();
  }

  /// A PathDrill arrived from our M-tree parent.
  void OnDrill(int from) { DrillLocal(from); }

  /// Classify this node's M-tree subtree; `reply_hop` is the drill parent
  /// to ack (or -1 when the drill starts at a visited leader).
  void DrillLocal(int reply_hop) {
    const double d = DangerDist(*state_->routing_feature);
    const double radius = state_->covering_radius;
    if (screen::SubtreeSafe(d, ctx_->gamma, radius)) {
      for (int m : *state_->subtree) ctx_->safe[m] = 1;
      if (reply_hop >= 0) Send(reply_hop, w::PathDrillDone{});
      return;
    }
    if (screen::SubtreeUnsafe(d, ctx_->gamma, radius)) {
      if (reply_hop >= 0) Send(reply_hop, w::PathDrillDone{});
      return;
    }
    // Inconclusive: classify this node exactly, drill into each child.
    TracePhase("path.drill", reply_hop);
    ctx_->safe[id()] = screen::Safe(d, ctx_->gamma) ? 1 : 0;
    drill_parent_ = reply_hop;
    for (int child : *state_->mtree_children) {
      w::PathDrill m;
      m.danger = ctx_->danger;
      m.gamma = ctx_->gamma;
      Send(child, m);
      ++pending_;
    }
    if (reply_hop >= 0) CheckDone();
  }

  /// All outstanding drill/visit acks in: report upward (or finish).
  void CheckDone() {
    if (pending_ > 0) return;
    if (drill_parent_ >= 0) {
      const int p = drill_parent_;
      drill_parent_ = -1;
      Send(p, w::PathDrillDone{});
      return;
    }
    if (!visiting_) return;
    visiting_ = false;
    if (visit_reply_to_ >= 0) {
      SendRouted(visit_reply_to_, w::PathVisitDone{});
      visit_reply_to_ = -1;
    } else {
      ctx_->classification_done = true;
      TracePhase("path.classified");
    }
  }

  const PathNodeState* state_;
  PathContext* ctx_;

  int pending_ = 0;
  int drill_parent_ = -1;
  bool visiting_ = false;
  int visit_reply_to_ = -1;
};

}  // namespace

DistributedPathQuery::DistributedPathQuery(
    const Topology& topology, const Clustering& clustering,
    const ClusterIndex& index, const Backbone& backbone,
    const std::vector<Feature>& features,
    std::shared_ptr<const DistanceMetric> metric, PathProtocolOptions options)
    : topology_(topology),
      clustering_(clustering),
      index_(index),
      backbone_(backbone),
      features_(features),
      metric_(std::move(metric)),
      options_(options),
      upper_(backbone, index, features, *metric_) {}

DistributedPathQuery::~DistributedPathQuery() = default;

Result<PathQueryResult> DistributedPathQuery::Run(int source, int destination,
                                                  const Feature& danger,
                                                  double gamma) {
  const int n = topology_.num_nodes();
  if (source < 0 || source >= n || destination < 0 || destination >= n) {
    return Status::InvalidArgument(
        StringPrintf("path query endpoints (%d, %d) out of range [0, %d)",
                     source, destination, n));
  }
  // Negated, so a NaN gamma fails it too.
  if (!(gamma >= 0)) {
    return Status::InvalidArgument("gamma must be non-negative");
  }
  if (danger.size() != features_[source].size()) {
    return Status::InvalidArgument("danger feature has the wrong dimension");
  }
  if (!IsFinite(danger)) {
    return Status::InvalidArgument("danger feature must be finite");
  }

  // Built on the first Run, not in the constructor: an object that never
  // runs a query holds no per-node state.
  if (states_.empty()) {
    // Deployment: hand every node its slice of the cluster/index/backbone
    // state, as the build protocols would have left it in the field.
    states_.resize(n);
    for (int i = 0; i < n; ++i) {
      PathNodeState& s = states_[i];
      s.cluster_root = clustering_.root_of[i];
      s.tree_parent = index_.parent(i);
      s.mtree_children = &index_.children(i);
      s.routing_feature = &index_.routing_feature(i);
      s.covering_radius = index_.covering_radius(i);
      s.subtree = &index_.subtree(i);
    }
    for (int leader : backbone_.leaders()) {
      PathNodeState& s = states_[leader];
      s.is_leader = true;
      s.is_backbone_root = backbone_.tree_parent(leader) == leader;
      s.backbone_parent = backbone_.tree_parent(leader);
      s.root_ball = index_.root_ball_radius(leader);
      for (int child : backbone_.tree_children(leader)) {
        PathNodeState::BackboneChild c;
        c.id = child;
        c.feature = &features_[child];
        c.subtree_radius = upper_.radius(child);
        c.members = upper_.members(child);
        s.backbone_children.push_back(c);
      }
    }
  }

  PathContext ctx;
  ctx.metric = metric_.get();
  ctx.danger = danger;
  ctx.gamma = gamma;
  ctx.safe.assign(n, 0);

  proto::RunHarness::Options hopt;
  hopt.net.synchronous = options_.synchronous;
  hopt.net.seed = options_.seed;
  hopt.net.fault = options_.fault;
  hopt.net.churn = options_.churn;
  hopt.net.shared_paths = &paths_;
  proto::RunHarness harness(topology_, hopt);
  harness.set_observer(options_.observer);
  harness.InstallNodes(
      [&](int i) { return std::make_unique<PathNode>(&states_[i], &ctx); });

  static_cast<PathNode*>(harness.net().node(source))->Inject();
  const proto::RunHarness::Report report = harness.Run();
  if (report.hit_event_cap) {
    return Status::Internal("path query protocol hit the event cap");
  }
  if (!ctx.suppressed && !ctx.classification_done) {
    if (!options_.fault.enabled() && !options_.churn.enabled()) {
      return Status::Internal(
          "path query classification did not complete on a fault-free run");
    }
    // Message loss stalled the wave: report a (counted) failed query rather
    // than an answer derived from a partial safe map.
    PathQueryResult lost;
    lost.found = false;
    lost.stats = harness.net().stats();
    lost.clusters_safe = ctx.clusters_safe;
    lost.clusters_unsafe = ctx.clusters_unsafe;
    lost.clusters_drilled = ctx.clusters_drilled;
    return lost;
  }

  PathQueryResult result;
  result.stats = harness.net().stats();
  result.clusters_safe = ctx.clusters_safe;
  result.clusters_unsafe = ctx.clusters_unsafe;
  result.clusters_drilled = ctx.clusters_drilled;
  if (!ctx.suppressed) {
    SearchSafeRegion(source, destination, ctx.safe, topology_.adjacency,
                     clustering_, backbone_, &result);
  }
  return result;
}

}  // namespace elink
