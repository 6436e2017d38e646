#include "cluster/maintenance_protocol.h"

#include <algorithm>
#include <functional>
#include <set>

#include "cluster/maintenance_wire.h"
#include "common/strings.h"
#include "proto/harness.h"

namespace elink {

namespace {

namespace w = maint_wire;

struct MaintContext {
  const DistanceMetric* metric = nullptr;
  MaintenanceConfig config;
  int dim = 1;
  /// Fires on every cluster-epoch bump with (root node, new epoch).  The
  /// serving layer uses it to invalidate cached answers per cluster; null
  /// for sessions without a frontend.  Purely observational.
  std::function<void(int, long long)> epoch_hook;
  /// True when the session runs under a live ChurnPlan.  All churn-repair
  /// behavior (neighbor reactions, epoch reports, probe retries) is gated on
  /// this so churn-free sessions stay bit-identical to the legacy protocol.
  bool churn_aware = false;
};

class MaintNode : public proto::ProtocolNode {
 public:
  explicit MaintNode(MaintContext* ctx)
      : ProtocolNode(Handlers()), ctx_(ctx) {}

  // Deployment (driver, before any update).
  void Deploy(Feature feature, int root, int parent,
              std::vector<int> children) {
    feature_ = feature;
    verified_ = feature;
    root_ = root;
    parent_ = parent;
    children_ = std::move(children);
  }
  void SetStoredRoot(Feature f) { stored_root_ = std::move(f); }
  void SetAnnounced(Feature f) { announced_ = std::move(f); }

  // State readout for the driver.
  int root() const { return root_; }
  const Feature& feature() const { return feature_; }
  const Feature& announced() const { return announced_; }
  long long epoch() const { return epoch_; }
  long long cluster_epoch() const { return cluster_epoch_; }

  /// Section 6 entry point: one local feature update.
  void LocalUpdate(const Feature& updated) {
    feature_ = updated;
    if (root_ == id()) {
      RootUpdate();
      return;
    }
    const double slack = ctx_->config.slack;
    const double d_new_root = Dist(feature_, stored_root_);
    const bool a1 = Dist(verified_, feature_) <= slack + 1e-12;
    const bool a2 =
        d_new_root - Dist(verified_, stored_root_) <= slack + 1e-12;
    const bool a3 = d_new_root <= ctx_->config.delta - slack + 1e-12;
    if (a1 || a2 || a3) return;  // Absorbed locally: no messages.
    // Escalate: fetch the live root feature over the cluster tree.
    TracePhase("maint.escalate", root_);
    w::FetchUp m;
    m.origin = id();
    Send(parent_, m);
  }

 protected:
  /// Churn repair: the node came back (join or crash repair).  The previous
  /// incarnation's tree links are void — the network orphaned its timers and
  /// the runtime reset the transport — so it restarts as a self-consistent
  /// singleton cluster and probes for a home, exactly like a detach.
  void OnNodeRestart() override {
    ++epoch_;
    TracePhase("maint.restart", epoch_);
    children_.clear();
    root_ = id();
    parent_ = id();
    announced_ = feature_;
    stored_root_ = feature_;
    verified_ = feature_;
    reattach_mode_ = false;
    verify_waiting_seq_ = -1;
    merge_retries_left_ = kMaxMergeRetries;
    BumpEpoch();  // A fresh singleton cluster is a membership change.
    StartProbing();
  }

  /// Churn repair: local reaction to a neighborhood change.  Down: drop the
  /// neighbor from our tree links — if it was our parent, run the orphan
  /// repair locally (no Leave can reach a dead parent); if it was the probe
  /// we are waiting on, move on.  Up: re-scan — the newcomer may be a better
  /// (or the only) home for a probing or singleton node.
  void OnNeighborUpdate(int neighbor, bool up) override {
    if (!ctx_->churn_aware) return;
    // A real membership/link event changes the merge landscape; replenish
    // the retry budget.  Plans are finite, so this keeps retries bounded.
    merge_retries_left_ = kMaxMergeRetries;
    if (!up) {
      children_.erase(
          std::remove(children_.begin(), children_.end(), neighbor),
          children_.end());
      if (probing_ && neighbor == pending_probe_target_) {
        ++probe_index_;
        ProbeNext();
      }
      if (!probing_ && neighbor == parent_ && parent_ != id()) {
        LocalOrphan();
      }
    } else {
      if (probing_) {
        // New candidate: restart the scan (stale replies are filtered by
        // pending_probe_target_).
        StartProbing();
      } else if (root_ == id() && parent_ == id() && children_.empty()) {
        // Settled singleton: the newcomer may offer a merge.
        StartProbing();
      }
    }
  }

  void OnProtocolTimer(int timer_id) override {
    if (timer_id == kVerifyTimer) {
      // No verdict came back in time: the custody chain hit a dead node
      // (messages to the absent are dropped, never answered).  Treat the
      // claim as stale.  Early timers from superseded walks see a later
      // deadline and stand down.
      if (ctx_->churn_aware && verify_waiting_seq_ != -1 && !probing_ &&
          root_ != id() && network()->Now() + 1e-9 >= verify_deadline_) {
        verify_waiting_seq_ = -1;
        PurgeStale();
      }
      return;
    }
    if (timer_id != kRetryTimer) return;
    // Merge retry (churn only): the last scan saw an unsettled neighbor —
    // typically a mutual-probe race where both sides promoted to singleton
    // roots.  If we are still a settled singleton, scan again; the stagger
    // in RetryDelay breaks the symmetry, so one side settles first and the
    // other adopts it.
    if (ctx_->churn_aware && !probing_ && root_ == id() && parent_ == id() &&
        children_.empty()) {
      StartProbing();
    }
  }

 private:
  static constexpr int kRetryTimer = 1;
  static constexpr int kVerifyTimer = 2;

  static const proto::HandlerTable& Handlers() {
    static const proto::HandlerTable table = [] {
      proto::HandlerTableFor<MaintNode> t;
      t.On<w::FetchUp>([](MaintNode& n, int, const w::FetchUp& m) {
        if (n.root_ == n.id()) {
          w::RootFeature reply;
          reply.feature = n.feature_;
          n.SendRouted(static_cast<int>(m.origin), reply);
        } else {
          n.Send(n.parent_, m);
        }
      });
      t.On<w::RootFeature>([](MaintNode& n, int, const w::RootFeature& m) {
        if (m.feature.size() != n.feature_.size()) {
          n.RejectBadFields<w::RootFeature>();
          return;
        }
        n.stored_root_ = m.feature;
        if (n.Dist(n.feature_, n.stored_root_) <=
            n.ctx_->config.delta + 1e-12) {
          n.verified_ = n.feature_;  // Still compatible: stay.
        } else {
          n.StartDetach();
        }
      });
      t.On<w::Push>([](MaintNode& n, int from, const w::Push& m) {
        if (m.feature.size() != n.feature_.size()) {
          n.RejectBadFields<w::Push>();
          return;
        }
        // Pushes flow down the tree; under churn, ignore one from anyone but
        // the current parent (ex-parents race their own Leave/Orphan).
        if (n.ctx_->churn_aware && from != n.parent_) return;
        n.stored_root_ = m.feature;
        if (n.Dist(n.feature_, n.stored_root_) > n.ctx_->config.delta + 1e-12) {
          // Evicted by the root's drift; children are pushed first so they
          // hold the fresh root feature when the orphan notice arrives.
          n.ForwardPushToChildren(m);
          n.StartDetach();
        } else {
          n.RebaseVerified();
          n.ForwardPushToChildren(m);
        }
      });
      t.On<w::Probe>([](MaintNode& n, int from, const w::Probe&) {
        w::ProbeReply reply;
        reply.root = n.root_;
        reply.settled = n.probing_ ? 0 : 1;
        reply.stored_root = n.stored_root_;
        n.Send(from, reply);
      });
      t.On<w::ProbeReply>([](MaintNode& n, int from, const w::ProbeReply& m) {
        if (m.stored_root.size() != n.feature_.size()) {
          n.RejectBadFields<w::ProbeReply>();
          return;
        }
        // Only the neighbor we are currently waiting on may answer; replies
        // from an earlier scan (a probe restarted by churn, or a re-detach
        // with the old reply still in flight) are stale and ignored.
        if (from != n.pending_probe_target_) return;
        n.OnProbeReply(from, static_cast<int>(m.root), m.settled != 0,
                       m.stored_root);
      });
      t.On<w::Leave>([](MaintNode& n, int from, const w::Leave&) {
        n.children_.erase(
            std::remove(n.children_.begin(), n.children_.end(), from),
            n.children_.end());
      });
      t.On<w::Attach>([](MaintNode& n, int from, const w::Attach&) {
        n.children_.push_back(from);
        if (n.ctx_->churn_aware) {
          // Under churn the adopter may have restarted or re-rooted while the
          // Attach was in flight; echo the authoritative root so the new
          // child can never be left pointing into a stale tree.
          w::RootChanged m;
          m.root = n.root_;
          m.feature = n.stored_root_;
          n.Send(from, m);
        }
      });
      t.On<w::EpochReport>([](MaintNode& n, int, const w::EpochReport& m) {
        if (n.root_ == n.id()) {
          // End of the custody chain: whatever root the walk reached is the
          // origin's actual tree root.  A match means the adoption landed in
          // a live tree (a membership change worth an epoch bump); the ack
          // lets the origin compare and freshen its stored root feature.
          if (static_cast<int>(m.root) == n.id()) n.BumpEpoch();
          w::VerifyAck ack;
          ack.root = n.id();
          ack.seq = m.seq;
          ack.feature = n.feature_;
          n.SendRouted(static_cast<int>(m.origin), ack);
          return;
        }
        if (m.ttl <= 0 || n.parent_ == n.id()) {
          // Hop budget spent without reaching a root (the parent chain cycles
          // among stale believers), or the chain hit a node that calls itself
          // parentless while claiming a foreign root (a relabel landed
          // mid-repair): either way the origin's claim is not backed by a
          // live tree.
          w::VerifyGone gone;
          gone.seq = m.seq;
          n.SendRouted(static_cast<int>(m.origin), gone);
          return;
        }
        w::EpochReport fwd = m;
        fwd.ttl = m.ttl - 1;
        n.Send(n.parent_, fwd);
      });
      t.On<w::VerifyAck>([](MaintNode& n, int, const w::VerifyAck& m) {
        if (m.feature.size() != n.feature_.size()) {
          n.RejectBadFields<w::VerifyAck>();
          return;
        }
        if (m.seq != n.verify_waiting_seq_) return;  // A superseded walk.
        n.verify_waiting_seq_ = -1;
        if (n.probing_ || n.root_ == n.id()) return;
        if (static_cast<int>(m.root) != n.root_) {
          // The chain ended at some other root: our claimed cluster no
          // longer exists as a tree we belong to.
          n.PurgeStale();
          return;
        }
        n.stored_root_ = m.feature;
        if (n.Dist(n.feature_, n.stored_root_) > n.ctx_->config.delta + 1e-12) {
          n.StartDetach();
        } else {
          n.verified_ = n.feature_;
        }
      });
      t.On<w::VerifyGone>([](MaintNode& n, int, const w::VerifyGone& m) {
        if (m.seq != n.verify_waiting_seq_) return;
        n.verify_waiting_seq_ = -1;
        if (!n.probing_ && n.root_ != n.id()) n.PurgeStale();
      });
      t.On<w::Orphan>([](MaintNode& n, int from, const w::Orphan&) {
        // Only the node we currently call parent may orphan us (churn only:
        // an ex-parent's stale flatten must not dissolve the new subtree).
        if (n.ctx_->churn_aware && from != n.parent_) return;
        if (!n.probing_) {
          // The parent departed.  Flatten: orphan our own subtree too (every
          // probing node is then a leaf, which keeps adoption acyclic), and
          // look for a new home, preferring the old cluster.
          for (int child : n.children_) n.Send(child, w::Orphan{});
          n.children_.clear();
          n.reattach_mode_ = true;
          n.old_root_ = n.root_;
          n.StartProbing();
        }
      });
      t.On<w::RootChanged>([](MaintNode& n, int from, const w::RootChanged& m) {
        if (m.feature.size() != n.feature_.size()) {
          n.RejectBadFields<w::RootChanged>();
          return;
        }
        // Tree-authority guard (churn only): relabels travel strictly down
        // the tree, so only the current parent may speak.  A stale copy from
        // an ex-parent (its Leave still in flight) would otherwise relabel a
        // detached singleton into root != self with parent == self — a state
        // the custody walk then forwards to itself.
        if (n.ctx_->churn_aware && from != n.parent_) return;
        // Idempotence guard: a transient tree inconsistency (an Attach
        // crossing an Orphan mid-detach, with or without churn) can route a
        // RootChanged back into a node that already holds it; re-forwarding
        // identical state down a momentary parent cycle would loop forever.
        if (static_cast<int>(m.root) == n.root_ &&
            m.feature == n.stored_root_) {
          return;
        }
        n.root_ = static_cast<int>(m.root);
        n.stored_root_ = m.feature;
        for (int child : n.children_) n.Send(child, m);
        if (n.probing_) return;
        if (n.Dist(n.feature_, n.stored_root_) > n.ctx_->config.delta + 1e-12) {
          // The relabel (attach echo, or a subtree re-root racing our own
          // update) put us out of range of the authoritative root feature:
          // evict ourselves exactly as a Push carrying it would have.
          n.StartDetach();
        } else {
          n.RebaseVerified();
        }
      });
      return t;
    }();
    return table;
  }

  /// Id-staggered, deterministic (no RNG) retry delay: distinct per
  /// neighboring node, so two racing singletons never re-scan in lockstep.
  double RetryDelay() const { return 4.0 + 0.25 * (id() % 32); }

  /// Bumps this root's cluster epoch (observable re-clustering).
  void BumpEpoch() {
    ++cluster_epoch_;
    TracePhase("maint.epoch", cluster_epoch_);
    if (ctx_->epoch_hook) ctx_->epoch_hook(id(), cluster_epoch_);
  }

  /// The parent vanished (churn): flatten the subtree and re-attach, like
  /// the wire Orphan, but with the root-role fields made self-consistent
  /// immediately — there is no live parent left to answer for us.
  void LocalOrphan() {
    TracePhase("maint.orphan", parent_);
    for (int child : children_) Send(child, w::Orphan{});
    children_.clear();
    reattach_mode_ = true;
    old_root_ = root_;
    root_ = id();
    parent_ = id();
    announced_ = feature_;
    stored_root_ = feature_;
    verified_ = feature_;
    StartProbing();
  }
  double Dist(const Feature& a, const Feature& b) const {
    return ctx_->metric->Distance(a, b);
  }

  /// A new stored root feature arrived and the current feature was found
  /// within delta of it.  LocalUpdate's A1/A2 absorb an update by comparing
  /// it with verified_, which is sound only while verified_ itself is within
  /// delta of stored_root_; a root push that moves stored_root_ away from a
  /// stale verified_ (a fire front shifts root and members alike) would let
  /// A1/A2 absorb a later update that is out of range.  Under churn the
  /// checked feature becomes the new base.  Churn-free sessions keep the
  /// legacy rule so their runs stay bit-identical.
  void RebaseVerified() {
    if (ctx_->churn_aware) verified_ = feature_;
  }

  void RootUpdate() {
    if (Dist(announced_, feature_) <= ctx_->config.slack + 1e-12) return;
    announced_ = feature_;
    verified_ = feature_;
    stored_root_ = feature_;
    w::Push m;
    m.feature = feature_;
    for (int child : children_) Send(child, m);
  }

  void ForwardPushToChildren(const w::Push& push) {
    for (int child : children_) Send(child, push);
  }

  /// Leaves the current cluster and looks for a new home (Section 6's
  /// detach-and-merge, plus the orphan notifications that realize the
  /// connectivity repair in a distributed way).
  void StartDetach() {
    TracePhase("maint.detach", root_);
    if (parent_ != id()) Send(parent_, w::Leave{});
    for (int child : children_) Send(child, w::Orphan{});
    children_.clear();
    root_ = id();
    parent_ = id();
    // While probing we are a singleton root; the root-role fields must be
    // self-consistent immediately, not only when the probe resolves: a lost
    // ProbeReply can leave the node in this state indefinitely, and a later
    // local update then reads announced_/stored_root_ through RootUpdate.
    announced_ = feature_;
    stored_root_ = feature_;
    verified_ = feature_;
    reattach_mode_ = false;
    StartProbing();
  }

  void StartProbing() {
    probing_ = true;
    probe_index_ = 0;
    unsettled_seen_ = false;
    ProbeNext();
  }

  void ProbeNext() {
    const auto& neighbors = network()->neighbors(id());
    // Churn repair: a probe to an absent neighbor would never be answered
    // and stall the scan forever; skip the dead (membership knowledge the
    // join/leave notifications already gave us).
    if (ctx_->churn_aware) {
      while (probe_index_ < static_cast<int>(neighbors.size()) &&
             !network()->IsPresent(neighbors[probe_index_])) {
        ++probe_index_;
      }
    }
    if (probe_index_ >= static_cast<int>(neighbors.size())) {
      // No suitable neighbor: become (or stay) a cluster of our own and
      // re-label any subtree still below us.
      probing_ = false;
      pending_probe_target_ = -1;
      TracePhase("maint.promote", id());
      root_ = id();
      parent_ = id();
      announced_ = feature_;
      stored_root_ = feature_;
      verified_ = feature_;
      BroadcastRootChanged();
      if (ctx_->churn_aware) {
        BumpEpoch();  // A promoted singleton/subtree is a new cluster.
        if (unsettled_seen_ && merge_retries_left_ > 0) {
          // Someone nearby was mid-scan too (mutual-probe race); try again
          // once the dust settles.  The budget keeps a neighborhood of
          // mutually-unmergeable singletons from phase-locking into an
          // endless rescan storm: every scan of a dense cluster sees some
          // neighbor mid-probe, so "retry while unsettled seen" alone never
          // terminates.  Giving up merges nothing away but an optional
          // merge — a settled singleton is a valid cluster on its own.
          --merge_retries_left_;
          network()->SetTimer(id(), RetryDelay(), kRetryTimer);
        }
      }
      return;
    }
    pending_probe_target_ = neighbors[probe_index_];
    Send(neighbors[probe_index_], w::Probe{});
  }

  void OnProbeReply(int from, int nb_root, bool nb_settled,
                    const Feature& nb_stored_root) {
    if (!probing_) return;
    ++probe_index_;
    if (!nb_settled) unsettled_seen_ = true;
    // Only settled neighbors can be adopted (an unsettled one is itself
    // looking for a parent; mutual adoption would form a cycle).  Under
    // churn, a neighbor claiming *us* as its root is already (or still) in
    // our own subtree: adopting it would bend the tree into a parent cycle
    // whose RootChanged echoes then circulate forever, and whose custody
    // walk self-confirms (we would ack our own verification).  A neighbor
    // that is currently our *child* is never adoptable either: its Attach
    // crossed our detach (it adopted us off a stale probe reply while our
    // eviction was in flight), and adopting it back would close a parent
    // 2-cycle disconnected from the real tree.  Refusing costs nothing —
    // the promote below relabels the child with our fresh feature, and it
    // re-evicts itself if that puts it out of range.
    if (nb_settled && !(ctx_->churn_aware && nb_root == id()) &&
        std::find(children_.begin(), children_.end(), from) ==
            children_.end()) {
      if (reattach_mode_ && nb_root == old_root_ && from < id()) {
        // Same-cluster re-attachment; the smaller-id rule makes the
        // adoption order a strict partial order, so no cycles can form.
        AdoptParent(from, nb_root, nb_stored_root, /*root_changed=*/false);
        return;
      }
      const bool foreign = nb_root != (reattach_mode_ ? old_root_ : id());
      if (foreign && Dist(feature_, nb_stored_root) <=
                         ctx_->config.merge_fraction * ctx_->config.delta +
                             1e-12) {
        AdoptParent(from, nb_root, nb_stored_root, /*root_changed=*/true);
        return;
      }
    }
    ProbeNext();
  }

  void AdoptParent(int new_parent, int new_root, const Feature& root_feature,
                   bool root_changed) {
    probing_ = false;
    pending_probe_target_ = -1;
    TracePhase("maint.adopt", new_root);
    parent_ = new_parent;
    const bool changed = root_changed || new_root != root_;
    root_ = new_root;
    stored_root_ = root_feature;
    verified_ = feature_;
    Send(new_parent, w::Attach{});
    if (changed) BroadcastRootChanged();
    if (ctx_->churn_aware) StartVerify();
  }

  /// Walks the custody chain to the claimed root (churn only).  Confirms
  /// the adoption joined a live tree — the root bumps its epoch and acks
  /// with its current feature — while a cycle, a dead chain, or a foreign
  /// root at the end exposes a stale claim resurrected across a crash.
  void StartVerify() {
    verify_waiting_seq_ = ++verify_seq_;
    verify_deadline_ = network()->Now() + VerifyTimeout();
    w::EpochReport m;
    m.root = root_;
    m.origin = id();
    m.seq = verify_waiting_seq_;
    m.ttl = network()->num_nodes();
    Send(parent_, m);
    network()->SetTimer(id(), VerifyTimeout(), kVerifyTimer);
  }

  /// Worst-case chain walk plus routed ack: both are bounded by num_nodes
  /// hops at the asynchronous per-hop delay ceiling.
  double VerifyTimeout() const { return 8.0 + 4.0 * network()->num_nodes(); }

  /// The claimed root is unreachable along the custody chain — the whole
  /// branch hangs off a cluster that no longer exists.  Dissolve it: the
  /// orphaned children re-probe (and verify) in turn.
  void PurgeStale() {
    TracePhase("maint.purge", root_);
    StartDetach();
  }

  void BroadcastRootChanged() {
    for (int child : children_) {
      w::RootChanged m;
      m.root = root_;
      m.feature = stored_root_;
      Send(child, m);
    }
  }

  MaintContext* ctx_;

  Feature feature_;
  Feature verified_;
  Feature stored_root_;
  Feature announced_;  // Root only.
  int root_ = -1;
  int parent_ = -1;
  std::vector<int> children_;

  bool probing_ = false;
  bool reattach_mode_ = false;
  int old_root_ = -1;
  int probe_index_ = 0;
  // Neighbor whose ProbeReply we are waiting on (-1 when not probing);
  // replies from anyone else are stale scans and ignored.
  int pending_probe_target_ = -1;
  // A neighbor answered "unsettled" during the current scan (mutual-probe
  // race); drives the churn-mode merge retry after a promotion.  The budget
  // bounds consecutive retries between churn events so dense neighborhoods
  // of unmergeable singletons cannot rescan each other forever.
  bool unsettled_seen_ = false;
  static constexpr int kMaxMergeRetries = 4;
  int merge_retries_left_ = kMaxMergeRetries;
  // Root-custody verification (churn only): sequence of the walk we are
  // waiting on (-1 when none) and the absolute time after which silence
  // means the chain is dead.
  long long verify_seq_ = 0;
  long long verify_waiting_seq_ = -1;
  double verify_deadline_ = 0.0;
  long long epoch_ = 0;          // Restart count of this node.
  long long cluster_epoch_ = 0;  // Meaningful while this node is a root.
};

}  // namespace

struct DistributedMaintenance::Impl {
  MaintContext ctx;
  std::unique_ptr<proto::RunHarness> harness;
  int n = 0;

  Network& net() { return harness->net(); }
};

DistributedMaintenance::DistributedMaintenance(
    const Topology& topology, const Clustering& clustering,
    const std::vector<Feature>& features,
    std::shared_ptr<const DistanceMetric> metric,
    const MaintenanceConfig& config, bool synchronous, uint64_t seed,
    const FaultPlan& fault, const ChurnPlan& churn)
    : impl_(std::make_unique<Impl>()) {
  impl_->ctx.metric = metric.get();
  metric_keepalive_ = std::move(metric);
  impl_->ctx.config = config;
  impl_->ctx.dim = features.empty() ? 1 : static_cast<int>(features[0].size());
  impl_->ctx.churn_aware = churn.enabled();
  impl_->n = topology.num_nodes();

  proto::RunHarness::Options hopt;
  hopt.net.synchronous = synchronous;
  hopt.net.seed = seed;
  hopt.net.fault = fault;
  hopt.net.churn = churn;
  impl_->harness = std::make_unique<proto::RunHarness>(topology, hopt);
  impl_->harness->InstallNodes(
      [&](int) { return std::make_unique<MaintNode>(&impl_->ctx); });

  const std::vector<int> tree =
      BuildClusterTrees(clustering, topology.adjacency);
  std::vector<std::vector<int>> children(impl_->n);
  for (int i = 0; i < impl_->n; ++i) {
    if (tree[i] != i) children[tree[i]].push_back(i);
  }
  for (int i = 0; i < impl_->n; ++i) {
    auto* node = static_cast<MaintNode*>(impl_->net().node(i));
    node->Deploy(features[i], clustering.root_of[i], tree[i],
                 std::move(children[i]));
    node->SetStoredRoot(features[clustering.root_of[i]]);
    if (clustering.root_of[i] == i) node->SetAnnounced(features[i]);
  }
}

DistributedMaintenance::~DistributedMaintenance() = default;

Status DistributedMaintenance::ApplyUpdate(int node, const Feature& updated) {
  static_cast<MaintNode*>(impl_->net().node(node))->LocalUpdate(updated);
  return RunToQuiescence();
}

void DistributedMaintenance::ScheduleUpdate(double at, int node,
                                            const Feature& updated) {
  Network& net = impl_->net();
  ELINK_CHECK(at >= net.Now());
  net.ScheduleAfter(at - net.Now(), [&net, node, updated]() {
    // An absent sensor observes nothing; the update evaporates.
    if (!net.IsPresent(node)) return;
    static_cast<MaintNode*>(net.node(node))->LocalUpdate(updated);
  });
}

Status DistributedMaintenance::RunToQuiescence(uint64_t max_events) {
  if (impl_->harness->Run(max_events).hit_event_cap) {
    return Status::Internal(
        "maintenance hit the event cap: protocol runaway or livelock");
  }
  return Status::OK();
}

Clustering DistributedMaintenance::CurrentClustering() const {
  Clustering c;
  c.root_of.resize(impl_->n);
  for (int i = 0; i < impl_->n; ++i) {
    c.root_of[i] =
        static_cast<const MaintNode*>(impl_->net().node(i))->root();
  }
  return c;
}

std::vector<Feature> DistributedMaintenance::CurrentFeatures() const {
  std::vector<Feature> out(impl_->n);
  for (int i = 0; i < impl_->n; ++i) {
    out[i] = static_cast<const MaintNode*>(impl_->net().node(i))->feature();
  }
  return out;
}

bool DistributedMaintenance::NodeLive(int node) const {
  return impl_->net().IsPresent(node);
}

std::vector<char> DistributedMaintenance::LiveMask() const {
  std::vector<char> mask(impl_->n, 0);
  for (int i = 0; i < impl_->n; ++i) {
    mask[i] = impl_->net().IsPresent(i) ? 1 : 0;
  }
  return mask;
}

std::vector<std::vector<int>> DistributedMaintenance::LiveAdjacency() const {
  std::vector<std::vector<int>> adj(impl_->n);
  for (int i = 0; i < impl_->n; ++i) {
    adj[i] = impl_->net().neighbors(i);
  }
  return adj;
}

long long DistributedMaintenance::node_epoch(int node) const {
  return static_cast<const MaintNode*>(impl_->net().node(node))->epoch();
}

long long DistributedMaintenance::cluster_epoch(int node) const {
  const auto* n = static_cast<const MaintNode*>(impl_->net().node(node));
  return static_cast<const MaintNode*>(impl_->net().node(n->root()))
      ->cluster_epoch();
}

uint64_t DistributedMaintenance::churn_drops() const {
  return impl_->net().churn_drops();
}

const MessageStats& DistributedMaintenance::stats() const {
  return impl_->net().stats();
}

void DistributedMaintenance::set_observer(SimObserver* observer) {
  impl_->harness->set_observer(observer);
}

void DistributedMaintenance::set_epoch_hook(
    std::function<void(int, long long)> hook) {
  impl_->ctx.epoch_hook = std::move(hook);
}

Status DistributedMaintenance::ValidateRootDistanceInvariant(
    double bound) const {
  for (int i = 0; i < impl_->n; ++i) {
    if (!impl_->net().IsPresent(i)) continue;
    const auto* node = static_cast<const MaintNode*>(impl_->net().node(i));
    if (!impl_->net().IsPresent(node->root())) {
      return Status::FailedPrecondition(
          StringPrintf("present node %d points at absent root %d", i,
                       node->root()));
    }
    const auto* root =
        static_cast<const MaintNode*>(impl_->net().node(node->root()));
    const double d =
        impl_->ctx.metric->Distance(node->feature(), root->feature());
    if (d > bound + 1e-9) {
      return Status::FailedPrecondition(
          StringPrintf("node %d is %.6f from its root's feature (> %.6f)", i,
                       d, bound));
    }
  }
  return Status::OK();
}

}  // namespace elink
