#include "cluster/maintenance.h"

#include <deque>
#include <map>

#include "cluster/maintenance_wire.h"
#include "common/strings.h"
#include "proto/codec.h"
#include "proto/wire.h"

namespace elink {

namespace {

/// Real bytes-on-wire of one logical hop: the version-1 frame of the exact
/// maint_wire schema the distributed protocol (maintenance_protocol.cc)
/// would transmit, so the engine cost model's byte column matches the air.
template <typename M>
uint64_t HopBytes(const M& m) {
  return wire::FrameSize(proto::Encode(m));
}

}  // namespace

MaintenanceSession::MaintenanceSession(
    const Topology& topology, const Clustering& clustering,
    std::vector<Feature> features,
    std::shared_ptr<const DistanceMetric> metric,
    const MaintenanceConfig& config)
    : topology_(topology),
      clustering_(clustering),
      metric_(std::move(metric)),
      config_(config),
      current_(features),
      verified_(features),
      stored_root_(topology.num_nodes()),
      announced_(std::move(features)) {
  ELINK_CHECK(config_.delta >= 0.0);
  ELINK_CHECK(config_.slack >= 0.0);
  ELINK_CHECK(config_.slack <= config_.delta / 2.0 + 1e-12);
  // Every member starts with its root's feature as the stored copy; the
  // announced feature of a root is its own feature at clustering time.
  for (int i = 0; i < topology_.num_nodes(); ++i) {
    stored_root_[i] = current_[clustering_.root_of[i]];
  }
}

int MaintenanceSession::TreeHopsToRoot(int node) const {
  const int root = clustering_.root_of[node];
  if (node == root) return 0;
  // BFS within the cluster's induced subgraph from the root.
  std::vector<int> dist(topology_.num_nodes(), -1);
  std::deque<int> queue{root};
  dist[root] = 0;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    if (u == node) break;
    for (int v : topology_.adjacency[u]) {
      if (dist[v] < 0 && clustering_.root_of[v] == root) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  ELINK_CHECK(dist[node] > 0);  // Clusters stay connected (repair pass).
  return dist[node];
}

void MaintenanceSession::UpdateFeature(int node, const Feature& updated) {
  const int dim = static_cast<int>(updated.size());
  current_[node] = updated;

  if (clustering_.root_of[node] == node) {
    HandleRootUpdate(node);
    return;
  }

  const Feature& f_old = verified_[node];
  const Feature& f_root = stored_root_[node];
  const double d_new_root = metric_->Distance(updated, f_root);
  const bool a1 = metric_->Distance(f_old, updated) <= config_.slack + 1e-12;
  const bool a2 = d_new_root - metric_->Distance(f_old, f_root) <=
                  config_.slack + 1e-12;
  const bool a3 = d_new_root <= config_.delta - config_.slack + 1e-12;
  if (a1 || a2 || a3) {
    ++silent_updates_;
    return;
  }

  // All three violated: fetch the live root feature over the cluster tree
  // (request up, feature down) and re-evaluate.
  const int root = clustering_.root_of[node];
  const int hops = TreeHopsToRoot(node);
  const Feature live_root = current_[root];
  maint_wire::FetchUp request;
  request.origin = node;
  maint_wire::RootFeature reply;
  reply.feature = live_root;
  for (int h = 0; h < hops; ++h) {
    stats_.Record(CategoryIdOf<"update_escalate">(), 1, HopBytes(request));
  }
  for (int h = 0; h < hops; ++h) {
    stats_.Record(CategoryIdOf<"update_escalate">(), dim, HopBytes(reply));
  }
  stored_root_[node] = live_root;
  if (metric_->Distance(updated, live_root) <= config_.delta + 1e-12) {
    verified_[node] = updated;
    return;
  }
  DetachAndRelocate(node);
}

void MaintenanceSession::HandleRootUpdate(int root) {
  const Feature& updated = current_[root];
  if (metric_->Distance(announced_[root], updated) <= config_.slack + 1e-12) {
    ++silent_updates_;
    return;
  }
  // Push the new root feature down the cluster tree: one transmission per
  // tree edge (members - 1), each carrying the feature coefficients.
  announced_[root] = updated;
  verified_[root] = updated;
  stored_root_[root] = updated;
  const int dim = static_cast<int>(updated.size());
  std::vector<int> members;
  for (int i = 0; i < topology_.num_nodes(); ++i) {
    if (clustering_.root_of[i] == root && i != root) members.push_back(i);
  }
  maint_wire::Push push;
  push.feature = updated;
  for (size_t e = 0; e < members.size(); ++e) {
    stats_.Record(CategoryIdOf<"update_root_push">(), dim, HopBytes(push));
  }
  // Members refresh their copy and re-evaluate membership.
  std::vector<int> leavers;
  for (int m : members) {
    stored_root_[m] = updated;
    if (metric_->Distance(current_[m], updated) > config_.delta + 1e-12) {
      leavers.push_back(m);
    }
  }
  for (int m : leavers) DetachAndRelocate(m);
}

void MaintenanceSession::DetachAndRelocate(int node) {
  ++detaches_;
  const int old_root = clustering_.root_of[node];
  clustering_.root_of[node] = node;

  // Probe neighbors' clusters: request + root-feature reply per probe.
  const int dim = static_cast<int>(current_[node].size());
  bool merged = false;
  for (int nb : topology_.adjacency[node]) {
    if (clustering_.root_of[nb] == node) continue;
    maint_wire::ProbeReply probe_reply;
    probe_reply.root = clustering_.root_of[nb];
    probe_reply.settled = 1;
    probe_reply.stored_root = stored_root_[nb];
    stats_.Record(CategoryIdOf<"update_merge_probe">(),
                  1, HopBytes(maint_wire::Probe{}));
    stats_.Record(CategoryIdOf<"update_merge_probe">(),
                  dim, HopBytes(probe_reply));
    if (metric_->Distance(current_[node], stored_root_[nb]) <=
        config_.merge_fraction * config_.delta + 1e-12) {
      clustering_.root_of[node] = clustering_.root_of[nb];
      stored_root_[node] = stored_root_[nb];
      verified_[node] = current_[node];
      merged = true;
      break;
    }
  }
  if (!merged) {
    // Singleton cluster rooted at the node itself.
    announced_[node] = current_[node];
    stored_root_[node] = current_[node];
    verified_[node] = current_[node];
  }
  if (old_root != node) RepairClusterAround(old_root);
}

void MaintenanceSession::RepairClusterAround(int old_root) {
  // The departure may have disconnected the old cluster; promote a new root
  // in every fragment not containing the old root.  Fragment members learn
  // the promotion over their fragment's tree (one message each).
  const int n = topology_.num_nodes();
  std::vector<char> mask(n, 0);
  bool any = false;
  for (int i = 0; i < n; ++i) {
    if (clustering_.root_of[i] == old_root) {
      mask[i] = 1;
      any = true;
    }
  }
  if (!any) return;
  const std::vector<int> comp = InducedComponents(topology_.adjacency, mask);
  const int root_comp = comp[old_root];
  std::map<int, int> fragment_root;
  for (int i = 0; i < n; ++i) {
    if (!mask[i] || comp[i] == root_comp) continue;
    auto [it, inserted] = fragment_root.emplace(comp[i], i);
    if (!inserted) it->second = std::min(it->second, i);
  }
  for (int i = 0; i < n; ++i) {
    if (!mask[i] || comp[i] == root_comp) continue;
    const int nr = fragment_root[comp[i]];
    clustering_.root_of[i] = nr;
    maint_wire::RootChanged promote;
    promote.root = nr;
    stats_.Record(CategoryIdOf<"update_repair">(), 1, HopBytes(promote));
  }
  for (const auto& [c, nr] : fragment_root) {
    (void)c;
    announced_[nr] = current_[nr];
    verified_[nr] = current_[nr];
    for (int i = 0; i < n; ++i) {
      if (clustering_.root_of[i] == nr) stored_root_[i] = announced_[nr];
    }
  }
}

Status MaintenanceSession::ValidateRootDistanceInvariant(double bound) const {
  for (int i = 0; i < topology_.num_nodes(); ++i) {
    const int root = clustering_.root_of[i];
    const double d = metric_->Distance(current_[i], current_[root]);
    if (d > bound + 1e-9) {
      return Status::FailedPrecondition(StringPrintf(
          "node %d is %.6f from its root's live feature (> %.6f)", i, d,
          bound));
    }
  }
  return Status::OK();
}

}  // namespace elink
