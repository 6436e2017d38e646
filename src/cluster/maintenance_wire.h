// Wire schemas of the distributed maintenance protocol (proto/codec.h).
// Layouts match the original hand-rolled encoders bit for bit.
#ifndef ELINK_CLUSTER_MAINTENANCE_WIRE_H_
#define ELINK_CLUSTER_MAINTENANCE_WIRE_H_

#include <vector>

namespace elink {
namespace maint_wire {

/// Escalation request towards the root.
struct FetchUp {
  static constexpr int kType = 1;
  static constexpr const char* kCategory = "update_escalate";
  long long origin = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(origin);
  }
  bool operator==(const FetchUp&) const = default;
};

/// Root's live feature back to the origin.
struct RootFeature {
  static constexpr int kType = 2;
  static constexpr const char* kCategory = "update_escalate";
  std::vector<double> feature;
  template <class V>
  void VisitFields(V& v) {
    v.Block(feature);
  }
  bool operator==(const RootFeature&) const = default;
};

/// Root pushes its new feature down the tree.
struct Push {
  static constexpr int kType = 3;
  static constexpr const char* kCategory = "update_root_push";
  std::vector<double> feature;
  template <class V>
  void VisitFields(V& v) {
    v.Block(feature);
  }
  bool operator==(const Push&) const = default;
};

/// Detached/orphaned node asks a neighbor for its root.
struct Probe {
  static constexpr int kType = 4;
  static constexpr const char* kCategory = "update_merge_probe";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Probe&) const = default;
};

/// Neighbor's answer: its root id, whether it is settled (not itself
/// probing), and its stored root feature.
struct ProbeReply {
  static constexpr int kType = 5;
  static constexpr const char* kCategory = "update_merge_probe";
  long long root = 0;
  long long settled = 0;
  std::vector<double> stored_root;
  template <class V>
  void VisitFields(V& v) {
    v.I64(root);
    v.I64(settled);
    v.Block(stored_root);
  }
  bool operator==(const ProbeReply&) const = default;
};

/// Child tells its tree parent it departed.
struct Leave {
  static constexpr int kType = 6;
  static constexpr const char* kCategory = "update_repair";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Leave&) const = default;
};

/// New child announces itself to its adopted parent.
struct Attach {
  static constexpr int kType = 7;
  static constexpr const char* kCategory = "update_repair";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Attach&) const = default;
};

/// Parent departed: the child must re-attach.
struct Orphan {
  static constexpr int kType = 8;
  static constexpr const char* kCategory = "update_repair";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Orphan&) const = default;
};

/// New root id + feature propagating down a subtree.
struct RootChanged {
  static constexpr int kType = 9;
  static constexpr const char* kCategory = "update_repair";
  long long root = 0;
  std::vector<double> feature;
  template <class V>
  void VisitFields(V& v) {
    v.I64(root);
    v.Block(feature);
  }
  bool operator==(const RootChanged&) const = default;
};

/// Root-custody verification, sent by a freshly adopted node up the parent
/// chain (churn-aware sessions only).  Reaching a live root proves the
/// adoption joined a real tree; the root bumps its cluster epoch (the
/// observable re-clustering) and acks with its current feature.  A chain
/// that cycles (ttl exhausted), dead-ends, or reaches a different root
/// exposes a stale claim resurrected across a crash, and the origin
/// dissolves its branch.
struct EpochReport {
  static constexpr int kType = 10;
  static constexpr const char* kCategory = "update_repair";
  long long root = 0;    // The root the origin believes it attached under.
  long long origin = 0;  // Node awaiting the verdict.
  long long seq = 0;     // Origin-local sequence; stale walks are ignored.
  long long ttl = 0;     // Hop budget; 0 at a non-root means a cycle.
  template <class V>
  void VisitFields(V& v) {
    v.I64(root);
    v.I64(origin);
    v.I64(seq);
    v.I64(ttl);
  }
  bool operator==(const EpochReport&) const = default;
};

/// The root an EpochReport walk actually reached, routed back to the
/// origin with the root's live feature.
struct VerifyAck {
  static constexpr int kType = 11;
  static constexpr const char* kCategory = "update_repair";
  long long root = 0;
  long long seq = 0;
  std::vector<double> feature;
  template <class V>
  void VisitFields(V& v) {
    v.I64(root);
    v.I64(seq);
    v.Block(feature);
  }
  bool operator==(const VerifyAck&) const = default;
};

/// An EpochReport walk ran out of ttl before reaching any root: the
/// origin's custody chain is a cycle of stale believers.
struct VerifyGone {
  static constexpr int kType = 12;
  static constexpr const char* kCategory = "update_repair";
  long long seq = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(seq);
  }
  bool operator==(const VerifyGone&) const = default;
};

/// Applies `fn` to a default instance of every schema in this family — the
/// generic enumeration the wire-format tests round-trip all schemas through.
template <class F>
void ForEachSchema(F&& fn) {
  fn(FetchUp{});
  fn(RootFeature{});
  fn(Push{});
  fn(Probe{});
  fn(ProbeReply{});
  fn(Leave{});
  fn(Attach{});
  fn(Orphan{});
  fn(RootChanged{});
  fn(EpochReport{});
  fn(VerifyAck{});
  fn(VerifyGone{});
}

}  // namespace maint_wire
}  // namespace elink

#endif  // ELINK_CLUSTER_MAINTENANCE_WIRE_H_
