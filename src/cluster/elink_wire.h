// Wire schemas of the ELink clustering protocol (proto/codec.h).
//
// Field order is wire order and matches the original hand-rolled encoding
// exactly, so ports stay bit-identical: an Expand carries
// ints = {root, level} and doubles = root feature.
#ifndef ELINK_CLUSTER_ELINK_WIRE_H_
#define ELINK_CLUSTER_ELINK_WIRE_H_

#include <vector>

namespace elink {
namespace elink_wire {

/// Cluster expansion offer: join root `root`'s cluster at level `level`.
struct Expand {
  static constexpr int kType = 1;
  static constexpr const char* kCategory = "expand";
  long long root = 0;
  long long level = 0;
  std::vector<double> feature;  // The offered root's feature vector.
  template <class V>
  void VisitFields(V& v) {
    v.I64(root);
    v.I64(level);
    v.Block(feature);
  }
  bool operator==(const Expand&) const = default;
};

/// Join notification to the new cluster-tree parent.
struct Ack1 {
  static constexpr int kType = 2;
  static constexpr const char* kCategory = "ack1";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Ack1&) const = default;
};

/// Decline response to an expand.
struct Nack {
  static constexpr int kType = 3;
  static constexpr const char* kCategory = "nack";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Nack&) const = default;
};

/// Subtree expansion complete.
struct Ack2 {
  static constexpr int kType = 4;
  static constexpr const char* kCategory = "ack2";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Ack2&) const = default;
};

/// Round-completion report travelling up the quadtree.
struct Phase1 {
  static constexpr int kType = 5;
  static constexpr const char* kCategory = "phase1";
  long long round = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(round);
  }
  bool operator==(const Phase1&) const = default;
};

/// Next-round go-ahead travelling down the quadtree.
struct Phase2 {
  static constexpr int kType = 6;
  static constexpr const char* kCategory = "phase2";
  long long round = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(round);
  }
  bool operator==(const Phase2&) const = default;
};

/// Instructs a sentinel to invoke ELink.
struct Start {
  static constexpr int kType = 7;
  static constexpr const char* kCategory = "start";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const Start&) const = default;
};

/// Applies `fn` to a default instance of every schema in this family — the
/// generic enumeration the wire-format tests round-trip all schemas through.
template <class F>
void ForEachSchema(F&& fn) {
  fn(Expand{});
  fn(Ack1{});
  fn(Nack{});
  fn(Ack2{});
  fn(Phase1{});
  fn(Phase2{});
  fn(Start{});
}

}  // namespace elink_wire
}  // namespace elink

#endif  // ELINK_CLUSTER_ELINK_WIRE_H_
