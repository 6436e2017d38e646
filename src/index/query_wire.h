// Wire schemas of the distributed range-query protocol (proto/codec.h).
//
// Layouts match the original hand-rolled encoders bit for bit.  Routed
// messages carry the logical sender in their first int (the sim delivers
// routed frames with `from` = last relay hop); deadline budgets ride as
// optional trailing ints, fixed-point encoded by the protocol.
#ifndef ELINK_INDEX_QUERY_WIRE_H_
#define ELINK_INDEX_QUERY_WIRE_H_

#include <optional>
#include <vector>

namespace elink {
namespace query_wire {

/// Initiator -> cluster root, hop by hop over the cluster tree.
/// Payload = query feature + radius.
struct Up {
  static constexpr int kType = 1;
  static constexpr const char* kCategory = "query_route";
  std::vector<double> payload;
  template <class V>
  void VisitFields(V& v) {
    v.Block(payload);
  }
  bool operator==(const Up&) const = default;
};

/// Leader -> backbone root, up the leader chain.  Payload present only for
/// multi-unit queries (non-empty feature).
struct ToBackboneRoot {
  static constexpr int kType = 2;
  static constexpr const char* kCategory = "query_route";
  long long sender = 0;
  std::vector<double> payload;
  template <class V>
  void VisitFields(V& v) {
    v.I64(sender);
    v.Block(payload);
  }
  bool operator==(const ToBackboneRoot&) const = default;
};

/// Backbone parent -> child: process your subtree.  `budget` is the child's
/// fixed-point flush deadline (always sent; meaningful when deadlines are
/// configured).
struct Visit {
  static constexpr int kType = 3;
  static constexpr const char* kCategory = "query_backbone";
  long long sender = 0;
  std::optional<long long> budget;
  std::vector<double> payload;
  template <class V>
  void VisitFields(V& v) {
    v.I64(sender);
    v.OptI64(budget);
    v.Block(payload);
  }
  bool operator==(const Visit&) const = default;
};

/// Whole backbone subtree matches: report the cached population.
struct BackboneInclude {
  static constexpr int kType = 4;
  static constexpr const char* kCategory = "query_backbone";
  long long sender = 0;
  std::vector<double> payload;
  template <class V>
  void VisitFields(V& v) {
    v.I64(sender);
    v.Block(payload);
  }
  bool operator==(const BackboneInclude&) const = default;
};

/// Aggregated count back to the backbone parent.
struct BackboneReply {
  static constexpr int kType = 5;
  static constexpr const char* kCategory = "query_collect";
  long long count = 0;
  long long incomplete = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(count);
    v.I64(incomplete);
  }
  bool operator==(const BackboneReply&) const = default;
};

/// M-tree descent into a cluster-tree child.  `budget` rides only when node
/// deadlines are configured.
struct Descend {
  static constexpr int kType = 6;
  static constexpr const char* kCategory = "query_descend";
  std::optional<long long> budget;
  std::vector<double> payload;
  template <class V>
  void VisitFields(V& v) {
    v.OptI64(budget);
    v.Block(payload);
  }
  bool operator==(const Descend&) const = default;
};

/// Whole M-tree subtree matches: report the cached population.
struct DescendInclude {
  static constexpr int kType = 7;
  static constexpr const char* kCategory = "query_descend";
  std::vector<double> payload;
  template <class V>
  void VisitFields(V& v) {
    v.Block(payload);
  }
  bool operator==(const DescendInclude&) const = default;
};

/// Aggregated count back to the descent parent.
struct DescendReply {
  static constexpr int kType = 8;
  static constexpr const char* kCategory = "query_collect";
  long long count = 0;
  long long incomplete = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(count);
    v.I64(incomplete);
  }
  bool operator==(const DescendReply&) const = default;
};

/// Backbone root -> initiator root -> initiator.
struct Answer {
  static constexpr int kType = 9;
  static constexpr const char* kCategory = "query_collect";
  long long count = 0;
  long long incomplete = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(count);
    v.I64(incomplete);
  }
  bool operator==(const Answer&) const = default;
};

/// Applies `fn` to a default instance of every schema in this family — the
/// generic enumeration the wire-format tests round-trip all schemas through.
template <class F>
void ForEachSchema(F&& fn) {
  fn(Up{});
  fn(ToBackboneRoot{});
  fn(Visit{});
  fn(BackboneInclude{});
  fn(BackboneReply{});
  fn(Descend{});
  fn(DescendInclude{});
  fn(DescendReply{});
  fn(Answer{});
}

}  // namespace query_wire
}  // namespace elink

#endif  // ELINK_INDEX_QUERY_WIRE_H_
