// Wire schemas of the distributed path-query protocol (proto/codec.h).
//
// Classification traffic mirrors the PathQueryEngine's cost model message
// for message: route/visit/drill frames carry the danger feature plus gamma
// (dim + 1 cost units); completion acks ride in the separate "path_collect"
// category so the engine-comparable categories stay aligned.
#ifndef ELINK_INDEX_PATH_WIRE_H_
#define ELINK_INDEX_PATH_WIRE_H_

#include <vector>

namespace elink {
namespace path_wire {

/// Source -> its cluster root, hop by hop over the cluster tree.
struct PathUp {
  static constexpr int kType = 1;
  static constexpr const char* kCategory = "path_route";
  std::vector<double> danger;
  double gamma = 0.0;
  template <class V>
  void VisitFields(V& v) {
    v.Block(danger);
    v.F64(gamma);
  }
  bool operator==(const PathUp&) const = default;
};

/// Leader -> backbone root, up the leader chain (routed).
struct PathRoute {
  static constexpr int kType = 2;
  static constexpr const char* kCategory = "path_route";
  std::vector<double> danger;
  double gamma = 0.0;
  template <class V>
  void VisitFields(V& v) {
    v.Block(danger);
    v.F64(gamma);
  }
  bool operator==(const PathRoute&) const = default;
};

/// Backbone parent -> inconclusive child: classify your backbone subtree.
struct PathVisit {
  static constexpr int kType = 3;
  static constexpr const char* kCategory = "path_backbone";
  long long sender = 0;  // Logical sender (routed `from` is just the relay).
  std::vector<double> danger;
  double gamma = 0.0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(sender);
    v.Block(danger);
    v.F64(gamma);
  }
  bool operator==(const PathVisit&) const = default;
};

/// M-tree parent -> child: classify your M-tree subtree.
struct PathDrill {
  static constexpr int kType = 4;
  static constexpr const char* kCategory = "path_drilldown";
  std::vector<double> danger;
  double gamma = 0.0;
  template <class V>
  void VisitFields(V& v) {
    v.Block(danger);
    v.F64(gamma);
  }
  bool operator==(const PathDrill&) const = default;
};

/// M-tree subtree classification finished (single hop to the drill parent).
struct PathDrillDone {
  static constexpr int kType = 5;
  static constexpr const char* kCategory = "path_collect";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const PathDrillDone&) const = default;
};

/// Backbone subtree classification finished (routed to the visit parent).
struct PathVisitDone {
  static constexpr int kType = 6;
  static constexpr const char* kCategory = "path_collect";
  template <class V>
  void VisitFields(V&) {}
  bool operator==(const PathVisitDone&) const = default;
};

/// Applies `fn` to a default instance of every schema in this family — the
/// generic enumeration the wire-format tests round-trip all schemas through.
template <class F>
void ForEachSchema(F&& fn) {
  fn(PathUp{});
  fn(PathRoute{});
  fn(PathVisit{});
  fn(PathDrill{});
  fn(PathDrillDone{});
  fn(PathVisitDone{});
}

}  // namespace path_wire
}  // namespace elink

#endif  // ELINK_INDEX_PATH_WIRE_H_
