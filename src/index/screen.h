// The pruning screens of Sections 7.2 and 7.3 and their one tolerance.  Each
// compares a feature distance d with a ball of radius R (a root ball, an
// M-tree covering radius or a backbone subtree's upper-level radius) and
// settles every member of the ball when it can.  Both query engines and both
// query protocols decide through these predicates.
//
// The two path screens disagree on a band of width 2·kEps (the own-cluster
// one is strict on both sides); each keeps its historical expression, so
// they stay two.
#ifndef ELINK_INDEX_SCREEN_H_
#define ELINK_INDEX_SCREEN_H_

#include <cmath>

namespace elink::screen {

/// Slack on every comparison: a distance equal to a bound up to rounding
/// counts as a match (range) or as safe (path).
inline constexpr double kEps = 1e-12;

/// Range query (q, r), d = d(q, center): no member / every member of the
/// ball is within r.  A cluster's root ball and a backbone child's subtree.
inline bool BallOutOfRange(double d, double r, double radius) {
  return d > r + radius + kEps;
}
inline bool BallInRange(double d, double r, double radius) {
  return d <= r - radius + kEps;
}

/// The same for an M-tree child seen from its parent: d(q, child) lies in
/// [|d_node - d_link|, d_node + d_link], d_node = d(q, parent) and
/// d_link = d(parent, child).
inline bool ChildOutOfRange(double d_node, double d_link, double r,
                            double radius) {
  return std::fabs(d_node - d_link) > r + radius + kEps;
}
inline bool ChildInRange(double d_node, double d_link, double r,
                         double radius) {
  return d_node + d_link <= r - radius + kEps;
}

/// One node matches the range query.
inline bool InRange(double d, double r) { return d <= r + kEps; }

/// Path query (danger, gamma), d = d(center, danger): a visited leader's own
/// cluster, screened with its root ball, is all safe / all unsafe.
inline bool ClusterSafe(double d, double gamma, double radius) {
  return d > gamma + radius + kEps;
}
inline bool ClusterUnsafe(double d, double gamma, double radius) {
  return d < gamma - radius - kEps;
}

/// The same for a backbone child's subtree, an M-tree drill step and the
/// source root's suppression test.
inline bool SubtreeSafe(double d, double gamma, double radius) {
  return d - radius >= gamma - kEps;
}
inline bool SubtreeUnsafe(double d, double gamma, double radius) {
  return d + radius < gamma - kEps;
}

/// One node is at least gamma from the danger.
inline bool Safe(double d, double gamma) { return d >= gamma - kEps; }

}  // namespace elink::screen

#endif  // ELINK_INDEX_SCREEN_H_
