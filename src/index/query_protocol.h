// A fully distributed, message-passing execution of the Section-7.2 range
// query, run inside the discrete-event simulator.
//
// RangeQueryEngine (range_query.h) computes results centrally and *accounts*
// the messages a distributed execution would need.  This module is the
// distributed execution itself: every routing decision is made by a node
// from its locally held state — its cluster-tree links, its M-tree child
// summaries, and (at leaders) its backbone children's feature/radius
// summaries — and the answer aggregates back hop by hop.  Tests verify that
// the protocol's result (match count) equals the linear scan and that its
// transmitted units agree with the engine's cost model.
//
// Query semantics are aggregate (TAG-style): the initiator learns the number
// of matching nodes.  An id-returning variant would only change the size of
// the reply payloads.
#ifndef ELINK_INDEX_QUERY_PROTOCOL_H_
#define ELINK_INDEX_QUERY_PROTOCOL_H_

#include <memory>
#include <vector>

#include "cluster/clustering.h"
#include "common/status.h"
#include "index/backbone.h"
#include "index/mtree.h"
#include "metric/distance.h"
#include "sim/network.h"
#include "sim/reliable.h"

namespace elink {

/// Outcome of one distributed range query.
struct DistributedQueryOutcome {
  /// Number of nodes whose features match (within r of q).  A lower bound
  /// when `complete` is false.
  long long match_count = 0;
  /// Simulated time from injection to the initiator holding the answer.
  double latency = 0.0;
  /// All transmissions of the run (categories query_route, query_backbone,
  /// query_descend, query_collect).
  MessageStats stats;
  /// True when every probed subtree contributed before its deadline; false
  /// when the answer is partial (replies lost, subtree leaders crashed).
  bool complete = true;
  /// Subtrees (backbone children or M-tree descents) whose replies never
  /// arrived and were written off at an aggregation deadline.
  long long unreachable_subtrees = 0;
  /// False when not even a partial answer reached the initiator (e.g. the
  /// backbone root or the initiator's own cluster root is dead);
  /// match_count and latency are then meaningless.
  bool answer_received = true;
};

/// \brief Executes range queries as an actual protocol over a Network.
///
/// Each Run() builds a fresh Network, installs the protocol nodes, injects a
/// query at an initiator and simulates until the answer returns.  The first
/// Run distributes the index state to the nodes (each node holds only what
/// Section 7 says it holds) and the object keeps those slices for every
/// later Run.  The object also owns one walked-path table and lends it to
/// every Run's Network (Network::Config::shared_paths), so a leader-to-
/// leader pair is routed by BFS once per object, not once per query; a run
/// under churn keeps a private table instead.  Neither is observable: each
/// Run's outcome, latency and ledger equal a fresh object's.  The inputs
/// must not change while the object lives.
class DistributedRangeQuery {
 public:
  /// Execution environment of the queries: delay regime, faults, deadlines.
  struct ProtocolOptions {
    bool synchronous = true;
    uint64_t seed = 1;
    /// Fault model applied to every Run (sim/fault.h).  Inert by default.
    FaultPlan fault;
    /// Topology dynamics applied to every Run (sim/churn.h): nodes joining,
    /// leaving, crashing-with-repair, links appearing or vanishing.  Inert
    /// by default.  A query racing churn degrades like one racing faults
    /// (partial or absent answers), never miscounts.
    ChurnPlan churn;
    /// When > 0, every aggregation point (leader or M-tree descent node)
    /// flushes a *partial* reply after waiting this long for its children,
    /// counting the missing subtrees as unreachable.  Pick a value larger
    /// than a couple of network traversals.  0 keeps the fault-free
    /// wait-for-everything behavior.
    double node_deadline = 0.0;
    /// When > 0, Run gives up entirely at this simulated time if no answer
    /// (not even a partial one) reached the initiator.  0 disables.
    double query_deadline = 0.0;
    /// Carry every protocol message over ReliableChannel (ack + retransmit
    /// with bounded retries; see sim/reliable.h).  Lets queries survive
    /// probabilistic loss; messages routed through *crashed* relays still
    /// give up and are written off at the deadlines.
    bool reliable_transport = false;
    /// Retransmission tuning when reliable_transport is set.  rto should
    /// exceed a round trip of the longest routed leg.
    ReliableChannel::Config reliable;
    /// Read-only observer (telemetry/tracer) bound to every Run's network.
    /// Not owned; attaching never changes the query's outcome.
    SimObserver* observer = nullptr;
  };

  /// `clustering`, `index`, and `backbone` describe the clustered network;
  /// the first Run hands every protocol node its slice of them.  All inputs
  /// must outlive the object.
  DistributedRangeQuery(const Topology& topology,
                        const Clustering& clustering,
                        const ClusterIndex& index, const Backbone& backbone,
                        const std::vector<Feature>& features,
                        std::shared_ptr<const DistanceMetric> metric,
                        ProtocolOptions options);
  ~DistributedRangeQuery();

  /// Runs one query to completion.  Under fault injection with deadlines
  /// configured the outcome may be flagged partial (`complete == false`)
  /// instead of an error; returns Internal only for genuine protocol bugs
  /// (non-termination without a fault plan, event-cap runaway), and
  /// InvalidArgument for an initiator out of range, a negative or NaN
  /// radius, or a query feature whose length is not the deployment's
  /// feature dimension or that has a NaN or infinite component.
  Result<DistributedQueryOutcome> Run(int initiator, const Feature& q,
                                      double r);

  /// One node's slice of the index state; defined and used only inside
  /// query_protocol.cc.
  struct NodeState;

 private:
  const Topology& topology_;
  const Clustering& clustering_;
  const ClusterIndex& index_;
  const Backbone& backbone_;
  const std::vector<Feature>& features_;
  std::shared_ptr<const DistanceMetric> metric_;
  ProtocolOptions options_;
  // Upper-level summaries (leaders would learn these during backbone
  // construction).
  UpperIndex upper_;
  // Every node's slice, built by the first Run.
  std::vector<NodeState> states_;
  // Lent to every Run's Network.
  WalkedPathTable paths_;
};

}  // namespace elink

#endif  // ELINK_INDEX_QUERY_PROTOCOL_H_
