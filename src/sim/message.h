// Messages exchanged between simulated sensor nodes.
#ifndef ELINK_SIM_MESSAGE_H_
#define ELINK_SIM_MESSAGE_H_

#include <vector>

#include "sim/category.h"

namespace elink {

/// \brief A protocol message.
///
/// `type` dispatches inside a protocol's message handler; `category` labels
/// the message for cost accounting (MessageStats) so experiments can break
/// down communication by expand/ack/phase/query/... as Section 8.2 does.
/// It is an interned id (sim/category.h) and never goes on the wire.
/// `doubles` carries feature coefficients or data values; `ints` carries ids
/// and levels.
struct Message {
  int type = 0;
  CategoryId category = 0;
  std::vector<double> doubles;
  std::vector<long long> ints;

  // Reliable-transport envelope (sim/reliable.h).  rel_seq < 0 marks a plain
  // unacknowledged message; the fields ride along for free (paper Section 8.2
  // charges only data payload).
  long long rel_seq = -1;  // Sender-local sequence number.
  int rel_from = -1;       // Logical originator (routed acks go back here).
  bool rel_ack = false;    // True for the transport-level acknowledgment.

  /// Number of "paper messages" one hop of this message costs.  The paper
  /// charges one message per coefficient or data value (Section 8.2); id and
  /// level fields ride along for free.  Control messages with no payload
  /// still cost one message.
  int CostUnits() const {
    return doubles.empty() ? 1 : static_cast<int>(doubles.size());
  }
};

}  // namespace elink

#endif  // ELINK_SIM_MESSAGE_H_
