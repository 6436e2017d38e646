// Communication accounting (paper Section 8.2).
//
// Every single-hop transmission is tallied here, both as a raw send count and
// as "units" (one per coefficient/data value carried, the paper's definition
// of a message), broken down by protocol category.
//
// Hot-path layout: counters live in one flat vector indexed by the interned
// CategoryId (sim/category.h), so a charge is an index, never a hash.  Names
// are looked up only when a ledger is rendered or queried by name, and every
// rendering sorts by name, so no output depends on id order.
// MessageStats is not thread-safe; parallel trial runners keep one ledger
// per worker and Merge them afterwards.
#ifndef ELINK_SIM_STATS_H_
#define ELINK_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/category.h"

namespace elink {

/// \brief Ledger of message costs by category.
class MessageStats {
 public:
  /// Records one single-hop transmission of `units` payload units under
  /// `category`.  `bytes` is the encoded frame length on the air
  /// (wire::FrameSize); callers accounting outside the Network pass 0 —
  /// the byte columns then simply report "never framed".
  void Record(CategoryId category, int units, uint64_t bytes = 0);

  /// Records one transmission of `units` under `category` that was lost to
  /// fault injection (link loss, outage, or a crashed endpoint).  Dropped
  /// sends are tallied separately and never enter the delivered totals.
  void RecordDropped(CategoryId category, int units, uint64_t bytes = 0);

  /// Records one delivered message that the receiving protocol could not
  /// decode (truncated or malformed payload).  Decode failures are a
  /// protocol-level error, tallied separately from sends/units; the message
  /// was already charged at send time.
  void RecordDecodeError(CategoryId category);

  /// Raw transmissions (sends over one hop).
  uint64_t total_sends() const { return total_sends_; }

  /// Paper-style message units (coefficients/data values, >= sends).
  uint64_t total_units() const { return total_units_; }

  /// Real bytes-on-wire of all delivered transmissions (frame encoding of
  /// every charged hop; 0 contributions from out-of-network bookkeeping).
  uint64_t total_bytes() const { return total_bytes_; }

  /// Bytes-on-wire lost to fault injection.
  uint64_t dropped_bytes() const { return dropped_bytes_; }

  /// Units recorded under one category (0 when absent).
  uint64_t units(std::string_view category) const;

  /// Sends recorded under one category (0 when absent).
  uint64_t sends(std::string_view category) const;

  /// Bytes-on-wire recorded under one category (0 when absent).
  uint64_t bytes(std::string_view category) const;

  /// Dropped sends recorded under one category (0 when absent).
  uint64_t dropped_sends(std::string_view category) const;

  /// All categories with deliveries and their unit counts.
  std::map<std::string, uint64_t> units_by_category() const;

  /// Transmissions lost to fault injection (not counted in total_sends()).
  uint64_t dropped_sends() const { return dropped_sends_; }

  /// Units lost to fault injection (not counted in total_units()).
  uint64_t dropped_units() const { return dropped_units_; }

  /// Delivered messages the receiving protocol rejected as undecodable.
  uint64_t decode_errors() const { return decode_errors_; }

  /// Decode errors recorded under one category (0 when absent).
  uint64_t decode_errors(std::string_view category) const;

  /// Dropped units recorded under one category (0 when absent).
  uint64_t dropped(std::string_view category) const;

  /// All categories with losses and their dropped unit counts.
  std::map<std::string, uint64_t> dropped_by_category() const;

  /// Zeroes all counters.
  void Reset();

  /// Adds another ledger into this one.
  void Merge(const MessageStats& other);

  /// One-line rendering "total=... (cat1=..., cat2=...)".  Byte counters are
  /// deliberately not rendered: the determinism goldens pin this string.
  std::string ToString() const;

  /// Full per-category counter dump, sorted by category name — the
  /// serialization/reporting view (snapshot sections, bench byte columns).
  struct CategorySnapshot {
    std::string category;
    uint64_t units = 0;
    uint64_t sends = 0;
    uint64_t bytes = 0;
    uint64_t dropped_units = 0;
    uint64_t dropped_sends = 0;
    uint64_t dropped_bytes = 0;
    uint64_t decode_errors = 0;
  };
  std::vector<CategorySnapshot> Snapshot() const;

 private:
  /// Per-category counters.  A category appears in units_by_category()
  /// (resp. dropped_by_category()) iff its sends (resp. dropped_sends) is
  /// non-zero — Record always bumps sends by one, so that is exactly "Record
  /// was called".
  struct Counters {
    uint64_t units = 0;
    uint64_t sends = 0;
    uint64_t bytes = 0;
    uint64_t dropped_units = 0;
    uint64_t dropped_sends = 0;
    uint64_t dropped_bytes = 0;
    uint64_t decode_errors = 0;
  };

  /// The counters of `category`, growing the vector on its first charge.
  Counters& At(CategoryId category);

  /// The counters of the category named `category` (zeroes when absent).
  Counters Named(std::string_view category) const;

  uint64_t total_sends_ = 0;
  uint64_t total_units_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t dropped_sends_ = 0;
  uint64_t dropped_units_ = 0;
  uint64_t dropped_bytes_ = 0;
  uint64_t decode_errors_ = 0;

  std::vector<Counters> counters_;  // CategoryId -> counters.
};

}  // namespace elink

#endif  // ELINK_SIM_STATS_H_
