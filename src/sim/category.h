// Message categories as dense ids (paper Section 8.2's cost breakdown).
//
// A category names what a transmission is for ("expand", "query_route",
// "expand.retx", ...).  One process-wide, append-only registry interns each
// name once; only the id travels with a Message and indexes the ledgers.
// Id 0 is the empty name, which default-constructed and byte-decoded
// messages carry.
//
// Interning takes a lock; every hot path interns ahead of time instead —
// proto::Encode caches one id per schema, engines one per literal
// (CategoryIdOf), ReliableChannel one per derived id.  Reading a name back
// (CategoryName) takes no lock.  Ids depend on which thread interned a name
// first, so everything rendered from them sorts by name, never by id.
#ifndef ELINK_SIM_CATEGORY_H_
#define ELINK_SIM_CATEGORY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace elink {

/// Dense id of an interned category name; 0 is the empty name.
using CategoryId = uint32_t;

/// The id of `name`, interning it on first use.  Thread-safe.
CategoryId InternCategory(std::string_view name);

/// The id of `name` if it was ever interned.  Thread-safe.
std::optional<CategoryId> FindCategory(std::string_view name);

/// The name of an interned id; lock-free, and valid for the process lifetime.
const std::string& CategoryName(CategoryId id);

/// The id ReliableChannel charges a retransmission of `id` under:
/// "<name>.retx".  Derived once per id, then a single atomic load.
CategoryId RetxCategory(CategoryId id);

/// The id ReliableChannel charges the transport ack of `id` under:
/// "<name>.ack", where a retransmitted copy acks as its original
/// (RetxCategory(c) acks under AckCategory(c)).
CategoryId AckCategory(CategoryId id);

/// A string literal usable as a template argument (see CategoryIdOf).
template <size_t N>
struct CategoryLiteral {
  constexpr CategoryLiteral(const char (&s)[N]) { std::copy_n(s, N, name); }
  char name[N];
};

/// The id of the literal category `kName`, interned on the first call only:
/// `stats.Record(CategoryIdOf<"query_route">(), units)`.
template <CategoryLiteral kName>
CategoryId CategoryIdOf() {
  static const CategoryId id = InternCategory(kName.name);
  return id;
}

}  // namespace elink

#endif  // ELINK_SIM_CATEGORY_H_
