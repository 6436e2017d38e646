// Schema-version negotiation for the byte wire format (proto/wire.h).
//
// A snapshot writer and a later reader may speak different wire versions.
// The writer announces the [min, max] version span it supports in a Hello
// frame; the agreed version is the highest one inside both spans, and a pair
// of spans with no overlap is rejected gracefully (a Status naming both
// spans, never a crash or a misparsed payload).
//
// Hello is itself carried over the byte codec: an ordinary field-visitor
// schema with a reserved packet id, so it round-trips through Encode ->
// EncodeFrame -> DecodeFrame -> Decode like any protocol message.  The
// frame's own version byte is pinned to kWireVersionMin by convention —
// every implementation of any version can parse it, which is what makes the
// negotiation able to *reach* disagreement instead of tripping over it.
#ifndef ELINK_PROTO_VERSION_H_
#define ELINK_PROTO_VERSION_H_

#include <cstdint>

#include "common/status.h"
#include "proto/wire.h"

namespace elink {
namespace proto {

namespace handshake_wire {

/// Version announcement; packet ids >= 1000 are reserved for negotiation.
struct Hello {
  static constexpr int kType = 1000;
  static constexpr const char* kCategory = "wire.hello";
  long long version_min = 0;
  long long version_max = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(version_min);
    v.I64(version_max);
  }
  bool operator==(const Hello&) const = default;
};

}  // namespace handshake_wire

/// Inclusive span of wire versions an endpoint speaks.
struct VersionRange {
  uint8_t min = wire::kWireVersionMin;
  uint8_t max = wire::kWireVersionMax;
};

/// Highest version inside both spans; FailedPrecondition when disjoint.
Result<uint8_t> NegotiateVersion(const VersionRange& local,
                                 const VersionRange& remote);

}  // namespace proto
}  // namespace elink

#endif  // ELINK_PROTO_VERSION_H_
