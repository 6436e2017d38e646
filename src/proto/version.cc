#include "proto/version.h"

#include "common/strings.h"

namespace elink {
namespace proto {

Result<uint8_t> NegotiateVersion(const VersionRange& local,
                                 const VersionRange& remote) {
  const uint8_t lo = local.min > remote.min ? local.min : remote.min;
  const uint8_t hi = local.max < remote.max ? local.max : remote.max;
  if (lo > hi) {
    return Status::FailedPrecondition(StringPrintf(
        "wire: no common version (local %u..%u, remote %u..%u)", local.min,
        local.max, remote.min, remote.max));
  }
  return hi;
}

}  // namespace proto
}  // namespace elink
