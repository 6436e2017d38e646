// Whole-network snapshot container (elink_proto).
//
// A snapshot is a named-section archive built on the same byte primitives as
// the radio wire format (proto/wire.h), so everything the codec guarantees —
// bounds-checked totality, CRC-framed integrity, version negotiation —
// carries over to durable state:
//
//   offset 0  4 bytes  magic "ELSN"
//   ...       frame    a wire frame carrying handshake_wire::Hello with the
//                      writer's [min, max] version span.  A reader first
//                      negotiates this span against its own
//                      (NegotiateVersion) and rejects gracefully when they
//                      are disjoint.
//   ...       varint   section count
//   per section:
//     string  name     varint length + bytes, unique within the archive
//     varint  body length
//     ...     body
//     u32le   CRC32 over the name bytes followed by the body
//
// Section bodies are opaque to the container; the codecs below define the
// standard ones.  Restore in this repo is replay-based: the event queue
// holds closures that cannot be serialized, so a snapshot captures the
// scenario identity (manifest) plus every piece of *checkable* state — event
// horizon, message-stats ledger, per-node protocol/transport state — and a
// restore re-derives the scenario, replays to the same event index, and
// byte-compares the recaptured sections before continuing.  Equal bytes at
// the checkpoint plus a deterministic simulator prove the resumed run is
// byte-identical to the uninterrupted one.
#ifndef ELINK_PROTO_SNAPSHOT_H_
#define ELINK_PROTO_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "proto/version.h"
#include "sim/network.h"
#include "sim/stats.h"

namespace elink {
namespace proto {

/// Archive magic ("ELSN").
inline constexpr uint8_t kSnapshotMagic[4] = {'E', 'L', 'S', 'N'};

// Standard section names.
inline constexpr const char* kSectionManifest = "manifest";
inline constexpr const char* kSectionHorizon = "horizon";
inline constexpr const char* kSectionStats = "stats";
inline constexpr const char* kSectionNodes = "nodes";
inline constexpr const char* kSectionLedger = "ledger";
inline constexpr const char* kSectionFeatures = "features";
inline constexpr const char* kSectionClustering = "clustering";

/// \brief Builds a snapshot archive section by section.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(VersionRange local = {}) : local_(local) {}

  /// Appends a named section; names must be unique within the archive.
  Status AddSection(const std::string& name, std::vector<uint8_t> body);

  /// Renders the complete archive (magic, Hello frame, sections).
  std::vector<uint8_t> Finish() const;

 private:
  VersionRange local_;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> sections_;
};

/// \brief Parses and validates a snapshot archive.
class SnapshotReader {
 public:
  /// Parses `size` bytes at `data`: magic, embedded Hello (negotiated
  /// against `local`; disjoint spans reject with the negotiation error),
  /// then every section with its CRC.  The archive must be consumed exactly.
  static Result<SnapshotReader> Parse(const uint8_t* data, size_t size,
                                      VersionRange local = {});
  static Result<SnapshotReader> Parse(const std::vector<uint8_t>& bytes,
                                      VersionRange local = {});

  /// The version the writer's span and `local` agreed on.
  uint8_t version() const { return version_; }

  /// Section names in archive order.
  const std::vector<std::string>& section_names() const { return order_; }

  /// The named section's body, or null when absent.
  const std::vector<uint8_t>* section(const std::string& name) const;

 private:
  uint8_t version_ = 0;
  std::vector<std::string> order_;
  std::map<std::string, std::vector<uint8_t>> sections_;
};

// ---------------------------------------------------------------------------
// Standard section codecs.

/// Manifest: the scenario identity a restore re-derives the run from —
/// protocol name, seed, knob/disable list, checkpoint event index — as an
/// ordered string map.
std::vector<uint8_t> EncodeManifestSection(
    const std::map<std::string, std::string>& kv);
Result<std::map<std::string, std::string>> DecodeManifestSection(
    const std::vector<uint8_t>& body);

/// Event horizon: how far the run had progressed when the snapshot fired.
struct HorizonImage {
  uint64_t events = 0;  // Events dispatched since the run began.
  double now = 0.0;     // Simulation clock at the checkpoint.
};
std::vector<uint8_t> EncodeHorizonSection(const HorizonImage& h);
Result<HorizonImage> DecodeHorizonSection(const std::vector<uint8_t>& body);

/// Full MessageStats dump: totals plus every per-category counter.
struct StatsImage {
  uint64_t total_sends = 0;
  uint64_t total_units = 0;
  uint64_t total_bytes = 0;
  uint64_t dropped_sends = 0;
  uint64_t dropped_units = 0;
  uint64_t dropped_bytes = 0;
  uint64_t decode_errors = 0;
  std::vector<MessageStats::CategorySnapshot> categories;
};
std::vector<uint8_t> EncodeStatsSection(const MessageStats& stats);
Result<StatsImage> DecodeStatsSection(const std::vector<uint8_t>& body);

/// Per-node durable state: every node's Node::EncodeSnapshotState blob, in
/// node-id order (transport channel state for ProtocolNodes, plus whatever
/// the protocol overrides append).
std::vector<uint8_t> EncodeNodeStatesSection(Network& network);

}  // namespace proto
}  // namespace elink

#endif  // ELINK_PROTO_SNAPSHOT_H_
