// Tests for the proto runtime: round-trip serialization of every wire
// schema with fuzzed values (including CostUnits checks), decoder rejection
// of malformed frames, and end-to-end truncation-fault injection into each
// protocol built on the runtime.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cluster/elink.h"
#include "cluster/elink_wire.h"
#include "cluster/maintenance_protocol.h"
#include "cluster/maintenance_wire.h"
#include "common/rng.h"
#include "data/terrain.h"
#include "index/path_wire.h"
#include "index/query_protocol.h"
#include "index/query_wire.h"
#include "obs/telemetry.h"
#include "proto/codec.h"
#include "proto/harness.h"
#include "proto/snapshot.h"
#include "proto/version.h"
#include "proto/wire.h"

namespace elink {
namespace {

std::vector<double> FuzzBlock(Rng& rng, int max_len) {
  std::vector<double> out(rng.UniformInt(max_len + 1));
  for (double& v : out) v = rng.Uniform(-1e6, 1e6);
  return out;
}

long long FuzzI64(Rng& rng) {
  return static_cast<long long>(rng.UniformInt(1u << 30)) - (1 << 29);
}

/// Encode -> wire sanity (type/category/CostUnits) -> Decode -> equality.
template <typename M>
void CheckRoundTrip(const M& m) {
  const Message wire = proto::Encode(m);
  EXPECT_EQ(wire.type, M::kType);
  EXPECT_EQ(CategoryName(wire.category), M::kCategory);
  // The paper's unit accounting: one unit per carried coefficient, minimum
  // one per transmission.
  EXPECT_EQ(wire.CostUnits(),
            wire.doubles.empty() ? 1u : wire.doubles.size());
  Result<M> back = proto::Decode<M>(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, m);
}

TEST(ProtoCodecTest, ElinkSchemasRoundTrip) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    elink_wire::Expand expand;
    expand.root = FuzzI64(rng);
    expand.level = FuzzI64(rng);
    expand.feature = FuzzBlock(rng, 6);
    CheckRoundTrip(expand);
    CheckRoundTrip(elink_wire::Ack1{});
    CheckRoundTrip(elink_wire::Nack{});
    CheckRoundTrip(elink_wire::Ack2{});
    elink_wire::Phase1 p1;
    p1.round = FuzzI64(rng);
    CheckRoundTrip(p1);
    elink_wire::Phase2 p2;
    p2.round = FuzzI64(rng);
    CheckRoundTrip(p2);
    CheckRoundTrip(elink_wire::Start{});
  }
}

TEST(ProtoCodecTest, QuerySchemasRoundTrip) {
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    query_wire::Up up;
    up.payload = FuzzBlock(rng, 6);
    CheckRoundTrip(up);
    query_wire::ToBackboneRoot tbr;
    tbr.sender = FuzzI64(rng);
    tbr.payload = FuzzBlock(rng, 6);
    CheckRoundTrip(tbr);
    query_wire::Visit visit;
    visit.sender = FuzzI64(rng);
    if (trial % 2 == 0) visit.budget = FuzzI64(rng);  // Optional trailing.
    visit.payload = FuzzBlock(rng, 6);
    CheckRoundTrip(visit);
    query_wire::BackboneInclude binc;
    binc.sender = FuzzI64(rng);
    binc.payload = FuzzBlock(rng, 6);
    CheckRoundTrip(binc);
    query_wire::BackboneReply brep;
    brep.count = FuzzI64(rng);
    brep.incomplete = FuzzI64(rng);
    CheckRoundTrip(brep);
    query_wire::Descend descend;
    if (trial % 2 == 1) descend.budget = FuzzI64(rng);
    descend.payload = FuzzBlock(rng, 6);
    CheckRoundTrip(descend);
    query_wire::DescendInclude dinc;
    dinc.payload = FuzzBlock(rng, 6);
    CheckRoundTrip(dinc);
    query_wire::DescendReply drep;
    drep.count = FuzzI64(rng);
    drep.incomplete = FuzzI64(rng);
    CheckRoundTrip(drep);
    query_wire::Answer answer;
    answer.count = FuzzI64(rng);
    answer.incomplete = FuzzI64(rng);
    CheckRoundTrip(answer);
  }
}

TEST(ProtoCodecTest, MaintenanceSchemasRoundTrip) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    maint_wire::FetchUp fetch;
    fetch.origin = FuzzI64(rng);
    CheckRoundTrip(fetch);
    maint_wire::RootFeature rf;
    rf.feature = FuzzBlock(rng, 6);
    CheckRoundTrip(rf);
    maint_wire::Push push;
    push.feature = FuzzBlock(rng, 6);
    CheckRoundTrip(push);
    CheckRoundTrip(maint_wire::Probe{});
    maint_wire::ProbeReply reply;
    reply.root = FuzzI64(rng);
    reply.settled = trial % 2;
    reply.stored_root = FuzzBlock(rng, 6);
    CheckRoundTrip(reply);
    CheckRoundTrip(maint_wire::Leave{});
    CheckRoundTrip(maint_wire::Attach{});
    CheckRoundTrip(maint_wire::Orphan{});
    maint_wire::RootChanged rc;
    rc.root = FuzzI64(rng);
    rc.feature = FuzzBlock(rng, 6);
    CheckRoundTrip(rc);
    maint_wire::EpochReport er;
    er.root = FuzzI64(rng);
    er.origin = FuzzI64(rng);
    er.seq = FuzzI64(rng);
    er.ttl = FuzzI64(rng);
    CheckRoundTrip(er);
    maint_wire::VerifyAck va;
    va.root = FuzzI64(rng);
    va.seq = FuzzI64(rng);
    va.feature = FuzzBlock(rng, 6);
    CheckRoundTrip(va);
    maint_wire::VerifyGone vg;
    vg.seq = FuzzI64(rng);
    CheckRoundTrip(vg);
  }
}

TEST(ProtoCodecTest, PathSchemasRoundTrip) {
  Rng rng(24);
  for (int trial = 0; trial < 50; ++trial) {
    path_wire::PathUp up;
    up.danger = FuzzBlock(rng, 6);
    up.gamma = rng.Uniform(0.0, 1e3);
    CheckRoundTrip(up);
    path_wire::PathRoute route;
    route.danger = FuzzBlock(rng, 6);
    route.gamma = rng.Uniform(0.0, 1e3);
    CheckRoundTrip(route);
    path_wire::PathVisit visit;
    visit.sender = FuzzI64(rng);
    visit.danger = FuzzBlock(rng, 6);
    visit.gamma = rng.Uniform(0.0, 1e3);
    CheckRoundTrip(visit);
    path_wire::PathDrill drill;
    drill.danger = FuzzBlock(rng, 6);
    drill.gamma = rng.Uniform(0.0, 1e3);
    CheckRoundTrip(drill);
    CheckRoundTrip(path_wire::PathDrillDone{});
    CheckRoundTrip(path_wire::PathVisitDone{});
  }
}

TEST(ProtoCodecTest, RejectsMalformedFrames) {
  elink_wire::Expand expand;
  expand.root = 4;
  expand.level = 2;
  expand.feature = {1.0, 2.0};
  const Message good = proto::Encode(expand);
  ASSERT_TRUE(proto::Decode<elink_wire::Expand>(good).ok());

  // Wrong type tag.
  Message wrong_type = good;
  wrong_type.type = elink_wire::Ack1::kType;
  EXPECT_FALSE(proto::Decode<elink_wire::Expand>(wrong_type).ok());

  // Truncated ints (below the required arity).
  Message short_ints = good;
  short_ints.ints.pop_back();
  EXPECT_FALSE(proto::Decode<elink_wire::Expand>(short_ints).ok());

  // Surplus ints beyond required + optional.
  Message long_ints = good;
  long_ints.ints.push_back(9);
  EXPECT_FALSE(proto::Decode<elink_wire::Expand>(long_ints).ok());

  // A block-less schema must reject any doubles at all.
  query_wire::Answer answer;
  answer.count = 3;
  answer.incomplete = 0;
  Message stray_doubles = proto::Encode(answer);
  stray_doubles.doubles.push_back(1.5);
  EXPECT_FALSE(proto::Decode<query_wire::Answer>(stray_doubles).ok());

  // A fixed double chopped off (PathUp needs at least its gamma field).
  path_wire::PathUp up;
  up.danger = {};
  up.gamma = 2.0;
  Message no_gamma = proto::Encode(up);
  no_gamma.doubles.clear();
  EXPECT_FALSE(proto::Decode<path_wire::PathUp>(no_gamma).ok());

  // An optional trailing int decodes as absent, not as an error.
  query_wire::Visit visit;
  visit.sender = 7;
  visit.budget = 123;
  visit.payload = {0.5};
  Message no_budget = proto::Encode(visit);
  no_budget.ints.pop_back();
  Result<query_wire::Visit> back = proto::Decode<query_wire::Visit>(no_budget);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->budget.has_value());
}

// -- Byte-level wire format (proto/wire.h) ----------------------------------

/// Integer fuzzer spanning every varint regime: tiny deltas, mid-range ids,
/// full 64-bit values, and the exact two's-complement extremes.
long long FuzzWireI64(Rng& rng) {
  switch (rng.UniformInt(4)) {
    case 0:
      return static_cast<long long>(rng.UniformInt(16)) - 8;
    case 1:
      return FuzzI64(rng);
    case 2:
      return static_cast<long long>(rng.Next());
    default:
      return rng.Bernoulli(0.5) ? INT64_MAX : INT64_MIN;
  }
}

/// Generic field-visitor that fills any schema with fuzzed values — the same
/// VisitFields walk the codec uses, so it covers every field of all 34
/// schemas without per-schema code.
struct WireFuzzFill {
  Rng* rng;
  void I64(long long& v) { v = FuzzWireI64(*rng); }
  void OptI64(std::optional<long long>& v) {
    if (rng->Bernoulli(0.5)) {
      v = FuzzWireI64(*rng);
    } else {
      v.reset();
    }
  }
  void F64(double& v) { v = rng->Uniform(-1e9, 1e9); }
  void Block(std::vector<double>& v) { v = FuzzBlock(*rng, 6); }
};

/// The accounting category of packet id `type` within the schema family that
/// `for_each_schema` enumerates, or null for an id the family does not
/// define — how a byte-level receiver re-derives the category the radio
/// frame deliberately omits.
template <typename Family>
const char* CategoryForType(const Family& for_each_schema, int type) {
  const char* category = nullptr;
  for_each_schema([&](const auto& m) {
    using M = std::decay_t<decltype(m)>;
    if (M::kType == type) category = M::kCategory;
  });
  return category;
}

/// Full byte-level round trip for one schema of `family`: typed struct ->
/// Message -> frame bytes -> Message -> typed struct, with the category
/// re-derived from the packet id the way a byte-level receiver would.
template <typename M, typename Family>
void CheckByteRoundTrip(M m, Rng& rng, const Family& family) {
  WireFuzzFill fill{&rng};
  m.VisitFields(fill);
  Message encoded = proto::Encode(m);
  if (rng.Bernoulli(0.4)) {  // Sometimes ride a reliable-transport envelope.
    encoded.rel_seq = static_cast<long long>(rng.UniformInt(1u << 20));
    encoded.rel_from = static_cast<int>(rng.UniformInt(1024));
    encoded.rel_ack = rng.Bernoulli(0.5);
  }
  const std::vector<uint8_t> frame = wire::EncodeFrame(encoded);
  ASSERT_EQ(frame.size(), wire::FrameSize(encoded));
  Result<Message> back = wire::DecodeFrame(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The category never travels: a decoded frame carries the empty one.
  EXPECT_TRUE(CategoryName(back->category).empty());
  const char* category = CategoryForType(family, back->type);
  ASSERT_NE(category, nullptr);
  EXPECT_STREQ(category, M::kCategory);
  EXPECT_EQ(back->rel_seq, encoded.rel_seq);
  EXPECT_EQ(back->rel_from, encoded.rel_from);
  EXPECT_EQ(back->rel_ack, encoded.rel_ack);
  Result<M> typed = proto::Decode<M>(*back);
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  EXPECT_EQ(*typed, m);
}

TEST(WireFormatTest, AllSchemasByteRoundTrip) {
  Rng rng(2026);
  const auto round_trip = [&](const auto& family) {
    family([&](auto m) { CheckByteRoundTrip(std::move(m), rng, family); });
  };
  for (int trial = 0; trial < 25; ++trial) {
    round_trip([](auto&& fn) { elink_wire::ForEachSchema(fn); });
    round_trip([](auto&& fn) { maint_wire::ForEachSchema(fn); });
    round_trip([](auto&& fn) { query_wire::ForEachSchema(fn); });
    round_trip([](auto&& fn) { path_wire::ForEachSchema(fn); });
  }
}

/// A representative frame with every body feature present: multiple ints
/// (exercising delta coding), a double block, and the reliable envelope.
Message DenseWireMessage() {
  maint_wire::ProbeReply reply;
  reply.root = 1'000'000'007;
  reply.settled = 1;
  reply.stored_root = {3.25, -0.5, 1e300};
  Message msg = proto::Encode(reply);
  msg.rel_seq = 41;
  msg.rel_from = 17;
  return msg;
}

TEST(WireFormatTest, TruncationAtEveryByteOffsetRejects) {
  const std::vector<uint8_t> frame = wire::EncodeFrame(DenseWireMessage());
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(wire::DecodeFrame(frame.data(), len).ok())
        << "prefix of " << len << " bytes decoded";
    size_t consumed = 0;
    EXPECT_FALSE(wire::DecodeFrame(frame.data(), len, &consumed).ok())
        << "prefix of " << len << " bytes decoded in stream mode";
  }
  ASSERT_TRUE(wire::DecodeFrame(frame).ok());
}

TEST(WireFormatTest, EveryBitFlipRejects) {
  // CRC32 detects all bursts shorter than 32 bits, the magic byte is checked
  // first, and a flip inside the CRC trailer itself mismatches the body: a
  // single flipped bit anywhere is a guaranteed deterministic reject.
  std::vector<uint8_t> frame = wire::EncodeFrame(DenseWireMessage());
  for (size_t off = 0; off < frame.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[off] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(wire::DecodeFrame(frame).ok())
          << "flip of bit " << bit << " at offset " << off << " decoded";
      frame[off] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  ASSERT_TRUE(wire::DecodeFrame(frame).ok());
}

/// Builds a frame by hand around `body`, with a valid CRC — for injecting
/// defects the public encoder cannot produce.
std::vector<uint8_t> FrameFromBody(uint8_t version,
                                   const std::vector<uint8_t>& body) {
  std::vector<uint8_t> out;
  out.push_back(wire::kFrameMagic);
  const size_t covered_start = out.size();
  out.push_back(version);
  wire::PutVarint(body.size(), &out);
  out.insert(out.end(), body.begin(), body.end());
  wire::PutU32Le(
      wire::Crc32(out.data() + covered_start, out.size() - covered_start),
      &out);
  return out;
}

/// The body bytes of a valid frame (everything between the length varint and
/// the CRC), so tests can mutate the body and re-frame it with a good CRC.
std::vector<uint8_t> BodyOf(const Message& msg) {
  std::vector<uint8_t> body;
  wire::EncodeBody(msg, &body);
  return body;
}

TEST(WireFormatTest, UnknownVersionRejectsEvenWithValidCrc) {
  const std::vector<uint8_t> body = BodyOf(DenseWireMessage());
  for (const uint8_t version : {uint8_t{0}, uint8_t{2}, uint8_t{255}}) {
    const std::vector<uint8_t> frame = FrameFromBody(version, body);
    const Result<Message> r = wire::DecodeFrame(frame);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented)
        << r.status().ToString();
  }
  // The same body under the supported version is fine.
  EXPECT_TRUE(wire::DecodeFrame(FrameFromBody(wire::kWireVersion, body)).ok());
}

TEST(WireFormatTest, BadMagicRejects) {
  std::vector<uint8_t> frame = wire::EncodeFrame(DenseWireMessage());
  frame[0] = 0x00;
  EXPECT_FALSE(wire::DecodeFrame(frame).ok());
  EXPECT_FALSE(wire::DecodeFrame(frame.data(), 0).ok());  // Empty span.
}

TEST(WireFormatTest, UnknownFlagBitsReject) {
  Message msg = DenseWireMessage();
  std::vector<uint8_t> body = BodyOf(msg);
  // The flags byte sits right after the packet-id zigzag varint.
  const size_t flags_off =
      wire::VarintSize(wire::ZigzagEncode(msg.type));
  body[flags_off] |= 0x04;  // An undefined flag bit, CRC made valid again.
  const Result<Message> r = wire::DecodeFrame(FrameFromBody(wire::kWireVersion, body));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("flag"), std::string::npos)
      << r.status().ToString();
}

TEST(WireFormatTest, TrailingBytesInsideBodyReject) {
  std::vector<uint8_t> body = BodyOf(DenseWireMessage());
  body.push_back(0x00);  // Length varint will claim the extra byte.
  EXPECT_FALSE(wire::DecodeFrame(FrameFromBody(wire::kWireVersion, body)).ok());
}

TEST(WireFormatTest, FieldCountCapsReject) {
  // A body claiming 2^20 + 1 doubles with no data behind the claim.
  std::vector<uint8_t> body;
  wire::PutZigzag(1, &body);                       // Packet id.
  body.push_back(0);                               // Flags.
  wire::PutVarint(0, &body);                       // nints.
  wire::PutVarint(wire::kMaxFieldCount + 1, &body);  // ndoubles: over cap.
  EXPECT_FALSE(wire::DecodeFrame(FrameFromBody(wire::kWireVersion, body)).ok());
}

TEST(WireFormatTest, StreamFramingConsumesExactly) {
  const Message a = DenseWireMessage();
  const Message b = proto::Encode(elink_wire::Start{});
  std::vector<uint8_t> stream = wire::EncodeFrame(a);
  const size_t first_len = stream.size();
  wire::EncodeFrame(b, &stream);

  // Without `consumed`, trailing bytes are an error.
  EXPECT_FALSE(wire::DecodeFrame(stream).ok());

  // With `consumed`, the stream parses frame by frame.
  size_t consumed = 0;
  Result<Message> first = wire::DecodeFrame(stream.data(), stream.size(),
                                            &consumed);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(consumed, first_len);
  EXPECT_EQ(first->type, a.type);
  Result<Message> second = wire::DecodeFrame(stream.data() + consumed,
                                             stream.size() - consumed,
                                             &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(consumed, stream.size() - first_len);
  EXPECT_EQ(second->type, b.type);
}

TEST(WireFormatTest, DeltaCodingKeepsNearbyIdsSmall) {
  // Two billion-scale ids one apart cost five varint bytes for the first and
  // one for the delta; the same ids with opposite signs pay full freight.
  elink_wire::Expand near;
  near.root = 1'000'000'000;
  near.level = 1'000'000'001;
  elink_wire::Expand far = near;
  far.level = -1'000'000'001;
  const size_t near_bytes = wire::FrameSize(proto::Encode(near));
  const size_t far_bytes = wire::FrameSize(proto::Encode(far));
  EXPECT_LT(near_bytes, far_bytes);
  EXPECT_EQ(far_bytes - near_bytes, 4u);  // 5-byte delta shrinks to 1.
}

TEST(WireFormatTest, IntExtremesAndDeltaWraparoundRoundTrip) {
  maint_wire::EpochReport er;
  er.root = INT64_MAX;
  er.origin = INT64_MIN;  // Delta wraps the full two's-complement circle.
  er.seq = -1;
  er.ttl = INT64_MAX;
  const Message encoded = proto::Encode(er);
  Result<Message> back = wire::DecodeFrame(wire::EncodeFrame(encoded));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  Result<maint_wire::EpochReport> typed =
      proto::Decode<maint_wire::EpochReport>(*back);
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(*typed, er);
}

// -- Version negotiation (proto/version.h) ----------------------------------

TEST(VersionNegotiationTest, PicksHighestCommonVersion) {
  Result<uint8_t> v =
      proto::NegotiateVersion(proto::VersionRange{1, 3}, proto::VersionRange{2, 5});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3);
  v = proto::NegotiateVersion(proto::VersionRange{2, 5}, proto::VersionRange{1, 3});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3);
  v = proto::NegotiateVersion(proto::VersionRange{1, 1}, proto::VersionRange{1, 1});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1);
}

TEST(VersionNegotiationTest, DisjointSpansFailGracefully) {
  const Result<uint8_t> v =
      proto::NegotiateVersion(proto::VersionRange{1, 2}, proto::VersionRange{3, 4});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kFailedPrecondition);
}

// -- Snapshot container (proto/snapshot.h) ----------------------------------

TEST(SnapshotContainerTest, RoundTripsSectionsInOrder) {
  proto::SnapshotWriter w;
  ASSERT_TRUE(w.AddSection("alpha", {1, 2, 3}).ok());
  ASSERT_TRUE(w.AddSection("beta", {}).ok());  // Empty bodies are legal.
  ASSERT_TRUE(w.AddSection("gamma", std::vector<uint8_t>(100, 0xAB)).ok());
  const std::vector<uint8_t> archive = w.Finish();

  Result<proto::SnapshotReader> r = proto::SnapshotReader::Parse(archive);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version(), wire::kWireVersion);
  EXPECT_EQ(r->section_names(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  ASSERT_NE(r->section("alpha"), nullptr);
  EXPECT_EQ(*r->section("alpha"), (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_NE(r->section("beta"), nullptr);
  EXPECT_TRUE(r->section("beta")->empty());
  ASSERT_NE(r->section("gamma"), nullptr);
  EXPECT_EQ(r->section("gamma")->size(), 100u);
  EXPECT_EQ(r->section("missing"), nullptr);
}

TEST(SnapshotContainerTest, DuplicateSectionNameRejects) {
  proto::SnapshotWriter w;
  ASSERT_TRUE(w.AddSection("alpha", {1}).ok());
  EXPECT_FALSE(w.AddSection("alpha", {2}).ok());
}

TEST(SnapshotContainerTest, TruncationAtEveryByteOffsetRejects) {
  proto::SnapshotWriter w;
  ASSERT_TRUE(w.AddSection("alpha", {1, 2, 3}).ok());
  ASSERT_TRUE(w.AddSection("beta", {4}).ok());
  const std::vector<uint8_t> archive = w.Finish();
  for (size_t len = 0; len < archive.size(); ++len) {
    EXPECT_FALSE(proto::SnapshotReader::Parse(archive.data(), len).ok())
        << "prefix of " << len << " bytes parsed";
  }
  EXPECT_TRUE(proto::SnapshotReader::Parse(archive).ok());
}

TEST(SnapshotContainerTest, SectionCorruptionRejects) {
  proto::SnapshotWriter w;
  ASSERT_TRUE(w.AddSection("alpha", {1, 2, 3, 4, 5}).ok());
  std::vector<uint8_t> archive = w.Finish();
  // Flip a bit in the last section-body byte (5 lives right before the CRC).
  const size_t body_byte = archive.size() - 5;
  archive[body_byte] ^= 0x10;
  const Result<proto::SnapshotReader> r = proto::SnapshotReader::Parse(archive);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("CRC"), std::string::npos)
      << r.status().ToString();
  archive[body_byte] ^= 0x10;
  EXPECT_TRUE(proto::SnapshotReader::Parse(archive).ok());
}

TEST(SnapshotContainerTest, BadMagicRejects) {
  proto::SnapshotWriter w;
  std::vector<uint8_t> archive = w.Finish();
  archive[0] = 'X';
  EXPECT_FALSE(proto::SnapshotReader::Parse(archive).ok());
}

TEST(SnapshotContainerTest, VersionSpanNegotiatesOrRejects) {
  proto::SnapshotWriter w(proto::VersionRange{5, 9});
  const std::vector<uint8_t> archive = w.Finish();

  // A reader that only speaks version 1 refuses the archive gracefully.
  const Result<proto::SnapshotReader> refused =
      proto::SnapshotReader::Parse(archive, proto::VersionRange{1, 1});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // A reader spanning the writer agrees on the highest common version.
  const Result<proto::SnapshotReader> agreed =
      proto::SnapshotReader::Parse(archive, proto::VersionRange{1, 7});
  ASSERT_TRUE(agreed.ok()) << agreed.status().ToString();
  EXPECT_EQ(agreed->version(), 7);
}

TEST(SnapshotCodecTest, ManifestRoundTrips) {
  const std::map<std::string, std::string> kv{
      {"protocol", "elink"}, {"seed", "42"}, {"disable", ""}};
  std::vector<uint8_t> body = proto::EncodeManifestSection(kv);
  const Result<std::map<std::string, std::string>> back =
      proto::DecodeManifestSection(body);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, kv);

  // Truncated and padded bodies both reject.
  std::vector<uint8_t> cut = body;
  cut.pop_back();
  EXPECT_FALSE(proto::DecodeManifestSection(cut).ok());
  body.push_back(0x00);
  EXPECT_FALSE(proto::DecodeManifestSection(body).ok());
}

TEST(SnapshotCodecTest, HorizonRoundTrips) {
  proto::HorizonImage h;
  h.events = 123456789;
  h.now = 9876.5;
  const Result<proto::HorizonImage> back =
      proto::DecodeHorizonSection(proto::EncodeHorizonSection(h));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->events, h.events);
  EXPECT_EQ(back->now, h.now);
}

TEST(SnapshotCodecTest, StatsRoundTrips) {
  MessageStats stats;
  stats.Record(InternCategory("expand"), 4, 37);
  stats.Record(InternCategory("expand"), 1, 21);
  stats.Record(InternCategory("ack1"), 1, 19);
  stats.RecordDropped(InternCategory("expand"), 2, 29);
  stats.RecordDecodeError(InternCategory("ack1"));

  const std::vector<uint8_t> body = proto::EncodeStatsSection(stats);
  const Result<proto::StatsImage> img = proto::DecodeStatsSection(body);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  EXPECT_EQ(img->total_sends, stats.total_sends());
  EXPECT_EQ(img->total_units, stats.total_units());
  EXPECT_EQ(img->total_bytes, 77u);
  EXPECT_EQ(img->dropped_sends, 1u);
  EXPECT_EQ(img->dropped_bytes, 29u);
  EXPECT_EQ(img->decode_errors, 1u);
  ASSERT_EQ(img->categories.size(), 2u);  // Sorted by category name.
  EXPECT_EQ(img->categories[0].category, "ack1");
  EXPECT_EQ(img->categories[0].decode_errors, 1u);
  EXPECT_EQ(img->categories[1].category, "expand");
  EXPECT_EQ(img->categories[1].bytes, 58u);
  EXPECT_EQ(img->categories[1].dropped_bytes, 29u);
}

SensorDataset Terrain(int n) {
  TerrainConfig cfg;
  cfg.num_nodes = n;
  cfg.radio_range_fraction = 0.1;
  cfg.seed = 9;
  return std::move(MakeTerrainDataset(cfg)).value();
}

TEST(TruncationInjectionTest, ElinkCountsErrorsAndStaysValid) {
  const SensorDataset ds = Terrain(120);
  ElinkConfig cfg;
  cfg.delta = 0.25 * FeatureDiameter(ds);
  cfg.seed = 7;
  cfg.fault.truncate_probability = 0.3;
  Result<ElinkResult> r = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().stats.decode_errors(), 0u);
  // Every node still ends up with a cluster assignment (worst case its own
  // singleton), and truncation never crashes a handler.
  for (int root : r.value().clustering.root_of) EXPECT_GE(root, 0);
}

TEST(TruncationInjectionTest, MaintenanceCountsErrorsAndSurvives) {
  const SensorDataset ds = Terrain(100);
  const double delta = 0.25 * FeatureDiameter(ds);
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.seed = 7;
  Result<ElinkResult> clean = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(clean.ok());

  MaintenanceConfig mcfg;
  mcfg.delta = delta;
  mcfg.slack = 0.05 * delta;
  FaultPlan fault;
  fault.truncate_probability = 0.6;
  DistributedMaintenance maint(ds.topology, clean.value().clustering,
                               ds.features, ds.metric, mcfg,
                               /*synchronous=*/true, /*seed=*/11, fault);
  // Large jumps defeat the A1-A3 absorption checks and force fetch/push/
  // probe traffic, all of it exposed to in-flight truncation.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int node = static_cast<int>(rng.UniformInt(100));
    Feature f = ds.features[node];
    for (double& x : f) x += rng.Uniform(2.0, 4.0) * delta;
    maint.ApplyUpdate(node, f);
  }
  EXPECT_GT(maint.stats().decode_errors(), 0u);
  // Every node still names a live root; no handler crashed on short frames.
  const Clustering now = maint.CurrentClustering();
  for (int root : now.root_of) EXPECT_GE(root, 0);
}

TEST(TruncationInjectionTest, RangeQueryCountsErrorsAndFinishes) {
  const SensorDataset ds = Terrain(120);
  const double delta = 0.25 * FeatureDiameter(ds);
  ElinkConfig cfg;
  cfg.delta = delta;
  cfg.seed = 7;
  Result<ElinkResult> clean = RunElink(ds, cfg, ElinkMode::kImplicit);
  ASSERT_TRUE(clean.ok());
  const Clustering& clustering = clean.value().clustering;
  const std::vector<int> tree =
      BuildClusterTrees(clustering, ds.topology.adjacency);
  const ClusterIndex index =
      ClusterIndex::Build(clustering, tree, ds.features, *ds.metric);
  const Backbone backbone =
      Backbone::Build(clustering, ds.topology.adjacency, nullptr,
                      &ds.features, ds.metric.get());

  DistributedRangeQuery::ProtocolOptions options;
  options.fault.truncate_probability = 0.5;
  options.node_deadline = 400.0;
  options.query_deadline = 4000.0;
  DistributedRangeQuery protocol(ds.topology, clustering, index, backbone,
                                 ds.features, ds.metric, options);
  Rng rng(17);
  uint64_t decode_errors = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Feature q = ds.features[rng.UniformInt(120)];
    Result<DistributedQueryOutcome> out =
        protocol.Run(static_cast<int>(rng.UniformInt(120)), q, 0.7 * delta);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    decode_errors += out.value().stats.decode_errors();
  }
  EXPECT_GT(decode_errors, 0u);
}

// -- Delivery trace ordering (SimObserver::OnDeliver) ------------------------

namespace tracewire {
/// Minimal schema for the trace-ordering protocol below.
struct Ping {
  static constexpr int kType = 1;
  static constexpr const char* kCategory = "trace_ping";
  long long ttl = 0;
  template <class V>
  void VisitFields(V& v) {
    v.I64(ttl);
  }
  bool operator==(const Ping&) const = default;
};
}  // namespace tracewire

/// Every node pings all neighbors at install; receivers ping back while the
/// ttl lasts.  Over ReliableChannel with lossy links this produces the whole
/// traffic mix a delivery observer sees: data frames, transport acks,
/// retransmissions, and duplicate deliveries.
class TracePingNode : public proto::ProtocolNode {
 public:
  explicit TracePingNode(const ReliableChannel::Config& rel) {
    EnableReliable(rel);
    OnMsg<tracewire::Ping>([this](int from, const tracewire::Ping& m) {
      if (m.ttl > 0) {
        tracewire::Ping reply;
        reply.ttl = m.ttl - 1;
        Send(from, reply);
      }
    });
  }

 protected:
  // The initial pings go out on a time-0 timer rather than from OnReady:
  // during install the neighbors are not all in place yet.
  void OnReady() override { network()->SetTimer(id(), 0.0, /*timer_id=*/1); }

  void OnProtocolTimer(int timer_id) override {
    ELINK_CHECK(timer_id == 1);
    tracewire::Ping m;
    m.ttl = 2;
    for (int nb : network()->neighbors(id())) Send(nb, m);
  }
};

struct TracedFrame {
  double now;
  int from;
  int to;
  int type;
  bool ack;
  long long seq;
  bool operator==(const TracedFrame&) const = default;
};

/// Records every frame delivered to any node, before the receiver's
/// transport filters acks and duplicates out.
class DeliveryRecorder : public SimObserver {
 public:
  void OnDeliver(double now, int from, int to, const Message& msg) override {
    frames.push_back({now, from, to, msg.type, msg.rel_ack, msg.rel_seq});
  }
  std::vector<TracedFrame> frames;
};

std::vector<TracedFrame> RunTracedPing(uint64_t seed) {
  const SensorDataset ds = Terrain(36);
  proto::RunHarness::Options hopt;
  hopt.net.seed = seed;
  hopt.net.fault.drop_probability = 0.25;
  proto::RunHarness harness(ds.topology, hopt);
  DeliveryRecorder recorder;
  harness.set_observer(&recorder);
  ReliableChannel::Config rel;
  rel.rto = 6.0;
  rel.max_retries = 4;
  harness.InstallNodes(
      [&](int) { return std::make_unique<TracePingNode>(rel); });
  harness.Run();
  return std::move(recorder.frames);
}

TEST(RunHarnessTraceTest, DeterministicOrderWithAcksAndDuplicates) {
  const std::vector<TracedFrame> trace = RunTracedPing(/*seed=*/5);
  ASSERT_FALSE(trace.empty());

  // Delivery order is the event queue's deterministic (time, seq) order:
  // timestamps never run backwards across the whole trace, acks and
  // duplicates included.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].now, trace[i - 1].now)
        << "trace order regressed at entry " << i;
  }

  // The observer sees the transport plane: acks for delivered data frames
  // and, with lossy links, duplicate deliveries of retransmitted frames.
  size_t acks = 0;
  std::map<std::tuple<int, int, long long>, int> data_copies;
  for (const TracedFrame& f : trace) {
    if (f.ack) {
      ++acks;
    } else if (f.seq >= 0) {
      ++data_copies[{f.from, f.to, f.seq}];
    }
  }
  size_t duplicates = 0;
  for (const auto& [key, copies] : data_copies) {
    if (copies > 1) duplicates += static_cast<size_t>(copies - 1);
  }
  EXPECT_GT(acks, 0u);
  EXPECT_GT(duplicates, 0u) << "expected lost acks to force duplicate "
                               "deliveries under 25% loss";

  // Same seed, same trace — byte for byte.
  EXPECT_EQ(trace, RunTracedPing(/*seed=*/5));
}

// -- RunHarness watchdog boundary behavior -----------------------------------
//
// The quiet-period watchdog compares an activity *counter* snapshot, not
// timestamps, so events landing exactly on the expiry instant are resolved
// by the event queue's (time, insertion) order: protocol events scheduled
// before Run() beat the watchdog tick, the horizon no-op (armed after the
// watchdog inside Run()) never does.  These tests pin all four boundaries.

class WatchdogProbeNode : public proto::ProtocolNode {
 public:
  explicit WatchdogProbeNode(std::function<void()> on_timer = nullptr)
      : on_timer_(std::move(on_timer)) {}

 protected:
  void OnProtocolTimer(int) override {
    if (on_timer_) on_timer_();
  }

 private:
  std::function<void()> on_timer_;
};

TEST(RunHarnessWatchdogTest, ActivityTieAtExpiryRearmsInsteadOfFiring) {
  proto::RunHarness::Options hopt;
  hopt.quiet_timeout = 10.0;
  proto::RunHarness harness(MakeGridTopology(1, 2), hopt);
  harness.InstallNodes(
      [](int) { return std::make_unique<WatchdogProbeNode>(); });
  // A protocol timer at exactly the watchdog expiry.  It was scheduled
  // before Run() armed the watchdog, so the (time, insertion) tie-break
  // delivers it first: the tick sees fresh activity and re-arms instead of
  // declaring a false timeout at t=10.
  harness.net().SetTimer(0, 10.0, /*timer_id=*/1);
  const proto::RunHarness::Report report = harness.Run();
  EXPECT_TRUE(report.timed_out);  // The 10..20 window really was quiet.
  EXPECT_DOUBLE_EQ(report.end_time, 20.0)
      << "first tick must re-arm, not fire";
}

TEST(RunHarnessWatchdogTest, DoneAtExpiryTieStandsDownWithoutTimeout) {
  proto::RunHarness::Options hopt;
  hopt.quiet_timeout = 10.0;
  proto::RunHarness harness(MakeGridTopology(1, 2), hopt);
  bool done = false;
  harness.InstallNodes([&](int) {
    return std::make_unique<WatchdogProbeNode>([&done] { done = true; });
  });
  harness.set_done([&done] { return done; });
  // Completion lands on the expiry instant; the watchdog must consult done()
  // before comparing activity and stand down entirely (no re-arm: the run
  // ends at 10, not 20).
  harness.net().SetTimer(0, 10.0, /*timer_id=*/1);
  const proto::RunHarness::Report report = harness.Run();
  EXPECT_FALSE(report.timed_out);
  EXPECT_DOUBLE_EQ(report.end_time, 10.0);
}

TEST(RunHarnessWatchdogTest, HorizonNoOpAtExpiryIsNotActivity) {
  proto::RunHarness::Options hopt;
  hopt.quiet_timeout = 10.0;
  hopt.run_horizon = 10.0;  // Same instant as the watchdog expiry.
  proto::RunHarness harness(MakeGridTopology(1, 2), hopt);
  harness.InstallNodes(
      [](int) { return std::make_unique<WatchdogProbeNode>(); });
  const proto::RunHarness::Report report = harness.Run();
  // The horizon's clock-keeping no-op shares the expiry instant but touches
  // no handler: the run is genuinely quiet and must time out.
  EXPECT_TRUE(report.timed_out);
  EXPECT_DOUBLE_EQ(report.end_time, 10.0);
}

TEST(RunHarnessWatchdogTest, ReArmIsFromExpiryNotFromLastActivity) {
  proto::RunHarness::Options hopt;
  hopt.quiet_timeout = 10.0;
  proto::RunHarness harness(MakeGridTopology(1, 2), hopt);
  obs::RunTelemetry tele;
  harness.set_observer(&tele);
  harness.InstallNodes(
      [](int) { return std::make_unique<WatchdogProbeNode>(); });
  // Activity at t=9.5, inside the first window.  The tick at t=10 re-arms
  // for a full window from the *expiry* (next tick t=20), not from the last
  // activity (t=19.5): the ELink watchdog semantics the harness inherited.
  harness.net().SetTimer(0, 9.5, /*timer_id=*/1);
  const proto::RunHarness::Report report = harness.Run();
  EXPECT_TRUE(report.timed_out);
  EXPECT_DOUBLE_EQ(report.end_time, 20.0);
  EXPECT_EQ(tele.metrics().counter("harness.watchdog_arms"), 2u);
  EXPECT_EQ(tele.metrics().counter("harness.watchdog_fires"), 1u);
}

}  // namespace
}  // namespace elink
