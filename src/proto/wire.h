// Byte-level wire format for sim::Message (elink_proto).
//
// The typed codec (proto/codec.h) maps schema structs onto the abstract
// Message{ints, doubles} container; this header maps that container onto
// actual radio bytes, so every schema gets a byte encoding for free and the
// ledger can account real bytes-on-wire next to the paper's CostUnits.
// Encoding is observational: CostUnits still drive simulation timing, and a
// build that never calls into this header behaves bit-identically.
//
// Frame layout (version 1):
//
//   offset 0   u8      magic 0xE7
//   offset 1   u8      wire version (kWireVersionMin..kWireVersionMax)
//   offset 2   varint  body length L
//   ...        L bytes body
//   ...        u32le   CRC32 (IEEE, reflected) over everything between the
//                      magic and the CRC itself: version byte, length
//                      varint, and body.  Any single-byte corruption in
//                      that span is a guaranteed reject (CRC32 detects all
//                      bursts shorter than 32 bits).
//
// Body layout (version 1):
//
//   varint  packet id  zigzag(Message::type) — packet ids are scoped by the
//                      frame's version byte; version negotiation
//                      (proto/version.h) guarantees both ends interpret them
//                      under the same version.
//   u8      flags      bit0: reliable envelope present (rel_seq/rel_from
//                            follow the payload), bit1: rel_ack.
//   varint  nints
//   ...     ints       zigzag varints, delta-coded: the first int raw, each
//                      subsequent int as the difference from its
//                      predecessor.  Id/level fields of one message are
//                      typically near each other in value, so the deltas
//                      stay in the 1-2 byte varint range.
//   varint  ndoubles
//   ...     doubles    IEEE-754 binary64, little-endian, 8 bytes each.
//   [env]   rel_seq    zigzag varint   (only with flags bit0)
//           rel_from   zigzag varint
//
// The category never travels: it is accounting metadata derivable from the
// packet id (each family's ForEachSchema pairs every kType with its
// kCategory), exactly as a real deployment would dispatch on the type byte.
// DecodeFrame therefore returns a Message with the empty category (id 0).
//
// Decoding is total: every read is bounds-checked, counts are capped, the
// frame must be consumed exactly, and any violation returns an error Status
// — truncation at any byte offset, a flipped bit anywhere, or arbitrary
// garbage can reject but never crash.
//
// Header-only on purpose: the Network charges per-hop byte counts with
// FrameSize, and keeping this a leaf header (depending only on sim/message.h
// and common/status.h) avoids a sim <-> proto link cycle.
#ifndef ELINK_PROTO_WIRE_H_
#define ELINK_PROTO_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/message.h"

namespace elink {
namespace wire {

inline constexpr uint8_t kFrameMagic = 0xE7;
inline constexpr uint8_t kWireVersionMin = 1;
inline constexpr uint8_t kWireVersionMax = 1;
/// The version this build emits.
inline constexpr uint8_t kWireVersion = kWireVersionMax;

/// Hard caps a well-formed frame can never exceed; anything larger is a
/// malformed or hostile frame and rejects before any allocation.
inline constexpr uint64_t kMaxBodyBytes = 1ull << 28;
inline constexpr uint64_t kMaxFieldCount = 1ull << 20;

inline constexpr uint8_t kFlagEnvelope = 1u << 0;
inline constexpr uint8_t kFlagRelAck = 1u << 1;
inline constexpr uint8_t kKnownFlags = kFlagEnvelope | kFlagRelAck;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

namespace internal {

struct Crc32Table {
  uint32_t t[256];
  constexpr Crc32Table() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

inline constexpr Crc32Table kCrc32Table{};

}  // namespace internal

/// CRC32 of `size` bytes at `data`; chainable via `seed` (pass a previous
/// call's return value to continue).
inline uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < size; ++i) {
    c = internal::kCrc32Table.t[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

// ---------------------------------------------------------------------------
// Primitive encoders.

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Bytes a varint encoding of `v` occupies (1..10).
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80u) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline void PutZigzag(int64_t v, std::vector<uint8_t>* out) {
  PutVarint(ZigzagEncode(v), out);
}

inline void PutU8(uint8_t v, std::vector<uint8_t>* out) {
  out->push_back(v);
}

/// Length-prefixed UTF-8/binary string (snapshot sections only; the radio
/// frame format never carries strings).
inline void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutVarint(s.size(), out);
  out->insert(out->end(), s.begin(), s.end());
}

inline void PutU32Le(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

inline void PutF64Le(double v, std::vector<uint8_t>* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

/// Bounds-checked sequential reader over a byte span.  Every getter reports
/// failure through its return Status; after a failure the cursor stays put.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t offset() const { return off_; }
  size_t remaining() const { return size_ - off_; }

  Status U8(uint8_t* out) {
    if (off_ + 1 > size_) return Truncated("u8");
    *out = data_[off_++];
    return Status::OK();
  }

  Status U32Le(uint32_t* out) {
    if (off_ + 4 > size_) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[off_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    off_ += 4;
    *out = v;
    return Status::OK();
  }

  Status F64Le(double* out) {
    if (off_ + 8 > size_) return Truncated("f64");
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data_[off_ + static_cast<size_t>(i)])
              << (8 * i);
    }
    off_ += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }

  Status Varint(uint64_t* out) {
    uint64_t v = 0;
    size_t cursor = off_;
    for (int shift = 0; shift < 64; shift += 7) {
      if (cursor >= size_) return Truncated("varint");
      const uint8_t b = data_[cursor++];
      v |= static_cast<uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) {
        // The 10th byte may only contribute the top bit of the value;
        // anything more means the continuation chain overflowed 64 bits.
        if (shift == 63 && b > 1) {
          return Status::InvalidArgument("wire: varint overflows 64 bits");
        }
        off_ = cursor;
        *out = v;
        return Status::OK();
      }
    }
    return Status::InvalidArgument("wire: varint longer than 10 bytes");
  }

  Status Zigzag(int64_t* out) {
    uint64_t u = 0;
    Status s = Varint(&u);
    if (!s.ok()) return s;
    *out = ZigzagDecode(u);
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (n > remaining()) return Truncated("skip");
    off_ += n;
    return Status::OK();
  }

  Status String(std::string* out) {
    uint64_t len = 0;
    Status s = Varint(&len);
    if (!s.ok()) return s;
    if (len > remaining()) return Truncated("string");
    out->assign(reinterpret_cast<const char*>(data_ + off_),
                static_cast<size_t>(len));
    off_ += static_cast<size_t>(len);
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("wire: truncated ") + what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t off_ = 0;
};

// ---------------------------------------------------------------------------
// Message body.

/// Delta between consecutive ints, wrapping in two's complement (computed
/// in unsigned arithmetic: `v - prev` would be UB at the INT64 extremes).
/// The decoder inverts this with the matching unsigned addition.
inline long long DeltaWrap(long long v, long long prev) {
  return static_cast<long long>(static_cast<uint64_t>(v) -
                                static_cast<uint64_t>(prev));
}

/// Exact byte length of EncodeBody(msg) without materializing it — the
/// Network's per-hop accounting path.
inline size_t BodySize(const Message& msg) {
  size_t n = VarintSize(ZigzagEncode(msg.type)) + 1;  // packet id + flags.
  n += VarintSize(msg.ints.size());
  long long prev = 0;
  bool first = true;
  for (const long long v : msg.ints) {
    n += VarintSize(ZigzagEncode(first ? v : DeltaWrap(v, prev)));
    prev = v;
    first = false;
  }
  n += VarintSize(msg.doubles.size());
  n += 8 * msg.doubles.size();
  if (msg.rel_seq != -1 || msg.rel_from != -1) {
    n += VarintSize(ZigzagEncode(msg.rel_seq)) +
         VarintSize(ZigzagEncode(msg.rel_from));
  }
  return n;
}

/// Appends the version-1 body encoding of `msg` to `out`.
inline void EncodeBody(const Message& msg, std::vector<uint8_t>* out) {
  PutZigzag(msg.type, out);
  const bool envelope = msg.rel_seq != -1 || msg.rel_from != -1;
  uint8_t flags = 0;
  if (envelope) flags |= kFlagEnvelope;
  if (msg.rel_ack) flags |= kFlagRelAck;
  out->push_back(flags);
  PutVarint(msg.ints.size(), out);
  long long prev = 0;
  bool first = true;
  for (const long long v : msg.ints) {
    PutZigzag(first ? v : DeltaWrap(v, prev), out);
    prev = v;
    first = false;
  }
  PutVarint(msg.doubles.size(), out);
  for (const double d : msg.doubles) PutF64Le(d, out);
  if (envelope) {
    PutZigzag(msg.rel_seq, out);
    PutZigzag(msg.rel_from, out);
  }
}

// ---------------------------------------------------------------------------
// Frames.

/// Exact on-air byte length of one frame carrying `msg` — what every
/// single-hop transmission charges to the byte ledger.
inline size_t FrameSize(const Message& msg) {
  const size_t body = BodySize(msg);
  return 2 + VarintSize(body) + body + 4;
}

/// Frame bytes of a minimal version-1 frame carrying `ndoubles` coefficients
/// plus `nints` small (single-varint-byte) ids — the engine-level cost
/// models' bytes-on-wire charge for a logical hop whose concrete Message
/// never materializes.  Double values never affect the frame length, and
/// protocol ids are near zero, so this matches what the distributed
/// equivalent would put on the air.
inline size_t NominalFrameSize(size_t nints, size_t ndoubles) {
  Message m;
  m.type = 1;
  m.ints.assign(nints, 1);
  m.doubles.assign(ndoubles, 0.0);
  return FrameSize(m);
}

/// Appends a complete frame (magic, version, length, body, CRC) to `out`.
inline void EncodeFrame(const Message& msg, std::vector<uint8_t>* out) {
  out->reserve(out->size() + FrameSize(msg));
  out->push_back(kFrameMagic);
  const size_t covered_start = out->size();
  out->push_back(kWireVersion);
  const size_t body = BodySize(msg);
  PutVarint(body, out);
  EncodeBody(msg, out);
  PutU32Le(Crc32(out->data() + covered_start, out->size() - covered_start),
           out);
}

inline std::vector<uint8_t> EncodeFrame(const Message& msg) {
  std::vector<uint8_t> out;
  EncodeFrame(msg, &out);
  return out;
}

/// Parses one frame starting at `data`.  With `consumed` null the frame must
/// occupy the span exactly; otherwise `*consumed` reports its length and
/// trailing bytes are the caller's business (stream framing).  The returned
/// Message carries an empty category (see the header comment).  Every
/// malformed input — short reads, bad magic, unknown version, corrupted CRC,
/// inconsistent counts, trailing body bytes — yields an error Status.
inline Result<Message> DecodeFrame(const uint8_t* data, size_t size,
                                   size_t* consumed = nullptr) {
  if (size < 1) return Status::OutOfRange("wire: empty frame");
  if (data[0] != kFrameMagic) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  ByteReader header(data + 1, size - 1);
  uint8_t version = 0;
  Status s = header.U8(&version);
  if (!s.ok()) return s;
  if (version < kWireVersionMin || version > kWireVersionMax) {
    return Status::Unimplemented(
        "wire: unsupported version " + std::to_string(version) +
        " (this build speaks " + std::to_string(kWireVersionMin) + ".." +
        std::to_string(kWireVersionMax) + ")");
  }
  uint64_t body_len = 0;
  s = header.Varint(&body_len);
  if (!s.ok()) return s;
  if (body_len > kMaxBodyBytes) {
    return Status::InvalidArgument("wire: body length exceeds cap");
  }
  // header.offset() counts from the version byte (data + 1).
  const size_t body_start = 1 + header.offset();
  if (body_start + body_len + 4 > size) {
    return Status::OutOfRange("wire: truncated frame");
  }
  const uint32_t want_crc =
      Crc32(data + 1, body_start - 1 + static_cast<size_t>(body_len));
  ByteReader crc_reader(data + body_start + body_len, 4);
  uint32_t got_crc = 0;
  (void)crc_reader.U32Le(&got_crc);
  if (got_crc != want_crc) {
    return Status::InvalidArgument("wire: CRC mismatch");
  }
  const size_t frame_len = body_start + static_cast<size_t>(body_len) + 4;
  if (consumed == nullptr && frame_len != size) {
    return Status::InvalidArgument("wire: trailing bytes after frame");
  }

  ByteReader body(data + body_start, static_cast<size_t>(body_len));
  Message msg;
  int64_t type = 0;
  s = body.Zigzag(&type);
  if (!s.ok()) return s;
  if (type < INT32_MIN || type > INT32_MAX) {
    return Status::InvalidArgument("wire: packet id out of range");
  }
  msg.type = static_cast<int>(type);
  uint8_t flags = 0;
  s = body.U8(&flags);
  if (!s.ok()) return s;
  if ((flags & ~kKnownFlags) != 0) {
    return Status::InvalidArgument("wire: unknown flag bits");
  }
  uint64_t nints = 0;
  s = body.Varint(&nints);
  if (!s.ok()) return s;
  if (nints > kMaxFieldCount) {
    return Status::InvalidArgument("wire: int count exceeds cap");
  }
  msg.ints.reserve(static_cast<size_t>(nints));
  long long prev = 0;
  for (uint64_t i = 0; i < nints; ++i) {
    int64_t d = 0;
    s = body.Zigzag(&d);
    if (!s.ok()) return s;
    // Deltas wrap in two's complement, inverting the encoder exactly.
    const long long v =
        i == 0 ? d
               : static_cast<long long>(static_cast<uint64_t>(prev) +
                                        static_cast<uint64_t>(d));
    msg.ints.push_back(v);
    prev = v;
  }
  uint64_t ndoubles = 0;
  s = body.Varint(&ndoubles);
  if (!s.ok()) return s;
  if (ndoubles > kMaxFieldCount || body.remaining() < 8 * ndoubles) {
    return Status::InvalidArgument("wire: double count inconsistent");
  }
  msg.doubles.reserve(static_cast<size_t>(ndoubles));
  for (uint64_t i = 0; i < ndoubles; ++i) {
    double d = 0.0;
    s = body.F64Le(&d);
    if (!s.ok()) return s;
    msg.doubles.push_back(d);
  }
  if ((flags & kFlagEnvelope) != 0) {
    int64_t seq = 0, from = 0;
    s = body.Zigzag(&seq);
    if (!s.ok()) return s;
    s = body.Zigzag(&from);
    if (!s.ok()) return s;
    msg.rel_seq = seq;
    if (from < INT32_MIN || from > INT32_MAX) {
      return Status::InvalidArgument("wire: rel_from out of range");
    }
    msg.rel_from = static_cast<int>(from);
  }
  msg.rel_ack = (flags & kFlagRelAck) != 0;
  if (body.remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes inside body");
  }
  if (consumed != nullptr) *consumed = frame_len;
  return msg;
}

inline Result<Message> DecodeFrame(const std::vector<uint8_t>& frame,
                                   size_t* consumed = nullptr) {
  return DecodeFrame(frame.data(), frame.size(), consumed);
}

}  // namespace wire
}  // namespace elink

#endif  // ELINK_PROTO_WIRE_H_
