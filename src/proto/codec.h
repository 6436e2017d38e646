// Typed message schemas over sim::Message.
//
// Every protocol message is described once as a plain struct ("schema") and
// converted to/from the wire Message by the templates here, instead of each
// handler indexing msg.ints / msg.doubles by hand.  Encoding is infallible;
// decoding is bounds-checked and returns Result<M>, so a truncated or
// malformed frame becomes a protocol-level error, never undefined behavior.
//
// A schema declares, in wire order:
//
//   struct Expand {
//     static constexpr int kType = 1;          // Message::type tag.
//     static constexpr const char* kCategory = "expand";
//     long long root = 0;                      // -> Message::ints
//     long long level = 0;                     // -> Message::ints
//     std::vector<double> feature;             // -> Message::doubles
//     template <class V> void VisitFields(V& v) {
//       v.I64(root);
//       v.I64(level);
//       v.Block(feature);
//     }
//     bool operator==(const Expand&) const = default;
//   };
//
// Field kinds:
//   I64    — required long long, appended to Message::ints.
//   OptI64 — std::optional<long long>; optional trailing int (present iff the
//            wire message carries it).  Optionals must follow all required
//            ints of the schema.
//   F64    — required double, appended to Message::doubles.
//   Block  — std::vector<double> of variable length (feature vectors, query
//            payloads).  At most one per schema; its decoded length is
//            whatever the fixed F64 fields leave over.
//
// Decode<M> verifies the type tag and the ints/doubles arity before any
// element access: too-short ints, a doubles array that cannot satisfy the
// fixed fields, or (for block-less schemas) surplus doubles all yield an
// error Status.  Payload layout is exactly what the hand-rolled encoders
// produced, so ports of existing protocols stay bit-identical on the wire.
#ifndef ELINK_PROTO_CODEC_H_
#define ELINK_PROTO_CODEC_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/message.h"

namespace elink {
namespace proto {

namespace internal {

struct EncodeVisitor {
  Message* msg;
  void I64(const long long& v) { msg->ints.push_back(v); }
  void OptI64(const std::optional<long long>& v) {
    if (v.has_value()) msg->ints.push_back(*v);
  }
  void F64(const double& v) { msg->doubles.push_back(v); }
  void Block(const std::vector<double>& v) {
    msg->doubles.insert(msg->doubles.end(), v.begin(), v.end());
  }
};

/// Counts a schema's wire arity; runs on a default-constructed instance.
struct ShapeVisitor {
  size_t required_ints = 0;
  size_t optional_ints = 0;
  size_t fixed_doubles = 0;
  bool has_block = false;
  void I64(long long&) { ++required_ints; }
  void OptI64(std::optional<long long>&) { ++optional_ints; }
  void F64(double&) { ++fixed_doubles; }
  void Block(std::vector<double>&) { has_block = true; }
};

struct DecodeVisitor {
  const Message* msg;
  size_t block_len = 0;
  size_t int_cursor = 0;
  size_t dbl_cursor = 0;
  void I64(long long& out) { out = msg->ints[int_cursor++]; }
  void OptI64(std::optional<long long>& out) {
    if (int_cursor < msg->ints.size()) {
      out = msg->ints[int_cursor++];
    } else {
      out.reset();
    }
  }
  void F64(double& out) { out = msg->doubles[dbl_cursor++]; }
  void Block(std::vector<double>& out) {
    out.assign(msg->doubles.begin() + static_cast<long>(dbl_cursor),
               msg->doubles.begin() + static_cast<long>(dbl_cursor + block_len));
    dbl_cursor += block_len;
  }
};

}  // namespace internal

/// The interned id of schema M's kCategory, resolved on the first call only.
template <typename M>
CategoryId SchemaCategory() {
  static const CategoryId id = InternCategory(M::kCategory);
  return id;
}

/// Serializes a schema instance into a wire Message.  Field order in
/// VisitFields is wire order; type/category come from the schema constants.
template <typename M>
Message Encode(const M& m) {
  Message msg;
  msg.type = M::kType;
  msg.category = SchemaCategory<M>();
  internal::EncodeVisitor v{&msg};
  // VisitFields is non-const so one definition serves encode and decode; the
  // encode visitor only reads through the references.
  const_cast<M&>(m).VisitFields(v);
  return msg;
}

/// Parses a wire Message into schema M, verifying the type tag and that the
/// ints/doubles arrays satisfy the schema's arity *before* any element is
/// touched.  Malformed frames (wrong type, truncated or surplus fields)
/// return an error Status.
template <typename M>
Result<M> Decode(const Message& msg) {
  M out{};
  if (msg.type != M::kType) {
    return Status::InvalidArgument(
        std::string(M::kCategory) + ": wire type " + std::to_string(msg.type) +
        " does not match schema type " + std::to_string(M::kType));
  }
  internal::ShapeVisitor shape;
  out.VisitFields(shape);
  const size_t ni = msg.ints.size();
  if (ni < shape.required_ints ||
      ni > shape.required_ints + shape.optional_ints) {
    return Status::OutOfRange(
        std::string(M::kCategory) + ": message carries " + std::to_string(ni) +
        " ints, schema expects " + std::to_string(shape.required_ints) +
        (shape.optional_ints > 0
             ? ".." + std::to_string(shape.required_ints + shape.optional_ints)
             : ""));
  }
  const size_t nd = msg.doubles.size();
  if (shape.has_block ? nd < shape.fixed_doubles : nd != shape.fixed_doubles) {
    return Status::OutOfRange(
        std::string(M::kCategory) + ": message carries " + std::to_string(nd) +
        " doubles, schema expects " +
        (shape.has_block ? ">= " : "exactly ") +
        std::to_string(shape.fixed_doubles));
  }
  internal::DecodeVisitor v{&msg,
                            shape.has_block ? nd - shape.fixed_doubles : 0};
  out.VisitFields(v);
  return out;
}

}  // namespace proto
}  // namespace elink

#endif  // ELINK_PROTO_CODEC_H_
