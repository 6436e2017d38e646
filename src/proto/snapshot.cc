#include "proto/snapshot.h"

#include <cstring>

#include "proto/codec.h"
#include "proto/wire.h"

namespace elink {
namespace proto {

Status SnapshotWriter::AddSection(const std::string& name,
                                  std::vector<uint8_t> body) {
  for (const auto& [existing, bytes] : sections_) {
    if (existing == name) {
      return Status::InvalidArgument("snapshot: duplicate section '" + name +
                                     "'");
    }
  }
  sections_.emplace_back(name, std::move(body));
  return Status::OK();
}

std::vector<uint8_t> SnapshotWriter::Finish() const {
  std::vector<uint8_t> out;
  for (const uint8_t b : kSnapshotMagic) out.push_back(b);
  handshake_wire::Hello hello;
  hello.version_min = local_.min;
  hello.version_max = local_.max;
  wire::EncodeFrame(Encode(hello), &out);
  wire::PutVarint(sections_.size(), &out);
  for (const auto& [name, body] : sections_) {
    wire::PutString(name, &out);
    wire::PutVarint(body.size(), &out);
    const size_t body_start = out.size();
    out.insert(out.end(), body.begin(), body.end());
    uint32_t crc = wire::Crc32(
        reinterpret_cast<const uint8_t*>(name.data()), name.size());
    crc = wire::Crc32(out.data() + body_start, body.size(), crc);
    wire::PutU32Le(crc, &out);
  }
  return out;
}

Result<SnapshotReader> SnapshotReader::Parse(const uint8_t* data, size_t size,
                                             VersionRange local) {
  if (size < 4 || std::memcmp(data, kSnapshotMagic, 4) != 0) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  size_t hello_len = 0;
  Result<Message> hello_msg = wire::DecodeFrame(data + 4, size - 4, &hello_len);
  if (!hello_msg.ok()) {
    return Status::InvalidArgument("snapshot: bad hello frame: " +
                                   hello_msg.status().message());
  }
  Result<handshake_wire::Hello> hello = Decode<handshake_wire::Hello>(*hello_msg);
  if (!hello.ok()) {
    return Status::InvalidArgument("snapshot: bad hello payload: " +
                                   hello.status().message());
  }
  if (hello->version_min < 0 || hello->version_max > 255 ||
      hello->version_min > hello->version_max) {
    return Status::InvalidArgument("snapshot: nonsensical version span");
  }
  VersionRange remote;
  remote.min = static_cast<uint8_t>(hello->version_min);
  remote.max = static_cast<uint8_t>(hello->version_max);
  Result<uint8_t> agreed = NegotiateVersion(local, remote);
  if (!agreed.ok()) return agreed.status();

  SnapshotReader reader;
  reader.version_ = *agreed;
  wire::ByteReader r(data + 4 + hello_len, size - 4 - hello_len);
  uint64_t nsections = 0;
  Status s = r.Varint(&nsections);
  if (!s.ok()) return s;
  if (nsections > wire::kMaxFieldCount) {
    return Status::InvalidArgument("snapshot: section count exceeds cap");
  }
  for (uint64_t i = 0; i < nsections; ++i) {
    std::string name;
    s = r.String(&name);
    if (!s.ok()) return s;
    uint64_t body_len = 0;
    s = r.Varint(&body_len);
    if (!s.ok()) return s;
    if (body_len > wire::kMaxBodyBytes || body_len + 4 > r.remaining()) {
      return Status::OutOfRange("snapshot: truncated section '" + name + "'");
    }
    const uint8_t* body = data + 4 + hello_len + r.offset();
    uint32_t want = wire::Crc32(
        reinterpret_cast<const uint8_t*>(name.data()), name.size());
    want = wire::Crc32(body, static_cast<size_t>(body_len), want);
    (void)r.Skip(static_cast<size_t>(body_len));  // In range: checked above.
    uint32_t got = 0;
    s = r.U32Le(&got);
    if (!s.ok()) return s;
    if (got != want) {
      return Status::InvalidArgument("snapshot: CRC mismatch in section '" +
                                     name + "'");
    }
    if (reader.sections_.count(name)) {
      return Status::InvalidArgument("snapshot: duplicate section '" + name +
                                     "'");
    }
    reader.order_.push_back(name);
    reader.sections_.emplace(name, std::vector<uint8_t>(body, body + body_len));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes after archive");
  }
  return reader;
}

Result<SnapshotReader> SnapshotReader::Parse(const std::vector<uint8_t>& bytes,
                                             VersionRange local) {
  return Parse(bytes.data(), bytes.size(), local);
}

const std::vector<uint8_t>* SnapshotReader::section(
    const std::string& name) const {
  const auto it = sections_.find(name);
  return it == sections_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Section codecs.

std::vector<uint8_t> EncodeManifestSection(
    const std::map<std::string, std::string>& kv) {
  std::vector<uint8_t> out;
  wire::PutVarint(kv.size(), &out);
  for (const auto& [key, value] : kv) {
    wire::PutString(key, &out);
    wire::PutString(value, &out);
  }
  return out;
}

Result<std::map<std::string, std::string>> DecodeManifestSection(
    const std::vector<uint8_t>& body) {
  wire::ByteReader r(body.data(), body.size());
  uint64_t n = 0;
  Status s = r.Varint(&n);
  if (!s.ok()) return s;
  if (n > wire::kMaxFieldCount) {
    return Status::InvalidArgument("snapshot: manifest entry count cap");
  }
  std::map<std::string, std::string> kv;
  for (uint64_t i = 0; i < n; ++i) {
    std::string key, value;
    s = r.String(&key);
    if (!s.ok()) return s;
    s = r.String(&value);
    if (!s.ok()) return s;
    if (!kv.emplace(key, value).second) {
      return Status::InvalidArgument("snapshot: duplicate manifest key '" +
                                     key + "'");
    }
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes in manifest");
  }
  return kv;
}

std::vector<uint8_t> EncodeHorizonSection(const HorizonImage& h) {
  std::vector<uint8_t> out;
  wire::PutVarint(h.events, &out);
  wire::PutF64Le(h.now, &out);
  return out;
}

Result<HorizonImage> DecodeHorizonSection(const std::vector<uint8_t>& body) {
  wire::ByteReader r(body.data(), body.size());
  HorizonImage h;
  Status s = r.Varint(&h.events);
  if (!s.ok()) return s;
  s = r.F64Le(&h.now);
  if (!s.ok()) return s;
  if (r.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes in horizon");
  }
  return h;
}

std::vector<uint8_t> EncodeStatsSection(const MessageStats& stats) {
  std::vector<uint8_t> out;
  wire::PutVarint(stats.total_sends(), &out);
  wire::PutVarint(stats.total_units(), &out);
  wire::PutVarint(stats.total_bytes(), &out);
  wire::PutVarint(stats.dropped_sends(), &out);
  wire::PutVarint(stats.dropped_units(), &out);
  wire::PutVarint(stats.dropped_bytes(), &out);
  wire::PutVarint(stats.decode_errors(), &out);
  const std::vector<MessageStats::CategorySnapshot> cats = stats.Snapshot();
  wire::PutVarint(cats.size(), &out);
  for (const MessageStats::CategorySnapshot& c : cats) {
    wire::PutString(c.category, &out);
    wire::PutVarint(c.sends, &out);
    wire::PutVarint(c.units, &out);
    wire::PutVarint(c.bytes, &out);
    wire::PutVarint(c.dropped_sends, &out);
    wire::PutVarint(c.dropped_units, &out);
    wire::PutVarint(c.dropped_bytes, &out);
    wire::PutVarint(c.decode_errors, &out);
  }
  return out;
}

Result<StatsImage> DecodeStatsSection(const std::vector<uint8_t>& body) {
  wire::ByteReader r(body.data(), body.size());
  StatsImage img;
  Status s;
  uint64_t* const totals[] = {&img.total_sends,   &img.total_units,
                              &img.total_bytes,   &img.dropped_sends,
                              &img.dropped_units, &img.dropped_bytes,
                              &img.decode_errors};
  for (uint64_t* field : totals) {
    s = r.Varint(field);
    if (!s.ok()) return s;
  }
  uint64_t ncats = 0;
  s = r.Varint(&ncats);
  if (!s.ok()) return s;
  if (ncats > wire::kMaxFieldCount) {
    return Status::InvalidArgument("snapshot: category count cap");
  }
  for (uint64_t i = 0; i < ncats; ++i) {
    MessageStats::CategorySnapshot c;
    s = r.String(&c.category);
    if (!s.ok()) return s;
    uint64_t* const fields[] = {&c.sends,         &c.units,
                                &c.bytes,         &c.dropped_sends,
                                &c.dropped_units, &c.dropped_bytes,
                                &c.decode_errors};
    for (uint64_t* field : fields) {
      s = r.Varint(field);
      if (!s.ok()) return s;
    }
    img.categories.push_back(std::move(c));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes in stats");
  }
  return img;
}

std::vector<uint8_t> EncodeNodeStatesSection(Network& network) {
  std::vector<uint8_t> out;
  const int n = network.num_nodes();
  wire::PutVarint(static_cast<uint64_t>(n), &out);
  std::vector<uint8_t> blob;
  for (int id = 0; id < n; ++id) {
    blob.clear();
    network.node(id)->EncodeSnapshotState(&blob);
    wire::PutVarint(blob.size(), &out);
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

}  // namespace proto
}  // namespace elink
