#include "sim/stats.h"

#include <algorithm>
#include <optional>

#include "common/strings.h"

namespace elink {

MessageStats::Counters& MessageStats::At(CategoryId category) {
  if (category >= counters_.size()) counters_.resize(category + 1);
  return counters_[category];
}

MessageStats::Counters MessageStats::Named(std::string_view category) const {
  const std::optional<CategoryId> id = FindCategory(category);
  return id && *id < counters_.size() ? counters_[*id] : Counters{};
}

void MessageStats::Record(CategoryId category, int units, uint64_t bytes) {
  total_sends_ += 1;
  total_units_ += static_cast<uint64_t>(units);
  total_bytes_ += bytes;
  Counters& c = At(category);
  c.units += static_cast<uint64_t>(units);
  c.sends += 1;
  c.bytes += bytes;
}

void MessageStats::RecordDropped(CategoryId category, int units,
                                 uint64_t bytes) {
  dropped_sends_ += 1;
  dropped_units_ += static_cast<uint64_t>(units);
  dropped_bytes_ += bytes;
  Counters& c = At(category);
  c.dropped_units += static_cast<uint64_t>(units);
  c.dropped_sends += 1;
  c.dropped_bytes += bytes;
}

void MessageStats::RecordDecodeError(CategoryId category) {
  decode_errors_ += 1;
  At(category).decode_errors += 1;
}

uint64_t MessageStats::decode_errors(std::string_view category) const {
  return Named(category).decode_errors;
}

uint64_t MessageStats::units(std::string_view category) const {
  return Named(category).units;
}

uint64_t MessageStats::sends(std::string_view category) const {
  return Named(category).sends;
}

uint64_t MessageStats::dropped(std::string_view category) const {
  return Named(category).dropped_units;
}

uint64_t MessageStats::bytes(std::string_view category) const {
  return Named(category).bytes;
}

uint64_t MessageStats::dropped_sends(std::string_view category) const {
  return Named(category).dropped_sends;
}

std::vector<MessageStats::CategorySnapshot> MessageStats::Snapshot() const {
  std::vector<CategorySnapshot> out;
  for (CategoryId id = 0; id < counters_.size(); ++id) {
    const Counters& c = counters_[id];
    if (c.sends == 0 && c.dropped_sends == 0 && c.decode_errors == 0) {
      continue;
    }
    out.push_back(CategorySnapshot{CategoryName(id), c.units, c.sends, c.bytes,
                                   c.dropped_units, c.dropped_sends,
                                   c.dropped_bytes, c.decode_errors});
  }
  std::sort(out.begin(), out.end(),
            [](const CategorySnapshot& a, const CategorySnapshot& b) {
              return a.category < b.category;
            });
  return out;
}

std::map<std::string, uint64_t> MessageStats::units_by_category() const {
  std::map<std::string, uint64_t> out;
  for (CategoryId id = 0; id < counters_.size(); ++id) {
    if (counters_[id].sends > 0) out[CategoryName(id)] = counters_[id].units;
  }
  return out;
}

std::map<std::string, uint64_t> MessageStats::dropped_by_category() const {
  std::map<std::string, uint64_t> out;
  for (CategoryId id = 0; id < counters_.size(); ++id) {
    if (counters_[id].dropped_sends > 0) {
      out[CategoryName(id)] = counters_[id].dropped_units;
    }
  }
  return out;
}

void MessageStats::Reset() { *this = MessageStats(); }

void MessageStats::Merge(const MessageStats& other) {
  total_sends_ += other.total_sends_;
  total_units_ += other.total_units_;
  total_bytes_ += other.total_bytes_;
  dropped_sends_ += other.dropped_sends_;
  dropped_units_ += other.dropped_units_;
  dropped_bytes_ += other.dropped_bytes_;
  decode_errors_ += other.decode_errors_;
  if (counters_.size() < other.counters_.size()) {
    counters_.resize(other.counters_.size());
  }
  for (CategoryId id = 0; id < other.counters_.size(); ++id) {
    const Counters& oc = other.counters_[id];
    Counters& c = counters_[id];
    c.units += oc.units;
    c.sends += oc.sends;
    c.bytes += oc.bytes;
    c.dropped_units += oc.dropped_units;
    c.dropped_sends += oc.dropped_sends;
    c.dropped_bytes += oc.dropped_bytes;
    c.decode_errors += oc.decode_errors;
  }
}

std::string MessageStats::ToString() const {
  std::string out = StringPrintf("sends=%llu units=%llu",
                                 static_cast<unsigned long long>(total_sends_),
                                 static_cast<unsigned long long>(total_units_));
  const std::map<std::string, uint64_t> by_units = units_by_category();
  if (!by_units.empty()) {
    out += " (";
    bool first = true;
    for (const auto& [k, v] : by_units) {
      if (!first) out += ", ";
      first = false;
      out += k + "=" + StringPrintf("%llu", static_cast<unsigned long long>(v));
    }
    out += ")";
  }
  // Fault-free runs render exactly as before; losses append a suffix.
  if (dropped_sends_ > 0) {
    out += StringPrintf(" dropped=%llu/%llu",
                        static_cast<unsigned long long>(dropped_sends_),
                        static_cast<unsigned long long>(dropped_units_));
  }
  if (decode_errors_ > 0) {
    out += StringPrintf(" decode_errors=%llu",
                        static_cast<unsigned long long>(decode_errors_));
  }
  return out;
}

}  // namespace elink
