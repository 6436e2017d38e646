#include "sim/category.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/status.h"

namespace elink {

namespace {

struct Entry {
  std::string name;
  // Derived ids, 0 until first asked for (0 names "", never a derived name).
  std::atomic<CategoryId> retx{0};
  std::atomic<CategoryId> ack{0};
};

/// Entries live in fixed-size blocks that never move, so readers index them
/// without the lock: an entry is fully written before `size_` publishes it.
class Registry {
 public:
  Registry() { Intern(""); }

  CategoryId Intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(name); it != index_.end()) return it->second;
    const CategoryId id = size_;
    ELINK_CHECK(id / kBlockSize < kMaxBlocks);
    if (id % kBlockSize == 0) blocks_[id / kBlockSize] = new Entry[kBlockSize];
    Entry& e = blocks_[id / kBlockSize][id % kBlockSize];
    e.name = name;
    index_.emplace(e.name, id);
    size_ = id + 1;
    return id;
  }

  std::optional<CategoryId> Find(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  Entry& At(CategoryId id) {
    ELINK_CHECK(id < size_);
    return blocks_[id / kBlockSize][id % kBlockSize];
  }

 private:
  static constexpr CategoryId kBlockSize = 256;
  static constexpr CategoryId kMaxBlocks = 4096;

  std::mutex mu_;  // Serializes Intern: index_, size_, blocks_, names.
  std::unordered_map<std::string_view, CategoryId> index_;  // Views names.
  std::atomic<CategoryId> size_{0};
  Entry* blocks_[kMaxBlocks] = {};
};

Registry& TheRegistry() {
  // Never destroyed: names must outlive every static that renders a ledger.
  static Registry* registry = new Registry;
  return *registry;
}

}  // namespace

CategoryId InternCategory(std::string_view name) {
  return TheRegistry().Intern(name);
}

std::optional<CategoryId> FindCategory(std::string_view name) {
  return TheRegistry().Find(name);
}

const std::string& CategoryName(CategoryId id) {
  return TheRegistry().At(id).name;
}

CategoryId RetxCategory(CategoryId id) {
  Entry& e = TheRegistry().At(id);
  CategoryId retx = e.retx;
  if (retx == 0) {
    retx = InternCategory(e.name + ".retx");
    // A retransmitted copy acks as its original: expand.retx -> expand.ack.
    TheRegistry().At(retx).ack = AckCategory(id);
    e.retx = retx;
  }
  return retx;
}

CategoryId AckCategory(CategoryId id) {
  Entry& e = TheRegistry().At(id);
  CategoryId ack = e.ack;
  if (ack == 0) {
    ack = InternCategory(e.name + ".ack");
    e.ack = ack;
  }
  return ack;
}

}  // namespace elink
