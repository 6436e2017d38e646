#include "sim/event_queue.h"

namespace elink {

namespace {

// SplitMix64 finalizer.  Timestamps are IEEE-754 bit patterns whose low
// mantissa bits are frequently all-zero (integer times, dyadic delays), so
// masking raw bits would pile every key on one probe chain.
inline uint64_t HashBits(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

constexpr size_t kInitialTableSize = 16;  // power of two

}  // namespace

void EventQueue::ScheduleAt(double time, Callback cb) {
  ELINK_CHECK(time >= now_);
  uint32_t slot;
  if (free_callbacks_.empty()) {
    slot = static_cast<uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  Enqueue(TimeBits(time), Item{kKindCallback << kKindShift, slot, 0});
}

void EventQueue::Enqueue(uint64_t time_bits, Item item) {
  uint32_t b;
  if (time_bits == memo_time_bits_) {
    b = memo_bucket_;
  } else {
    b = BucketFor(time_bits);
    memo_time_bits_ = time_bits;
    memo_bucket_ = b;
  }
  buckets_[b].items.push_back(item);
  ++size_;
  if (size_ > peak_size_) peak_size_ = size_;
}

uint32_t EventQueue::BucketFor(uint64_t time_bits) {
  if ((table_used_ + 1) * 10 >= table_.size() * 7) GrowTable();
  const size_t mask = table_.size() - 1;
  size_t i = HashBits(time_bits) & mask;
  while (table_[i].occupied) {
    if (table_[i].time_bits == time_bits) return table_[i].bucket;
    i = (i + 1) & mask;
  }
  // First event at this timestamp: open a bucket and enter it in the heap.
  uint32_t b;
  if (free_buckets_.empty()) {
    buckets_.emplace_back();
    b = static_cast<uint32_t>(buckets_.size() - 1);
  } else {
    b = free_buckets_.back();
    free_buckets_.pop_back();
  }
  table_[i] = TableEntry{time_bits, b, 1};
  ++table_used_;
  heap_.push_back(TimeEntry{time_bits, b});
  SiftUp(heap_.size() - 1);
  return b;
}

void EventQueue::GrowTable() {
  const size_t new_size =
      table_.empty() ? kInitialTableSize : table_.size() * 2;
  std::vector<TableEntry> old = std::move(table_);
  table_.assign(new_size, TableEntry{0, 0, 0});
  const size_t mask = new_size - 1;
  for (const TableEntry& e : old) {
    if (!e.occupied) continue;
    size_t i = HashBits(e.time_bits) & mask;
    while (table_[i].occupied) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void EventQueue::TableErase(uint64_t time_bits) {
  const size_t mask = table_.size() - 1;
  size_t i = HashBits(time_bits) & mask;
  while (table_[i].time_bits != time_bits || !table_[i].occupied) {
    i = (i + 1) & mask;
  }
  table_[i].occupied = 0;
  --table_used_;
  // Backward-shift deletion keeps probe chains gap-free without tombstones.
  size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (!table_[j].occupied) break;
    const size_t home = HashBits(table_[j].time_bits) & mask;
    const bool movable =
        (j > i) ? (home <= i || home > j) : (home <= i && home > j);
    if (movable) {
      table_[i] = table_[j];
      table_[j].occupied = 0;
      i = j;
    }
  }
}

void EventQueue::SiftUp(size_t i) {
  if (i == 0) return;
  size_t parent = (i - 1) / 4;
  if (heap_[i].time_bits >= heap_[parent].time_bits) return;
  // Hole insertion: shift ancestors down over the hole, place once.
  const TimeEntry entry = heap_[i];
  do {
    heap_[i] = heap_[parent];
    i = parent;
    parent = (i - 1) / 4;
  } while (i > 0 && entry.time_bits < heap_[parent].time_bits);
  heap_[i] = entry;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const TimeEntry entry = heap_[i];
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    // Smallest of up to four children.
    size_t best = first_child;
    const size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].time_bits < heap_[best].time_bits) best = c;
    }
    if (heap_[best].time_bits >= entry.time_bits) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void EventQueue::Dispatch(const Item& item) {
  switch (item.a >> kKindShift) {
    case kKindCallback: {
      // Moved out and its slot freed before the call: the closure may
      // schedule, and so grow callbacks_, without moving itself.  The slot
      // is emptied explicitly (a moved-from std::function is unspecified),
      // so the captures die with this call.  Generic callbacks are genesis
      // events causally — they come from driver code, not a handler.
      active_cause_ = 0;
      Callback cb = std::exchange(callbacks_[item.b], nullptr);
      free_callbacks_.push_back(item.b);
      cb();
      break;
    }
    case kKindDelivery:
      on_delivery_(handler_ctx_, static_cast<int>(item.a & kArgMask),
                   static_cast<int>(item.b),
                   reinterpret_cast<void*>(item.c));
      break;
    default:
      on_timer_(handler_ctx_, static_cast<int>(item.a & kArgMask),
                static_cast<int>(item.b), item.c);
      break;
  }
}

void EventQueue::RetireFrontBucket(uint64_t time_bits, uint32_t bucket) {
  Bucket& bk = buckets_[bucket];
  bk.items.clear();
  bk.cursor = 0;
  free_buckets_.push_back(bucket);
  // The retired bucket id may be recycled for a different timestamp.
  if (memo_time_bits_ == time_bits) memo_time_bits_ = ~0ULL;
  TableErase(time_bits);
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

uint64_t EventQueue::RunAll(uint64_t max_events) {
  // Bulk-synchronous drain: resolve the front bucket once per distinct
  // timestamp and sweep its FIFO.  Dispatch can append to the *current*
  // bucket (a callback scheduling at exactly Now()): the size is re-read
  // every iteration and append order is (time, seq) order, so such events
  // fire in this same sweep.
  // Dispatch can also grow buckets_/heap_ (scheduling at new timestamps),
  // so the bucket is re-resolved by index after every dispatch.
  uint64_t n = 0;
  while (size_ != 0 && n < max_events) {
    const TimeEntry top = heap_.front();
    now_ = TimeFromBits(top.time_bits);
    for (;;) {
      Bucket& bk = buckets_[top.bucket];
      const uint32_t cursor = bk.cursor;
      if (cursor >= bk.items.size()) {
        RetireFrontBucket(top.time_bits, top.bucket);
        break;
      }
      if (n >= max_events) return n;  // Bucket stays front, cursor kept.
      bk.cursor = cursor + 1;
      const Item item = bk.items[cursor];
      --size_;
      ++n;
      Dispatch(item);
    }
  }
  return n;
}

}  // namespace elink
