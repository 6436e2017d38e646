#include "sim/event_queue.h"

namespace elink {

void EventQueue::ScheduleAt(double time, Callback cb) {
  ELINK_CHECK(time >= Now());
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

void EventQueue::Refill() {
  std::vector<Entry>& front = slots_[0];
  front.clear();
  cursor_ = 0;
  // Every pending event is in a higher slot; the lowest one holds the
  // earliest.
  const int slot = std::countr_zero(occupied_ & ~uint64_t{1});
  std::vector<Entry>& next = slots_[slot];
  occupied_ &= ~(uint64_t{1} << slot);
  const uint64_t first = next.front().time_bits;
  uint64_t earliest = first;
  bool one_time = true;
  for (const Entry& e : next) {
    one_time &= e.time_bits == first;
    if (e.time_bits < earliest) earliest = e.time_bits;
  }
  now_bits_ = earliest;
  if (one_time) {
    front.swap(next);
    return;
  }
  // Relative to the new Now() every entry of `next` lands in a lower slot
  // (all of them empty), and the earliest ones in slot 0.  Moving them in
  // order keeps equal timestamps in schedule order.
  for (const Entry& e : next) Push(e);
  next.clear();
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

uint64_t EventQueue::RunAll(uint64_t max_events) {
  // Dispatch can append to slot 0 (an event scheduled at exactly Now()): its
  // size is re-read every iteration and appends keep (time, seq) order, so
  // such events fire in this same sweep.
  uint64_t n = 0;
  while (size_ != 0 && n < max_events) {
    if (cursor_ == slots_[0].size()) Refill();
    const Item item = slots_[0][cursor_++].item;
    --size_;
    ++n;
    Dispatch(item);
  }
  return n;
}

}  // namespace elink
