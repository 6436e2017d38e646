// Deterministic discrete-event queue.
//
// Events fire in (time, sequence) order: ties in simulated time are broken by
// insertion order, which makes every simulation run bit-reproducible for a
// given seed regardless of container iteration quirks.
//
// Hot-path layout:
//
//  * The queue is a monotone radix heap over the timestamps' IEEE-754 bit
//    patterns, which order exactly like the values for the non-negative
//    times the queue admits (-0.0 is canonicalized to +0.0, NaN rejected by
//    the time >= Now() check).  A pending event sits in slot
//    bit_width(bits ^ bits(Now())): slot 0 holds the events at Now(), slot
//    s > 0 those whose highest bit differing from Now() is bit s - 1.  The
//    sign bit never differs, so 64 slots cover every time.  Enqueue is an
//    XOR, a bit count and a vector append; there are no per-event sequence
//    numbers and no comparisons.
//  * Slot 0 is a FIFO read through a cursor.  When it runs dry, the lowest
//    non-empty slot (found in an occupancy mask) holds the next timestamp:
//    its minimum becomes Now(), and the slot is either swapped into slot 0
//    whole, when all its events share that timestamp (every round of the
//    synchronous regime), or redistributed in order into the lower slots.
//    No event in a higher slot changes slot when Now() advances this way,
//    so each event moves at most once per bit of its distance from Now().
//  * Equal timestamps stay FIFO: events with one timestamp always share a
//    slot, appends keep their schedule order, and a refill moves them in
//    order into slots that were empty.  So (time, seq) dispatch holds with
//    no sequence storage, and a capped drain resumes mid-timestamp at the
//    cursor.
//  * An item is a 16-byte POD of three kinds.  The dominant simulator
//    events — message deliveries and protocol timers — are stored *inline*
//    (endpoints plus a payload pointer / generation) and dispatched through
//    a handler installed once by the Network: no closure is constructed,
//    moved, or destroyed for them at all.  Everything else is a generic
//    callback: a std::function in a slot of a plain vector, recycled via a
//    free list.  Dispatch moves the callback out of its slot and frees the
//    slot before calling it, so a callback may schedule (and grow the
//    vector) freely.
#ifndef ELINK_SIM_EVENT_QUEUE_H_
#define ELINK_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"

namespace elink {

/// \brief Priority queue of timestamped callbacks and inline POD events.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Handler for inline delivery events (installed once by the Network).
  using DeliveryHandler = void (*)(void* ctx, int from, int to, void* payload);
  /// Handler for inline timer events.  `aux` is an opaque 64-bit word the
  /// scheduler round-trips untouched; the Network packs the restart
  /// generation into its low half (and, while tracing, a causal-parent slot
  /// into the high half).
  using TimerHandler = void (*)(void* ctx, int node, int timer_id,
                                uint64_t aux);

  /// Installs the dispatch target for inline delivery/timer events.  Must be
  /// set before the first ScheduleDeliveryAfter/ScheduleTimerAfter.
  void SetInlineHandlers(DeliveryHandler on_delivery, TimerHandler on_timer,
                         void* ctx) {
    on_delivery_ = on_delivery;
    on_timer_ = on_timer;
    handler_ctx_ = ctx;
  }

  /// Schedules `cb` to run at absolute time `time` (must be >= Now()).
  void ScheduleAt(double time, Callback cb);

  /// Schedules `cb` to run `delay` from now (delay >= 0).
  void ScheduleAfter(double delay, Callback cb) {
    ELINK_CHECK(delay >= 0.0);
    ScheduleAt(Now() + delay, std::move(cb));
  }

  /// Schedules an inline delivery event: at `delay` from now the installed
  /// DeliveryHandler fires with (from, to, payload).  No closure exists; the
  /// three words are the whole event.
  void ScheduleDeliveryAfter(double delay, int from, int to, void* payload) {
    ELINK_CHECK(delay >= 0.0);
    Enqueue(TimeBits(Now() + delay),
            Item{(kKindDelivery << kKindShift) | static_cast<uint32_t>(from),
                 static_cast<uint32_t>(to),
                 reinterpret_cast<uint64_t>(payload)});
  }

  /// Schedules an inline timer event for the installed TimerHandler.
  void ScheduleTimerAfter(double delay, int node, int timer_id,
                          uint64_t aux) {
    ELINK_CHECK(delay >= 0.0);
    Enqueue(TimeBits(Now() + delay),
            Item{(kKindTimer << kKindShift) | static_cast<uint32_t>(node),
                 static_cast<uint32_t>(timer_id), aux});
  }

  /// Current simulated time: the timestamp of the event dispatched last.
  double Now() const {
    double time;
    std::memcpy(&time, &now_bits_, sizeof(time));
    return time;
  }

  bool Empty() const { return size_ == 0; }
  size_t Size() const { return size_; }

  /// High-water mark of Size() over the queue's lifetime.
  size_t PeakSize() const { return peak_size_; }

  /// Causal id of the handler activation currently executing (0 = none).
  /// Written by the Network's delivery/timer handlers while an observer is
  /// attached; cleared by the dispatcher before every generic callback so
  /// driver-scheduled closures are never misattributed to whichever handler
  /// happened to run last.  Purely observational: no simulation decision
  /// ever reads it.
  uint64_t active_cause() const { return active_cause_; }
  void set_active_cause(uint64_t cause) { active_cause_ = cause; }

  /// Runs events until the queue empties or `max_events` dispatches.
  /// Resumable mid-timestamp: a capped drain leaves the rest of Now()'s
  /// events in place behind the cursor, so splitting one drain into several
  /// is unobservable.  Returns the number of events dispatched.
  uint64_t RunAll(uint64_t max_events = UINT64_MAX);

 private:
  // Item kinds, stored in the top bits of Item::a.  Node ids therefore top
  // out at 2^30 - 1 — three orders of magnitude past the 1M-node target.
  static constexpr uint32_t kKindCallback = 0;
  static constexpr uint32_t kKindDelivery = 1;
  static constexpr uint32_t kKindTimer = 2;
  static constexpr uint32_t kKindShift = 30;
  static constexpr uint32_t kArgMask = (1u << kKindShift) - 1;

  /// One scheduled event, 16 bytes, trivially copyable.
  ///  kind == callback: b is the slot of the parked callback.
  ///  kind == delivery: a&mask = from, b = to, c = payload pointer.
  ///  kind == timer:    a&mask = node, b = timer id, c = restart generation.
  struct Item {
    uint32_t a;
    uint32_t b;
    uint64_t c;
  };

  /// A pending item with its timestamp's bit pattern.
  struct Entry {
    uint64_t time_bits;
    Item item;
  };

  static uint64_t TimeBits(double time) {
    // +0.0 canonicalizes a (valid, schedulable) -0.0, whose bit pattern
    // would otherwise compare above every positive time.
    const double canonical = time + 0.0;
    uint64_t bits;
    std::memcpy(&bits, &canonical, sizeof(bits));
    return bits;
  }

  /// Appends an entry to its slot relative to Now().
  void Push(const Entry& entry) {
    const int slot = std::bit_width(entry.time_bits ^ now_bits_);
    slots_[slot].push_back(entry);
    occupied_ |= uint64_t{1} << slot;
  }

  void Enqueue(uint64_t time_bits, Item item) {
    Push(Entry{time_bits, item});
    ++size_;
    if (size_ > peak_size_) peak_size_ = size_;
  }

  /// Advances Now() to the next pending timestamp and moves its events into
  /// slot 0.  Slot 0 must be fully read and the queue non-empty.
  void Refill();

  /// Dispatches one dequeued item (after all queue state is consistent).
  void Dispatch(const Item& item);

  // slots_[s] holds the pending events whose timestamp bits differ from
  // now_bits_ first at bit s - 1; slots_[0] those at Now().
  std::array<std::vector<Entry>, 64> slots_;
  // Bit s set when slots_[s] may be non-empty (exact for s > 0).
  uint64_t occupied_ = 0;
  // Next unread entry of slots_[0].
  size_t cursor_ = 0;
  uint64_t now_bits_ = 0;  // +0.0
  // Pending generic callbacks by slot, recycled via a free list.
  std::vector<Callback> callbacks_;
  std::vector<uint32_t> free_callbacks_;
  DeliveryHandler on_delivery_ = nullptr;
  TimerHandler on_timer_ = nullptr;
  void* handler_ctx_ = nullptr;
  uint64_t active_cause_ = 0;
  size_t size_ = 0;
  size_t peak_size_ = 0;
};

}  // namespace elink

#endif  // ELINK_SIM_EVENT_QUEUE_H_
