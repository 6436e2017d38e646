// Deterministic discrete-event queue.
//
// Events fire in (time, sequence) order: ties in simulated time are broken by
// insertion order, which makes every simulation run bit-reproducible for a
// given seed regardless of container iteration quirks.
//
// Hot-path layout:
//
//  * Events are grouped into FIFO buckets by *distinct* timestamp.  The
//    simulator's dominant regimes — synchronous unit hop delays, integer
//    timer grids, the handful of distinct retransmission offsets — put many
//    events on few distinct times, so both enqueue (append to an existing
//    bucket) and dispatch (advance the bucket cursor) are O(1) there.
//    Within a bucket, append order equals global schedule order, which *is*
//    ascending sequence order, so the (time, seq) dispatch contract holds
//    with no per-event sequence storage at all.
//  * Distinct pending times live in an implicit 4-ary min-heap of 16-byte
//    POD entries (timestamp as its IEEE-754 bit pattern, order-preserving
//    for the non-negative times the queue admits, plus a bucket index).
//    Heap sifts therefore move two machine words once per *distinct time*,
//    never per event and never a callback.  Bucket lookup by timestamp is a
//    flat open-addressing hash table sized to the live distinct times.
//  * A bucket item is a 16-byte POD of three kinds.  The dominant simulator
//    events — message deliveries and protocol timers — are stored *inline*
//    (endpoints plus a payload pointer / generation) and dispatched through
//    a handler installed once by the Network: no closure is constructed,
//    moved, or destroyed for them at all.  Everything else is a generic
//    callback: a std::function in a slot of a plain vector, recycled via a
//    free list.  Dispatch moves the callback out of its slot and frees the
//    slot before calling it, so a callback may schedule (and grow the
//    vector) freely.
//  * RunAll drains bucket-at-a-time: the front bucket is resolved once per
//    distinct timestamp and its FIFO is swept in a tight loop — the
//    bulk-synchronous fast path.  In synchronous-round mode every delivery
//    of a round lands in one bucket, so a whole round dispatches with a
//    single heap pop at its end and no per-event heap traffic.
#ifndef ELINK_SIM_EVENT_QUEUE_H_
#define ELINK_SIM_EVENT_QUEUE_H_

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
    ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Schedules an inline delivery event: at `delay` from now the installed
  /// DeliveryHandler fires with (from, to, payload).  No closure exists; the
  /// three words are the whole event.
  void ScheduleDeliveryAfter(double delay, int from, int to, void* payload) {
    ELINK_CHECK(delay >= 0.0);
    Enqueue(TimeBits(now_ + delay),
            Item{(kKindDelivery << kKindShift) | static_cast<uint32_t>(from),
                 static_cast<uint32_t>(to),
                 reinterpret_cast<uint64_t>(payload)});
  }

  /// Schedules an inline timer event for the installed TimerHandler.
  void ScheduleTimerAfter(double delay, int node, int timer_id,
                          uint64_t aux) {
    ELINK_CHECK(delay >= 0.0);
    Enqueue(TimeBits(now_ + delay),
            Item{(kKindTimer << kKindShift) | static_cast<uint32_t>(node),
                 static_cast<uint32_t>(timer_id), aux});
  }

  /// Current simulated time: the timestamp of the event dispatched last.
  double Now() const { return now_; }

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

  /// Runs events until the queue empties or `max_events` dispatches,
  /// draining bucket-at-a-time (the bulk-synchronous fast path).  Resumable
  /// mid-timestamp: a capped drain leaves the rest of the front bucket in
  /// place, so splitting one drain into several is unobservable.  Returns
  /// the number of events dispatched.
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

  /// One distinct pending timestamp in the time heap.  `time_bits` is the
  /// IEEE-754 pattern of the timestamp — for non-negative doubles (NaN
  /// excluded; both enforced by the time >= Now() >= 0 check) the unsigned
  /// bit patterns order exactly like the values.  Entries carry unique
  /// times, so comparisons need no tie-break.
  struct TimeEntry {
    uint64_t time_bits;
    uint32_t bucket;
  };

  /// FIFO of the items scheduled for one distinct timestamp.
  struct Bucket {
    std::vector<Item> items;
    uint32_t cursor = 0;
  };

  /// Flat hash table entry mapping a live timestamp to its bucket.
  struct TableEntry {
    uint64_t time_bits;
    uint32_t bucket;
    uint8_t occupied;
  };

  static uint64_t TimeBits(double time) {
    // +0.0 canonicalizes a (valid, schedulable) -0.0, whose bit pattern
    // would otherwise compare above every positive time.
    const double canonical = time + 0.0;
    uint64_t bits;
    std::memcpy(&bits, &canonical, sizeof(bits));
    return bits;
  }

  static double TimeFromBits(uint64_t bits) {
    double time;
    std::memcpy(&time, &bits, sizeof(time));
    return time;
  }

  /// Appends `item` to the bucket for `time_bits`, creating the bucket (and
  /// its time-heap entry) on first use of that timestamp.
  void Enqueue(uint64_t time_bits, Item item);

  /// Returns the bucket id for `time_bits`, inserting a fresh bucket into
  /// the hash table and the time heap on miss.
  uint32_t BucketFor(uint64_t time_bits);

  /// Dispatches one dequeued item (after all queue state is consistent).
  void Dispatch(const Item& item);

  /// Retires the exhausted front bucket: recycles it, erases its timestamp,
  /// pops the time heap.
  void RetireFrontBucket(uint64_t time_bits, uint32_t bucket);

  /// Removes `time_bits` from the hash table (backward-shift deletion).
  void TableErase(uint64_t time_bits);

  void GrowTable();

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  // Implicit 4-ary heap of distinct times: children of i are 4i+1 .. 4i+4.
  std::vector<TimeEntry> heap_;
  std::vector<Bucket> buckets_;
  std::vector<uint32_t> free_buckets_;
  // timestamp -> bucket id; open addressing, linear probing, power-of-two.
  std::vector<TableEntry> table_;
  size_t table_used_ = 0;
  // Single-entry memo of the last timestamp resolved by Enqueue.  In the
  // synchronous regime every delivery scheduled during round k lands at
  // k + 1, so consecutive enqueues hit one bucket and the memo replaces the
  // hash probe with a single compare.  Invalidated when its timestamp
  // retires (the bucket id may be recycled for a different time).  The
  // initial value is a NaN bit pattern, which no schedulable time equals.
  uint64_t memo_time_bits_ = ~0ULL;
  uint32_t memo_bucket_ = 0;
  // Pending generic callbacks by slot, recycled via a free list.
  std::vector<Callback> callbacks_;
  std::vector<uint32_t> free_callbacks_;
  DeliveryHandler on_delivery_ = nullptr;
  TimerHandler on_timer_ = nullptr;
  void* handler_ctx_ = nullptr;
  uint64_t active_cause_ = 0;
  double now_ = 0.0;
  size_t size_ = 0;
  size_t peak_size_ = 0;
};

}  // namespace elink

#endif  // ELINK_SIM_EVENT_QUEUE_H_
