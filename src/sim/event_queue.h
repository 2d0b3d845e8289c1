// Discrete-event simulation core: a tick-ordered event queue.
//
// Two ways to schedule work:
//  * Reusable `Event` objects owned by the caller (no allocation per schedule;
//    used for hot paths such as per-cycle core ticks).
//  * One-shot callbacks scheduled with `ScheduleFn`. The queue wraps each in
//    an `Event` of its own, taken from a free list and returned to it once
//    the callback has run, so every queued entry is an `Event`.
//
// Events scheduled for the same tick fire in FIFO order of scheduling.
//
// Internally a hashed timing wheel with intrusive lists (Varghese & Lauck,
// SOSP 1987, scheme 6). An event within `kWheelTicks` of now() is linked into
// the circular doubly linked list of the bucket selected by
// `when % kWheelTicks`, appended at the tail, so list order is FIFO order. A
// bitmap has one bit per bucket, set exactly while the bucket is non-empty, so
// the next event is the head of the first set bucket at or after now()'s.
// Far-future events wait in an indexed binary heap ordered by (when, seq) and
// migrate into the wheel in that order as now() advances, ahead of any later
// direct schedule into their tick. A scheduled event sits in exactly one
// place, and a reschedule or cancel unlinks it from there: O(1) from a bucket,
// O(log n) from the heap. No dead entry is left behind to skip or compact.
//
// An owner keeps an Event alive while it is scheduled, and only then: once it
// has fired or been descheduled the queue holds no pointer to it, and it may
// be destroyed.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/sim/types.h"

namespace casc {

class EventQueue;

// A reusable event. The owner keeps the object alive while it is scheduled
// and may free it once it has fired or been descheduled. An Event can be
// scheduled on at most one queue at a time.
class Event {
 public:
  Event() = default;
  virtual ~Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  virtual void Fire() = 0;

  bool scheduled() const { return scheduled_; }
  Tick when() const { return when_; }

 private:
  friend class EventQueue;
  static constexpr uint32_t kNotInHeap = std::numeric_limits<uint32_t>::max();
  Tick when_ = 0;
  // Links in the circular list of the event's wheel bucket, while it is in
  // the wheel. A free one-shot chains the queue's free list through next_.
  Event* prev_ = nullptr;
  Event* next_ = nullptr;
  // While the event waits in the far-future heap: its heap position, and its
  // FIFO tie-break against other heap events for the same tick.
  uint64_t seq_ = 0;
  uint32_t heap_index_ = kNotInHeap;
  bool scheduled_ = false;
};

// Adapts a callable into a reusable Event.
template <typename Fn>
class LambdaEvent final : public Event {
 public:
  explicit LambdaEvent(Fn fn) : fn_(std::move(fn)) {}
  void Fire() override { fn_(); }

 private:
  Fn fn_;
};

class EventQueue {
 public:
  // Wheel span in ticks. At the default 3 GHz that is ~1.4 us of simulated
  // time — larger than every in-flight latency the simulator charges (cache
  // misses, IPIs, context restores), so in practice only long timers take
  // the heap overflow path.
  static constexpr Tick kWheelTicks = 4096;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Tick now() const { return now_; }

  // Quiet-advance fast path for self-rescheduling actors (the per-core tick):
  // when nothing else is live, the actor may move the clock to `t` directly
  // instead of scheduling an event and paying a full dispatch round trip.
  // Refused — caller must schedule normally — if any live event exists, if
  // `t` is behind now(), or if `t` lies beyond the innermost RunUntil/RunAll
  // limit (so RunFor(x) still returns control at exactly x).
  bool AdvanceIfIdle(Tick t) {
    if (live_count_ != 0 || t < now_ || t > advance_limit_) {
      return false;
    }
    now_ = t;
    return true;
  }

  // Schedules `ev` to fire at absolute tick `when`. If `ev` is already
  // scheduled it is rescheduled. A `when` in the past is clamped to now():
  // the unsigned distance `when - now_` would otherwise wrap and misfile the
  // entry into the far-future heap, where it jams NextTick()/DrainHeap()
  // (same unsigned-wrap family as the MonitorFilter and InvalidateForWrite
  // fixes).
  void Schedule(Event* ev, Tick when);

  // Convenience: schedule relative to now. Saturates at Tick max so a delay
  // armed near the top of tick space cannot wrap into the past.
  void ScheduleAfter(Event* ev, Tick delta) { Schedule(ev, SaturatingFromNow(delta)); }

  // Removes `ev` from the queue if scheduled. Safe to call on an unscheduled event.
  void Deschedule(Event* ev);

  // Schedules a one-shot callback at absolute tick `when` (past ticks clamp
  // to now(), as with Schedule); the queue owns it. Pending callbacks (and
  // their captures) are destroyed with the queue.
  void ScheduleFn(Tick when, std::function<void()> fn);
  void ScheduleFnAfter(Tick delta, std::function<void()> fn) {
    ScheduleFn(SaturatingFromNow(delta), std::move(fn));
  }

  bool Empty() const { return live_count_ == 0; }
  size_t LiveCount() const { return live_count_; }

  // Total events fired since construction (reusable + one-shot). Used by the
  // host-throughput bench to derive events/sec.
  uint64_t events_fired() const { return fired_count_; }

  // Entries the queue actually holds: events linked into wheel buckets, found
  // by walking every list, plus heap entries. Counted apart from LiveCount()
  // so tests can assert that no reschedule or cancel leaves an entry behind.
  size_t InternalEntryCount() const;

  // Events allocated for one-shot callbacks, pending or free. Bounded by
  // the largest number of one-shots ever pending at once, plus one per
  // callback still running.
  size_t OneShotPoolSize() const { return fn_pool_.size(); }

  // Tick of the earliest live event, or Tick max if empty.
  Tick NextTick() const;

  // Fires the earliest event if its tick is <= limit and returns true;
  // otherwise (including when the queue is empty) fires nothing, leaves
  // now() alone and returns false. Does not raise the AdvanceIfIdle ceiling.
  bool RunOneUntil(Tick limit);

  // Fires the earliest event. Returns false if the queue is empty.
  bool RunOne() { return RunOneUntil(std::numeric_limits<Tick>::max()); }

  // Runs events with when <= limit; afterwards now() == max(now, limit).
  void RunUntil(Tick limit);

  // Runs until the queue drains or `max_events` have fired. Returns the number fired.
  uint64_t RunAll(uint64_t max_events = UINT64_MAX);

  // Runs events with when <= limit while `pred()` stays true; returns the
  // number fired. Unlike RunUntil, now() is left at the last fired tick
  // rather than bumped to `limit` — the sharded engine uses this to execute
  // one synchronization window per shard without over-advancing shards that
  // go quiet early.
  uint64_t RunWhile(Tick limit, const std::function<bool()>& pred);

  // Lowers the quiet-advance ceiling to min(current, t). The shard engine
  // uses this to abort an in-progress AdvanceIfIdle chain when a cross-shard
  // message is posted mid-window: the solo core's Cycle() loop breaks at its
  // next quiet-advance check and control returns to the engine barrier.
  void ClampAdvanceLimit(Tick t) {
    if (t < advance_limit_) {
      advance_limit_ = t;
    }
  }

 private:
  static constexpr uint64_t kWheelMask = kWheelTicks - 1;
  static constexpr size_t kBitmapWords = kWheelTicks / 64;

  // The queue-owned Event behind each ScheduleFn callback. After the
  // callback returns, its captures are released and the event goes back on
  // the free list, chained through Event::next_.
  class FnEvent final : public Event {
   public:
    explicit FnEvent(EventQueue* q) : queue_(q) {}
    void Fire() override;

   private:
    friend class EventQueue;
    EventQueue* queue_;
    std::function<void()> fn_;
  };

  bool InWheelWindow(Tick when) const { return when - now_ < kWheelTicks; }
  Tick SaturatingFromNow(Tick delta) const {
    return delta > std::numeric_limits<Tick>::max() - now_ ? std::numeric_limits<Tick>::max()
                                                           : now_ + delta;
  }
  // Every scheduled event is either in a wheel bucket or in the heap.
  bool WheelEmpty() const { return live_count_ == heap_.size(); }
  // Distance in ticks from now() to the first non-empty bucket. The wheel
  // must not be empty.
  size_t WheelDistance() const;
  // Appends `ev` at the tail of its tick's bucket (the head's prev_).
  void LinkIntoWheel(Event* ev);
  void UnlinkFromWheel(Event* ev);
  // Indexed binary heap on (when, seq); every entry records its position.
  static bool HeapBefore(const Event* a, const Event* b) {
    return a->when_ != b->when_ ? a->when_ < b->when_ : a->seq_ < b->seq_;
  }
  void HeapPush(Event* ev);
  void HeapErase(Event* ev);
  // Puts `ev` into the vacant position `i`, sifting it up or down into place.
  void HeapSift(size_t i, Event* ev);
  // Migrates heap events that entered the wheel window into their buckets.
  // Must run after every advance of now_ so they land in (when, seq) order
  // before any direct schedule into their tick (preserves FIFO).
  void DrainHeap();

  std::array<Event*, kWheelTicks> wheel_{};  // bucket list heads
  std::array<uint64_t, kBitmapWords> bitmap_{};  // bit set iff its bucket is non-empty
  std::vector<Event*> heap_;  // far-future overflow (when - now >= kWheelTicks)
  Tick now_ = 0;
  uint64_t next_seq_ = 0;       // heap entries only
  size_t live_count_ = 0;
  uint64_t fired_count_ = 0;
  Tick advance_limit_ = 0;      // AdvanceIfIdle ceiling; raised inside RunUntil/RunAll
  std::deque<FnEvent> fn_pool_;  // stable addresses; grows, never shrinks
  FnEvent* free_fn_ = nullptr;
};

}  // namespace casc

#endif  // SRC_SIM_EVENT_QUEUE_H_
