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
// Internally a hierarchical timing wheel: events within `kWheelTicks` of
// now() live in per-tick buckets selected by `when % kWheelTicks` (an O(1)
// append), with a bitmap tracking occupied buckets so the next-event scan is
// a handful of word operations instead of heap churn. A wheel entry is 16
// bytes, {Event*, generation}: the bucket gives its tick and its position in
// the bucket gives its FIFO order. Far-future events overflow into a small
// binary heap whose entries also carry (when, seq), and migrate into the
// wheel as now() advances. Cancellation and reschedule are O(1) via
// generation counters; stale entries are skipped at fire time and compacted
// away whenever they outnumber live ones. Firing takes one wheel scan that
// both finds the next live entry and fires it (RunOneUntil); every run loop
// goes through it.
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

// A reusable event. The owner keeps the object alive while it is scheduled.
// An Event can be scheduled on at most one queue at a time.
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
  Tick when_ = 0;
  // Bumped on every (de)schedule; a queue entry is live only while its
  // recorded generation matches.
  uint64_t generation_ = 0;
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
  // limit (so RunFor(x) still returns control at exactly x). Dead wheel/heap
  // entries are reclaimed lazily by the normal scan paths.
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

  // Internal storage footprint including dead (rescheduled/cancelled)
  // entries. Exposed so tests can assert dead-entry growth stays bounded.
  size_t InternalEntryCount() const { return entry_count_; }

  // Events allocated for one-shot callbacks, pending or free. Bounded by
  // the largest number of one-shots ever pending at once, plus one per
  // callback still running.
  size_t OneShotPoolSize() const { return fn_pool_.size(); }

  // Tick of the earliest live event, or Tick max if empty.
  Tick NextTick() const;

  // Fires the earliest event if its tick is <= limit and returns true;
  // otherwise (including when the queue is empty) fires nothing, leaves
  // now() alone and returns false. One wheel scan both finds and fires the
  // event. Does not raise the AdvanceIfIdle ceiling.
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

  // A wheel entry. Live while `ev` is non-null, scheduled, and its
  // generation_ still equals `generation`; firing nulls `ev`, and every
  // (de)schedule of the event moves its generation on.
  struct Slot {
    Event* ev;
    uint64_t generation;
  };
  static_assert(sizeof(Slot) == 16);
  // A far-future entry: (when, seq) orders the heap, and migration into the
  // wheel in that order preserves FIFO within a tick.
  struct FarEntry {
    Tick when;
    uint64_t seq;
    Slot slot;
  };
  struct HeapCmp {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  // The queue-owned Event behind each ScheduleFn callback. After the
  // callback returns, its captures are released and the event goes back on
  // the free list.
  class FnEvent final : public Event {
   public:
    explicit FnEvent(EventQueue* q) : queue_(q) {}
    void Fire() override;

   private:
    friend class EventQueue;
    EventQueue* queue_;
    std::function<void()> fn_;
    FnEvent* next_free_ = nullptr;
  };

  static bool IsLive(const Slot& s) {
    return s.ev != nullptr && s.ev->scheduled_ && s.ev->generation_ == s.generation;
  }

  bool InWheelWindow(Tick when) const { return when - now_ < kWheelTicks; }
  Tick SaturatingFromNow(Tick delta) const {
    return delta > std::numeric_limits<Tick>::max() - now_ ? std::numeric_limits<Tick>::max()
                                                           : now_ + delta;
  }
  void AppendToWheel(Tick when, Slot slot) {
    const size_t bucket = static_cast<size_t>(when & kWheelMask);
    wheel_[bucket].push_back(slot);
    bitmap_[bucket >> 6] |= 1ull << (bucket & 63);
  }
  void ClearBucket(size_t bucket);
  // Scans the bucket for a live entry, starting at the fire cursor when the
  // bucket is the active one. Returns the entry index or SIZE_MAX.
  size_t FindLive(size_t bucket) const;
  // Distance in ticks from now() to the earliest occupied wheel bucket with a
  // live entry (cleaning exhausted buckets along the way), or SIZE_MAX.
  // When found, also reports the entry's index in its bucket.
  size_t ScanWheel(size_t* idx);
  // Migrates heap entries that entered the wheel window into their buckets.
  // Must run after every advance of now_ so overflow entries land in bucket
  // order before any same-tick direct schedule (preserves FIFO by seq).
  void DrainHeap();
  void PopDeadHeap();
  // Compacts when stale entries outnumber live ones (>50% dead) and there is
  // enough bulk for the O(n) sweep to pay off.
  void MaybeCompact() {
    if (entry_count_ >= 64 && entry_count_ - live_count_ > live_count_) {
      Compact();
    }
  }
  void Compact();

  std::array<std::vector<Slot>, kWheelTicks> wheel_;
  std::array<uint64_t, kBitmapWords> bitmap_{};
  std::vector<FarEntry> heap_;  // far-future overflow (when - now >= kWheelTicks)
  // Fire cursor: entries [0, active_idx_) of bucket active_bucket_ are
  // consumed or dead. Advanced before Fire() so reentrant schedules are safe.
  size_t active_bucket_ = 0;
  size_t active_idx_ = 0;
  Tick now_ = 0;
  uint64_t next_seq_ = 0;       // heap entries only
  uint64_t generation_counter_ = 0;
  size_t live_count_ = 0;
  size_t entry_count_ = 0;      // live + not-yet-reclaimed dead, wheel + heap
  uint64_t fired_count_ = 0;
  Tick advance_limit_ = 0;      // AdvanceIfIdle ceiling; raised inside RunUntil/RunAll
  std::deque<FnEvent> fn_pool_;  // stable addresses; grows, never shrinks
  FnEvent* free_fn_ = nullptr;
};

}  // namespace casc

#endif  // SRC_SIM_EVENT_QUEUE_H_
