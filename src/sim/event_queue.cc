#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace casc {

void EventQueue::Schedule(Event* ev, Tick when) {
  assert(ev != nullptr);
  if (when < now_) {
    when = now_;  // see the header comment on past-tick clamping
  }
  if (ev->scheduled_) {
    // Reschedule: invalidate the old entry via a new generation.
    live_count_--;
  }
  ev->scheduled_ = true;
  ev->when_ = when;
  ev->generation_ = ++generation_counter_;
  const Slot slot{ev, ev->generation_};
  if (InWheelWindow(when)) {
    AppendToWheel(when, slot);
  } else {
    heap_.push_back(FarEntry{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
  }
  entry_count_++;
  live_count_++;
  MaybeCompact();
}

void EventQueue::Deschedule(Event* ev) {
  assert(ev != nullptr);
  if (!ev->scheduled_) {
    return;
  }
  ev->scheduled_ = false;
  ev->generation_ = ++generation_counter_;
  live_count_--;
  MaybeCompact();
}

void EventQueue::ScheduleFn(Tick when, std::function<void()> fn) {
  FnEvent* ev = free_fn_;
  if (ev != nullptr) {
    free_fn_ = ev->next_free_;
  } else {
    ev = &fn_pool_.emplace_back(this);
  }
  ev->fn_ = std::move(fn);
  Schedule(ev, when);
}

void EventQueue::FnEvent::Fire() {
  // Run in place: the event is not on the free list yet, so a callback that
  // schedules another one-shot gets a different event.
  fn_();
  fn_ = nullptr;
  next_free_ = queue_->free_fn_;
  queue_->free_fn_ = this;
}

void EventQueue::ClearBucket(size_t bucket) {
  entry_count_ -= wheel_[bucket].size();
  wheel_[bucket].clear();
  bitmap_[bucket >> 6] &= ~(1ull << (bucket & 63));
  if (bucket == active_bucket_) {
    active_idx_ = 0;
  }
}

size_t EventQueue::FindLive(size_t bucket) const {
  const std::vector<Slot>& vec = wheel_[bucket];
  for (size_t i = bucket == active_bucket_ ? active_idx_ : 0; i < vec.size(); i++) {
    if (IsLive(vec[i])) {
      return i;
    }
  }
  return SIZE_MAX;
}

size_t EventQueue::ScanWheel(size_t* idx) {
  // Walk occupied buckets in increasing distance from now()'s bucket,
  // wrapping once. The start word is visited twice: high bits first, then
  // (after the wrap) its low bits.
  const size_t start = static_cast<size_t>(now_ & kWheelMask);
  for (size_t i = 0; i <= kBitmapWords; i++) {
    const size_t w = ((start >> 6) + i) & (kBitmapWords - 1);
    uint64_t word = bitmap_[w];
    if (i == 0) {
      word &= ~0ull << (start & 63);
    } else if (i == kBitmapWords) {
      word &= (1ull << (start & 63)) - 1;
    }
    while (word != 0) {
      // Low bit first = nearest bucket first: every bucket in this masked
      // word view shares the same wrap status relative to `start`.
      const size_t bucket = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      const size_t found = FindLive(bucket);
      if (found != SIZE_MAX) {
        *idx = found;
        return (bucket - start) & kWheelMask;
      }
      ClearBucket(bucket);  // only dead/consumed entries left — reclaim now
      word &= word - 1;
    }
  }
  return SIZE_MAX;
}

void EventQueue::DrainHeap() {
  while (!heap_.empty()) {
    const FarEntry& top = heap_.front();
    const bool live = IsLive(top.slot);
    if (live && !InWheelWindow(top.when)) {
      break;
    }
    if (live) {
      AppendToWheel(top.when, top.slot);
    } else {
      entry_count_--;
    }
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_.pop_back();
  }
}

void EventQueue::PopDeadHeap() {
  while (!heap_.empty() && !IsLive(heap_.front().slot)) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_.pop_back();
    entry_count_--;
  }
}

void EventQueue::Compact() {
  for (size_t w = 0; w < kBitmapWords; w++) {
    uint64_t word = bitmap_[w];
    while (word != 0) {
      const size_t bucket = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      word &= word - 1;
      std::vector<Slot>& vec = wheel_[bucket];
      std::erase_if(vec, [](const Slot& e) { return !IsLive(e); });
      if (vec.empty()) {
        bitmap_[bucket >> 6] &= ~(1ull << (bucket & 63));
      }
    }
  }
  std::erase_if(heap_, [](const FarEntry& e) { return !IsLive(e.slot); });
  std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
  entry_count_ = live_count_;
  // All consumed/dead prefix entries were erased, so the fire cursor restarts.
  active_idx_ = 0;
}

Tick EventQueue::NextTick() const {
  // Logically const: cleaning exhausted buckets / dead heap tops does not
  // change the observable queue state.
  EventQueue* self = const_cast<EventQueue*>(this);
  size_t idx = 0;
  const size_t d = self->ScanWheel(&idx);
  if (d != SIZE_MAX) {
    return now_ + d;
  }
  // Wheel is empty, so the earliest live event (if any) is the heap top,
  // which the drain invariant keeps >= now + kWheelTicks.
  self->PopDeadHeap();
  if (heap_.empty()) {
    return std::numeric_limits<Tick>::max();
  }
  return heap_.front().when;
}

bool EventQueue::RunOneUntil(Tick limit) {
  if (live_count_ == 0) {
    return false;
  }
  size_t idx = 0;
  const size_t d = ScanWheel(&idx);
  if (d != SIZE_MAX) {
    if (now_ + d > limit) {  // cannot wrap: the entry's tick is now_ + d
      return false;
    }
    if (d != 0) {
      now_ += d;
      // A heap entry for the new tick cannot exist while a wheel entry for
      // it does (it would have migrated on an earlier advance), so the drain
      // only appends behind `idx`. The drain must not be skipped on a peek at
      // the heap top: after an AdvanceIfIdle jump a dead top may lie behind
      // now(), where the window test wraps; DrainHeap pops dead tops first.
      if (!heap_.empty()) {
        DrainHeap();
      }
    }
  } else {
    // Wheel is empty (the scan cleared every bucket), so the earliest live
    // event is the heap top. Jump to it and migrate: the top lands first in
    // its emptied bucket, ahead of its same-tick successors in seq order.
    PopDeadHeap();
    assert(!heap_.empty());
    if (heap_.front().when > limit) {
      return false;
    }
    now_ = heap_.front().when;
    DrainHeap();
    idx = 0;
  }
  // Consume the entry and advance the cursor *before* firing: the event may
  // schedule into this bucket (reallocating it) or trigger compaction, so no
  // reference may be held across Fire().
  const size_t bucket = static_cast<size_t>(now_ & kWheelMask);
  Slot& slot = wheel_[bucket][idx];
  Event* ev = slot.ev;
  slot.ev = nullptr;
  active_bucket_ = bucket;
  active_idx_ = idx + 1;
  live_count_--;
  fired_count_++;
  ev->scheduled_ = false;
  ev->Fire();
  if (active_bucket_ == bucket && active_idx_ >= wheel_[bucket].size()) {
    ClearBucket(bucket);
  }
  return true;
}

void EventQueue::RunUntil(Tick limit) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = limit;
  while (RunOneUntil(limit)) {
  }
  advance_limit_ = saved_limit;
  if (now_ < limit) {
    now_ = limit;
    DrainHeap();  // the wheel window moved; restore the heap-top invariant
  }
}

uint64_t EventQueue::RunAll(uint64_t max_events) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = std::numeric_limits<Tick>::max();
  uint64_t fired = 0;
  while (fired < max_events && RunOne()) {
    fired++;
  }
  advance_limit_ = saved_limit;
  return fired;
}

uint64_t EventQueue::RunWhile(Tick limit, const std::function<bool()>& pred) {
  const Tick saved_limit = advance_limit_;
  advance_limit_ = limit;
  uint64_t fired = 0;
  while (pred() && RunOneUntil(limit)) {
    fired++;
  }
  // The predicate may have clamped the advance limit mid-window; the saved
  // outer limit is restored regardless so nesting behaves like RunUntil.
  advance_limit_ = saved_limit;
  return fired;
}

}  // namespace casc
