#include "src/sim/event_queue.h"

#include <bit>
#include <cassert>
#include <limits>

namespace casc {

void EventQueue::Schedule(Event* ev, Tick when) {
  assert(ev != nullptr);
  if (when < now_) {
    when = now_;  // see the header comment on past-tick clamping
  }
  const bool in_heap = ev->heap_index_ != Event::kNotInHeap;
  if (!ev->scheduled_) {
    ev->scheduled_ = true;
    live_count_++;
  } else if (!in_heap) {
    UnlinkFromWheel(ev);
  }
  ev->when_ = when;
  if (InWheelWindow(when)) {
    if (in_heap) {
      HeapErase(ev);
    }
    LinkIntoWheel(ev);
  } else {
    ev->seq_ = next_seq_++;
    if (in_heap) {
      HeapSift(ev->heap_index_, ev);  // re-key in place
    } else {
      HeapPush(ev);
    }
  }
}

void EventQueue::Deschedule(Event* ev) {
  assert(ev != nullptr);
  if (!ev->scheduled_) {
    return;
  }
  if (ev->heap_index_ != Event::kNotInHeap) {
    HeapErase(ev);
  } else {
    UnlinkFromWheel(ev);
  }
  ev->scheduled_ = false;
  live_count_--;
}

void EventQueue::ScheduleFn(Tick when, std::function<void()> fn) {
  FnEvent* ev = free_fn_;
  if (ev != nullptr) {
    free_fn_ = static_cast<FnEvent*>(ev->next_);
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
  next_ = queue_->free_fn_;
  queue_->free_fn_ = this;
}

size_t EventQueue::InternalEntryCount() const {
  size_t n = heap_.size();
  for (const Event* head : wheel_) {
    for (const Event* e = head; e != nullptr; e = e->next_ == head ? nullptr : e->next_) {
      n++;
    }
  }
  return n;
}

void EventQueue::LinkIntoWheel(Event* ev) {
  const size_t bucket = static_cast<size_t>(ev->when_ & kWheelMask);
  Event*& head = wheel_[bucket];
  if (head == nullptr) {
    head = ev;
    ev->prev_ = ev;
    ev->next_ = ev;
    bitmap_[bucket >> 6] |= 1ull << (bucket & 63);
  } else {
    ev->prev_ = head->prev_;
    ev->next_ = head;
    head->prev_->next_ = ev;
    head->prev_ = ev;
  }
}

void EventQueue::UnlinkFromWheel(Event* ev) {
  const size_t bucket = static_cast<size_t>(ev->when_ & kWheelMask);
  if (ev->next_ == ev) {
    wheel_[bucket] = nullptr;
    bitmap_[bucket >> 6] &= ~(1ull << (bucket & 63));
  } else {
    ev->prev_->next_ = ev->next_;
    ev->next_->prev_ = ev->prev_;
    if (wheel_[bucket] == ev) {
      wheel_[bucket] = ev->next_;
    }
  }
}

size_t EventQueue::WheelDistance() const {
  // Walk the bitmap in increasing distance from now()'s bucket, wrapping
  // once. The start word is visited twice: high bits first, then (after the
  // wrap) its low bits. Every wheel event lies in [now, now + kWheelTicks),
  // so the first set bit is the earliest event.
  const size_t start = static_cast<size_t>(now_ & kWheelMask);
  for (size_t i = 0; i <= kBitmapWords; i++) {
    const size_t w = ((start >> 6) + i) & (kBitmapWords - 1);
    uint64_t word = bitmap_[w];
    if (i == 0) {
      word &= ~0ull << (start & 63);
    } else if (i == kBitmapWords) {
      word &= (1ull << (start & 63)) - 1;
    }
    if (word != 0) {
      const size_t bucket = (w << 6) + static_cast<size_t>(std::countr_zero(word));
      return (bucket - start) & kWheelMask;
    }
  }
  assert(false && "WheelDistance on an empty wheel");
  return 0;
}

void EventQueue::HeapPush(Event* ev) {
  assert(heap_.size() < Event::kNotInHeap);
  heap_.push_back(ev);
  HeapSift(heap_.size() - 1, ev);
}

void EventQueue::HeapErase(Event* ev) {
  const size_t i = ev->heap_index_;
  Event* last = heap_.back();
  heap_.pop_back();
  ev->heap_index_ = Event::kNotInHeap;
  if (i < heap_.size()) {
    HeapSift(i, last);
  }
}

void EventQueue::HeapSift(size_t i, Event* ev) {
  while (i > 0 && HeapBefore(ev, heap_[(i - 1) / 2])) {
    const size_t parent = (i - 1) / 2;
    heap_[i] = heap_[parent];
    heap_[i]->heap_index_ = static_cast<uint32_t>(i);
    i = parent;
  }
  // Sifting down after a move up stops at once: ev is before the old parent,
  // which is before its other child.
  for (size_t child = 2 * i + 1; child < heap_.size(); child = 2 * i + 1) {
    if (child + 1 < heap_.size() && HeapBefore(heap_[child + 1], heap_[child])) {
      child++;
    }
    if (!HeapBefore(heap_[child], ev)) {
      break;
    }
    heap_[i] = heap_[child];
    heap_[i]->heap_index_ = static_cast<uint32_t>(i);
    i = child;
  }
  heap_[i] = ev;
  ev->heap_index_ = static_cast<uint32_t>(i);
}

void EventQueue::DrainHeap() {
  while (!heap_.empty() && InWheelWindow(heap_.front()->when_)) {
    Event* ev = heap_.front();
    HeapErase(ev);
    LinkIntoWheel(ev);
  }
}

Tick EventQueue::NextTick() const {
  if (!WheelEmpty()) {
    return now_ + WheelDistance();
  }
  // The drain invariant keeps every heap event >= now + kWheelTicks.
  return heap_.empty() ? std::numeric_limits<Tick>::max() : heap_.front()->when_;
}

bool EventQueue::RunOneUntil(Tick limit) {
  // now()'s bucket holds only events due at now(), so a non-empty one needs
  // no scan.
  Event* ev = wheel_[static_cast<size_t>(now_ & kWheelMask)];
  if (ev == nullptr) {
    if (live_count_ == 0) {
      return false;
    }
    const Tick when = WheelEmpty() ? heap_.front()->when_ : now_ + WheelDistance();
    if (when > limit) {
      return false;
    }
    // Heap events move into the wheel in (when, seq) order. From the heap
    // top's tick the top lands first in its emptied bucket; otherwise every
    // migrant lies beyond `when`, so the head of `when`'s bucket stays put.
    now_ = when;
    if (!heap_.empty()) {
      DrainHeap();
    }
    ev = wheel_[static_cast<size_t>(now_ & kWheelMask)];
  } else if (now_ > limit) {
    return false;
  }
  // Unlink before firing: the event may reschedule itself.
  UnlinkFromWheel(ev);
  ev->scheduled_ = false;
  live_count_--;
  fired_count_++;
  ev->Fire();
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
