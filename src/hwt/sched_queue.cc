#include "src/hwt/sched_queue.h"

#include <cassert>
#include <cstddef>
#include <limits>

namespace casc {

void SchedQueue::Add(HwThread* thread, bool front) {
  assert(thread != nullptr);
  for (const Slot& s : rotation_) {
    if (s.thread->ptid() == thread->ptid()) {
      return;  // already queued
    }
  }
  const Slot slot{thread, FullCredits(*thread)};
  if (front && cursor_ <= rotation_.size()) {
    rotation_.insert(rotation_.begin() + static_cast<ptrdiff_t>(cursor_), slot);
  } else {
    rotation_.push_back(slot);
  }
}

void SchedQueue::Remove(Ptid ptid) {
  for (size_t i = 0; i < rotation_.size(); i++) {
    if (rotation_[i].thread->ptid() == ptid) {
      rotation_.erase(rotation_.begin() + static_cast<ptrdiff_t>(i));
      if (cursor_ > i) {
        cursor_--;
      }
      if (cursor_ >= rotation_.size()) {
        cursor_ = 0;
      }
      return;
    }
  }
}

Tick SchedQueue::NextReadyTick(Tick now) const {
  Tick best = std::numeric_limits<Tick>::max();
  for (const Slot& s : rotation_) {
    if (s.thread->state() == ThreadState::kRunnable && s.thread->ready_at() > now) {
      best = std::min(best, s.thread->ready_at());
    }
  }
  return best;
}

}  // namespace casc
