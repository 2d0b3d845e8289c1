// Per-core hardware scheduling of runnable ptids onto SMT slots (§4 "Support
// for Thread Scheduling"): fine-grain weighted round robin, which emulates
// processor sharing, plus optional preemptive insertion of woken
// time-critical threads.
#ifndef SRC_HWT_SCHED_QUEUE_H_
#define SRC_HWT_SCHED_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/hwt/hw_thread.h"
#include "src/sim/types.h"

namespace casc {

class SchedQueue {
 public:
  // Adds a ptid to the rotation. If `front` is true the thread is inserted
  // at the cursor (time-critical preemptive wake, §4).
  void Add(HwThread* thread, bool front = false);

  // Removes a ptid (thread stopped / blocked).
  void Remove(Ptid ptid);

  // Selects up to `width` distinct threads that may issue one instruction at
  // `now` (runnable and restore complete). Weighted RR: a thread keeps its
  // slot for `prio` consecutive picks before the cursor advances past it.
  //
  // Defined here (with NextWorkTick) so the per-tick scan inlines into
  // Core::Cycle: the two calls account for a fifth of host time when left
  // out of line.
  void PickUpTo(Tick now, uint32_t width, std::vector<HwThread*>* out) {
    out->resize(rotation_.size());
    out->resize(PickUpTo(now, width, out->data()));
  }

  // Array flavor of the same pick (no vector bookkeeping): `out` must hold
  // at least min(width, rotation size) slots; returns the pick count. This
  // is the form Core::Cycle calls every simulated tick.
  uint32_t PickUpTo(Tick now, uint32_t width, HwThread** out) {
    // One pass from the cursor that stops once the SMT slots are full: the
    // first ready thread found becomes the new cursor (the weighted-RR head),
    // and ready threads fill the slots in rotation order. Index wrap is a
    // compare, not a modulo: this runs every simulated tick.
    const size_t n = rotation_.size();
    uint32_t picked = 0;
    size_t idx = cursor_;
    for (size_t s = 0; s < n; s++) {
      HwThread* t = rotation_[idx].thread;
      if (Ready(*t, now)) {
        if (picked == 0) {
          cursor_ = idx;
        }
        out[picked++] = t;
        if (picked == width) {
          break;
        }
      }
      if (++idx == n) {
        idx = 0;
      }
    }
    if (picked == 0) {
      return 0;  // nothing ready this cycle; cursor unchanged, no credit burn
    }
    // Weighted RR: the head thread holds the cursor for `prio` picks.
    Slot& head = rotation_[cursor_];
    if (head.credits > 0) {
      head.credits--;
    }
    if (head.credits == 0) {
      head.credits = FullCredits(*head.thread);
      if (++cursor_ == n) {
        cursor_ = 0;
      }
    }
    return picked;
  }

  bool Empty() const { return rotation_.empty(); }
  size_t Size() const { return rotation_.size(); }

  // Earliest ready_at among queued threads that are not yet ready at `now`;
  // Tick max if all are ready or the queue is empty. Used by the core to
  // sleep precisely while restores are in flight.
  Tick NextReadyTick(Tick now) const;

  // Earliest tick >= `after` at which some runnable thread can issue:
  // max(after, min ready_at over runnable threads), Tick max if the rotation
  // holds none. The walk stops at the first runnable thread that is ready by
  // `after`, since nothing can beat `after`; on a busy core that is the
  // first slot or two.
  Tick NextWorkTick(Tick after) const {
    Tick best = std::numeric_limits<Tick>::max();
    for (const Slot& s : rotation_) {
      const HwThread& t = *s.thread;
      if (t.state() == ThreadState::kRunnable) {
        if (t.ready_at() <= after) {
          return after;
        }
        best = std::min(best, t.ready_at());
      }
    }
    return best;
  }

 private:
  struct Slot {
    HwThread* thread;
    uint64_t credits;  // remaining consecutive picks this turn
  };

  static uint64_t FullCredits(const HwThread& t) { return std::max<uint64_t>(1, t.arch().prio); }
  static bool Ready(const HwThread& t, Tick now) {
    return t.state() == ThreadState::kRunnable && t.ready_at() <= now;
  }

  std::vector<Slot> rotation_;
  size_t cursor_ = 0;
};

}  // namespace casc

#endif  // SRC_HWT_SCHED_QUEUE_H_
