// Thread-state tracing: an optional observer recording every
// runnable/waiting/disabled transition with its cause, plus a compact text
// timeline renderer. Used for debugging guest software and for the examples'
// `--trace` flags; zero overhead when no tracer is installed.
#ifndef SRC_HWT_TRACER_H_
#define SRC_HWT_TRACER_H_

#include <algorithm>
#include <cassert>
#include <ostream>
#include <string>
#include <vector>

#include "src/hwt/hw_thread.h"
#include "src/sim/shard.h"
#include "src/sim/types.h"

namespace casc {

enum class TraceCause : uint8_t {
  kStart = 0,       // start instruction / host boot
  kStop = 1,        // stop instruction / halt / hcall 0
  kMwait = 2,       // blocked in mwait
  kMonitorWake = 3, // monitor filter fired
  kException = 4,   // fault disabled the thread
};

const char* TraceCauseName(TraceCause cause);

class ThreadTracer {
 public:
  struct Event {
    Tick tick;
    Ptid ptid;
    ThreadState from;
    ThreadState to;
    TraceCause cause;
  };

  // Sharded mode (DESIGN.md §4i): gives each shard a private buffer, since
  // shards record their windows one after another rather than in tick
  // order. Readers (events(), marks(), the dumpers) see one merged view
  // ordered by (tick, shard) — a pure function of simulated behavior. The
  // event cap applies per shard. Call before any event is recorded.
  void EnableSharding(uint32_t n) {
    assert(n >= 1 && n <= shard::kMaxShards);
    if (shards_.size() == n) {
      return;  // idempotent: re-installing a tracer must not drop its buffers
    }
    assert(events_.empty() && marks_.empty());
    shards_.resize(n);
  }

  void Record(Tick tick, Ptid ptid, ThreadState from, ThreadState to, TraceCause cause) {
    if (!shards_.empty()) {
      ShardBuf& b = shards_[shard::current];
      if (b.events.size() < max_events_) {
        b.events.push_back({tick, ptid, from, to, cause});
      } else {
        b.dropped++;
      }
      return;
    }
    if (events_.size() < max_events_) {
      events_.push_back({tick, ptid, from, to, cause});
    } else {
      // Count what the cap discards so consumers can tell a quiet tail from
      // a truncated one.
      dropped_++;
    }
  }

  // Point-in-time annotation (no duration): injected faults, recoveries,
  // campaign milestones. Rendered as Chrome-trace instant events on the
  // ptid's track; shares the event cap with state transitions.
  struct Mark {
    Tick tick;
    Ptid ptid;
    std::string label;
  };

  void RecordMark(Tick tick, Ptid ptid, std::string label) {
    if (!shards_.empty()) {
      ShardBuf& b = shards_[shard::current];
      if (b.events.size() + b.marks.size() < max_events_) {
        b.marks.push_back({tick, ptid, std::move(label)});
      } else {
        b.dropped++;
      }
      return;
    }
    if (events_.size() + marks_.size() < max_events_) {
      marks_.push_back({tick, ptid, std::move(label)});
    } else {
      dropped_++;
    }
  }

  const std::vector<Event>& events() const {
    MergeIfNeeded();
    return events_;
  }
  const std::vector<Mark>& marks() const {
    MergeIfNeeded();
    return marks_;
  }
  // Events discarded because the buffer reached max_events().
  uint64_t dropped() const {
    uint64_t total = dropped_;
    for (const ShardBuf& b : shards_) {
      total += b.dropped;
    }
    return total;
  }
  void Clear() {
    events_.clear();
    marks_.clear();
    dropped_ = 0;
    for (ShardBuf& b : shards_) {
      b.events.clear();
      b.marks.clear();
      b.dropped = 0;
    }
  }
  void set_max_events(size_t n) { max_events_ = n; }
  size_t max_events() const { return max_events_; }

  // Events touching one thread, in order.
  std::vector<Event> ForThread(Ptid ptid) const {
    std::vector<Event> out;
    for (const Event& e : events()) {
      if (e.ptid == ptid) {
        out.push_back(e);
      }
    }
    return out;
  }

  // Renders one line per thread over [from, to): 'R' runnable, 'w' waiting,
  // '.' disabled, sampled into `width` buckets. Notes dropped events so a
  // truncated trace is never silently presented as complete.
  void DumpTimeline(std::ostream& os, Tick from, Tick to, uint32_t width = 80) const;

  // Chrome trace_event ("catapult") JSON: one track (tid) per ptid, one
  // complete ("X") span per thread-state interval with the entering cause as
  // an argument. Load the file at chrome://tracing or ui.perfetto.dev.
  // `ghz` converts ticks (cycles) to the format's microsecond timestamps.
  void DumpChromeTrace(std::ostream& os, double ghz = 3.0) const;

 private:
  struct ShardBuf {
    std::vector<Event> events;
    std::vector<Mark> marks;
    uint64_t dropped = 0;
  };

  // Rebuilds the merged view when per-shard buffers grew since the last
  // read. Never called inside a window.
  // Concatenation order is shard order and each buffer is chronological, so
  // the stable sort yields (tick, shard, record order) — deterministic.
  void MergeIfNeeded() const {
    if (shards_.empty()) {
      return;
    }
    size_t total_events = 0;
    size_t total_marks = 0;
    for (const ShardBuf& b : shards_) {
      total_events += b.events.size();
      total_marks += b.marks.size();
    }
    if (total_events == events_.size() && total_marks == marks_.size()) {
      return;
    }
    events_.clear();
    marks_.clear();
    for (const ShardBuf& b : shards_) {
      events_.insert(events_.end(), b.events.begin(), b.events.end());
      marks_.insert(marks_.end(), b.marks.begin(), b.marks.end());
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event& a, const Event& b) { return a.tick < b.tick; });
    std::stable_sort(marks_.begin(), marks_.end(),
                     [](const Mark& a, const Mark& b) { return a.tick < b.tick; });
  }

  // Legacy buffers double as the merged view in sharded mode.
  mutable std::vector<Event> events_;
  mutable std::vector<Mark> marks_;
  std::vector<ShardBuf> shards_;
  size_t max_events_ = 1 << 20;
  uint64_t dropped_ = 0;
};

}  // namespace casc

#endif  // SRC_HWT_TRACER_H_
