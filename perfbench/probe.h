// The traced run's instruments, all outside the simulator: host spans around
// every call the benchmark makes into the program, a ConcurrencyObserver that
// captures the load/store/monitor stream, and a replay of that stream into
// standalone Cache, MonitorFilter and EventQueue instances that prices each
// layer in host nanoseconds per operation.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.h"
#include "src/cpu/machine.h"
#include "src/hwt/concurrency_observer.h"

namespace perfbench {

// In-memory host spans, written out as a Chrome trace when the run ends.
// Spans nest by time on one host thread; each records its parent and the
// request id it belongs to (0 = none), so all spans of one request share it.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  size_t Begin(const char* name, const char* layer, uint64_t req);
  void End(size_t index);

  // Sum of the durations of every span called `name`, in milliseconds.
  double TotalMs(const std::string& name) const;
  bool WriteChromeTrace(const std::string& path, const std::string& process) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    uint64_t req;
    int64_t parent;  // index into spans_, -1 for a root
    double start_us;
    double dur_us;
  };
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Captures the guest load/store/atomic and monitor stream (the first `cap`
// operations of the rep), wake-to-run latencies, and the gaps
// between consecutive operations of one ptid, which stand in for the delays
// the core schedules its events at.
class Capture final : public casc::ConcurrencyObserver {
 public:
  enum Kind : uint8_t { kLoad, kStore, kAtomic, kDma, kArm, kDisarm, kClear };
  struct Op {
    casc::Addr addr;
    uint32_t ptid;
    Kind kind;
  };

  Capture(casc::Simulation& sim, size_t cap) : sim_(sim), cap_(cap) {}

  void OnLoad(casc::Ptid ptid, casc::Addr addr, uint32_t, casc::Addr) override {
    Data(kLoad, ptid, addr);
  }
  void OnStore(casc::Ptid ptid, casc::Addr addr, uint32_t, casc::Addr) override {
    Data(kStore, ptid, addr);
  }
  void OnAtomic(casc::Ptid ptid, casc::Addr addr, uint32_t, casc::Addr) override {
    Data(kAtomic, ptid, addr);
  }
  void OnThreadStart(casc::Ptid, casc::Ptid) override {}
  void OnThreadStop(casc::Ptid, casc::Ptid) override {}
  void OnRpull(casc::Ptid, casc::Ptid) override {}
  void OnRpush(casc::Ptid, casc::Ptid) override {}
  void OnMonitorArm(casc::Ptid ptid, casc::Addr line) override { Push(kArm, ptid, line); }
  void OnMonitorDisarm(casc::Ptid ptid, casc::Addr line) override { Push(kDisarm, ptid, line); }
  void OnMwaitReturn(casc::Ptid) override {}
  void OnThreadDisabled(casc::Ptid ptid) override { Push(kClear, ptid, 0); }

  // A device write the benchmark itself issued (DMA arrival).
  void NoteDma(casc::Addr addr) { Push(kDma, UINT32_MAX, addr); }
  // ThreadSystem wake observer: a monitor wake starts a wake-to-run interval,
  // closed by the ptid's next data operation.
  void NoteWake(casc::Ptid ptid);

  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<uint64_t>& wake_to_run() const { return wake_to_run_; }
  const std::vector<uint64_t>& op_gaps() const { return op_gaps_; }

 private:
  void Push(Kind kind, casc::Ptid ptid, casc::Addr addr) {
    if (ops_.size() < cap_) {
      ops_.push_back({addr, ptid, kind});
    }
  }
  void Data(Kind kind, casc::Ptid ptid, casc::Addr addr);

  casc::Simulation& sim_;
  size_t cap_;
  std::vector<Op> ops_;
  std::vector<uint64_t> wake_to_run_;
  std::vector<uint64_t> op_gaps_;
  std::vector<casc::Tick> woke_at_;  // per ptid; 0 = no open interval
  std::vector<casc::Tick> last_op_;  // per ptid
};

// Handed to a workload for one rep. Untraced reps carry no instruments and
// every hook is a null check.
class Probe {
 public:
  Probe(SpanLog* spans, size_t capture_cap) : spans_(spans), capture_cap_(capture_cap) {}

  bool traced() const { return spans_ != nullptr; }
  SpanLog* spans() { return spans_; }
  Capture* capture() { return capture_.get(); }

  // Called once the workload's machine exists: a traced rep attaches the
  // capture observer, the wake observer and (sharded engine) a barrier hook.
  void Attach(casc::Machine& m);
  // Called after every RunFor slice; ticks the rep's SpeedClock, if set.
  void OnSlice(casc::Machine& m);
  void set_clock(SpeedClock* clock) { clock_ = clock; }

  uint64_t rounds() const { return rounds_; }
  const std::vector<uint64_t>& live_events() const { return live_events_; }

 private:
  SpanLog* spans_;
  size_t capture_cap_;
  SpeedClock* clock_ = nullptr;
  std::unique_ptr<Capture> capture_;
  uint64_t rounds_ = 0;
  std::vector<uint64_t> live_events_;
};

// Opens a span on construction and closes it on destruction; no-op when the
// log is null (untraced reps).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer, uint64_t req = 0)
      : log_(log), index_(log != nullptr ? log->Begin(name, layer, req) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

// Host nanoseconds per operation of each replayed layer.
struct ReplayCost {
  double cache_ns = 0;              // L1D -> L2 -> L3 Cache::Access chain, per data access
  double monitor_watched_ns = 0;    // MonitorFilter::OnWrite to a watched line
  double monitor_unwatched_ns = 0;  // ... to an unwatched line
  double watched_frac = 0;          // share of captured writes that hit a watched line
  double eventq_ns = 0;             // EventQueue schedule + fire
};

// Replays `capture` into standalone layer instances built from the default
// MemConfig and times the calls. `live_events` sizes the event-queue replay.
ReplayCost Replay(const Capture& capture, uint64_t live_events);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
