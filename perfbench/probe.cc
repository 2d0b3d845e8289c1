#include "probe.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "src/hwt/tracer.h"
#include "src/mem/cache.h"
#include "src/mem/memory_system.h"
#include "src/mem/monitor_filter.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace perfbench {

using casc::Addr;
using casc::Ptid;
using casc::Tick;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr size_t kMaxGapSamples = 1 << 16;

}  // namespace

// --- SpanLog -----------------------------------------------------------------

size_t SpanLog::Begin(const char* name, const char* layer, uint64_t req) {
  const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, layer, req, parent, NowUs(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  spans_[index].dur_us = NowUs() - spans_[index].start_us;
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

double SpanLog::TotalMs(const std::string& name) const {
  double us = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      us += s.dur_us;
    }
  }
  return us / 1e3;
}

bool SpanLog::WriteChromeTrace(const std::string& path, const std::string& process) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               process.c_str());
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,\"req\":%llu}}",
                 s.name, s.layer, s.start_us, s.dur_us, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- Capture -----------------------------------------------------------------

void Capture::NoteWake(Ptid ptid) {
  if (woke_at_.size() <= ptid) {
    woke_at_.resize(ptid + 1, 0);
  }
  // +1 keeps a wake at tick 0 distinct from "no open interval".
  woke_at_[ptid] = sim_.now() + 1;
}

void Capture::Data(Kind kind, Ptid ptid, Addr addr) {
  Push(kind, ptid, addr);
  const Tick now = sim_.now();
  if (ptid < woke_at_.size() && woke_at_[ptid] != 0) {
    wake_to_run_.push_back(now + 1 - woke_at_[ptid]);
    woke_at_[ptid] = 0;
  }
  if (last_op_.size() <= ptid) {
    last_op_.resize(ptid + 1, 0);
  }
  if (op_gaps_.size() < kMaxGapSamples && now > last_op_[ptid] && last_op_[ptid] != 0) {
    op_gaps_.push_back(now - last_op_[ptid]);
  }
  last_op_[ptid] = now;
}

// --- Probe -------------------------------------------------------------------

void Probe::Attach(casc::Machine& m) {
  if (!traced()) {
    return;
  }
  capture_ = std::make_unique<Capture>(m.sim(), capture_cap_);
  m.SetConcurrencyObserver(capture_.get());
  Capture* cap = capture_.get();
  m.threads().AddWakeObserver([cap](Ptid ptid, casc::TraceCause cause) {
    if (cause == casc::TraceCause::kMonitorWake) {
      cap->NoteWake(ptid);
    }
  });
  if (m.sharded()) {
    m.engine()->AddBarrierHook([this] { rounds_++; });
  }
}

void Probe::OnSlice(casc::Machine& m) {
  if (clock_ != nullptr) {
    clock_->Tick();
  }
  if (!traced()) {
    return;
  }
  const uint32_t queues = std::max<uint32_t>(1, m.sim().num_shards());
  uint64_t live = 0;
  for (uint32_t s = 0; s < queues; s++) {
    live += m.sim().QueueFor(s).LiveCount();
  }
  live_events_.push_back(live);
}

// --- Replay ------------------------------------------------------------------

namespace {

bool IsWrite(Capture::Kind k) {
  return k == Capture::kStore || k == Capture::kAtomic || k == Capture::kDma;
}

// Runs `pass` (which returns the number of operations it timed and adds its
// host seconds to *secs) until `min_s` has been spent or 9 passes ran, and
// returns the median ns per operation over the passes.
double TimePasses(const std::function<uint64_t(double* secs)>& pass, double min_s) {
  std::vector<double> per_op;
  double spent = 0;
  for (int i = 0; i < 9 && (i < 3 || spent < min_s); i++) {
    double secs = 0;
    const uint64_t ops = pass(&secs);
    spent += secs;
    if (ops > 0) {
      per_op.push_back(secs * 1e9 / static_cast<double>(ops));
    }
  }
  return Median(per_op);
}

// Host cost of one steady_clock::now() pair, subtracted from short timings.
double ClockPairSeconds() {
  constexpr int kPairs = 4096;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kPairs; i++) {
    [[maybe_unused]] volatile auto a = Clock::now();
  }
  return SecondsSince(t0) / kPairs * 2;
}

double ReplayCaches(const std::vector<Capture::Op>& ops) {
  const casc::MemConfig mc;
  return TimePasses(
      [&](double* secs) {
        casc::Cache l1(mc.l1d), l2(mc.l2), l3(mc.l3);
        uint64_t n = 0;
        const Clock::time_point t0 = Clock::now();
        for (const Capture::Op& op : ops) {
          if (op.kind != Capture::kLoad && op.kind != Capture::kStore &&
              op.kind != Capture::kAtomic) {
            continue;
          }
          const bool w = op.kind != Capture::kLoad;
          if (!l1.Access(op.addr, w) && !l2.Access(op.addr, w)) {
            l3.Access(op.addr, w);
          }
          n++;
        }
        *secs = SecondsSince(t0);
        return n;
      },
      0.05);
}

// Replays arms, disarms and watch teardowns in capture order and times the
// writes between two such changes in two batches, watched and unwatched
// lines. No write changes which lines are watched, so batching the writes of
// one segment leaves the filter in the state the in-order replay would.
void ReplayMonitor(const std::vector<Capture::Op>& ops, ReplayCost* cost) {
  const casc::MemConfig mc;
  const double pair_s = ClockPairSeconds();
  std::vector<double> watched_ns, unwatched_ns;
  uint64_t watched_total = 0, writes_total = 0;
  for (int pass = 0; pass < 3; pass++) {
    casc::StatsRegistry stats;
    casc::MonitorFilter filter(mc.monitor, stats);
    std::vector<Addr> watched, unwatched;
    double w_s = 0, u_s = 0;
    uint64_t w_n = 0, u_n = 0;
    // Each batch is written kRepeat times: repeating a write to a line changes
    // no watch, so the cost per call is unchanged while the clock-read
    // overhead is spread over more calls.
    constexpr int kRepeat = 16;
    auto time_batch = [&](std::vector<Addr>& batch, double* acc, uint64_t* count) {
      if (batch.empty()) {
        return;
      }
      const Clock::time_point t0 = Clock::now();
      for (int r = 0; r < kRepeat; r++) {
        for (Addr a : batch) {
          filter.OnWrite(a, 8);
          // A real call site cannot hoist the filter's empty-set check out
          // of a loop of writes; this barrier keeps the compiler from it.
          std::atomic_signal_fence(std::memory_order_seq_cst);
        }
      }
      *acc += std::max(0.0, SecondsSince(t0) - pair_s);
      *count += kRepeat * batch.size();
      batch.clear();
    };
    auto flush = [&] {
      time_batch(watched, &w_s, &w_n);
      time_batch(unwatched, &u_s, &u_n);
    };
    for (const Capture::Op& op : ops) {
      Ptid first = 0;
      switch (op.kind) {
        case Capture::kArm:
          flush();
          filter.AddWatch(op.ptid, op.addr);
          break;
        case Capture::kDisarm:
          flush();
          filter.RemoveWatch(op.ptid, op.addr);
          break;
        case Capture::kClear:
          flush();
          filter.ClearWatches(op.ptid);
          break;
        default:
          if (IsWrite(op.kind)) {
            (filter.FirstWatcherOf(op.addr, &first) ? watched : unwatched).push_back(op.addr);
          }
          break;
      }
    }
    flush();
    if (w_n > 0) {
      watched_ns.push_back(w_s * 1e9 / static_cast<double>(w_n));
    }
    if (u_n > 0) {
      unwatched_ns.push_back(u_s * 1e9 / static_cast<double>(u_n));
    }
    watched_total = w_n;
    writes_total = w_n + u_n;
  }
  cost->monitor_watched_ns = Median(watched_ns);
  cost->monitor_unwatched_ns = Median(unwatched_ns);
  cost->watched_frac =
      writes_total == 0 ? 0 : static_cast<double>(watched_total) / static_cast<double>(writes_total);
}

// Keeps `live` events pending in a standalone EventQueue; each one, when it
// fires, reschedules itself after the next captured op gap.
double ReplayEventQueue(const std::vector<uint64_t>& gaps_in, uint64_t live) {
  const std::vector<uint64_t> gaps = gaps_in.empty() ? std::vector<uint64_t>{1} : gaps_in;
  live = std::clamp<uint64_t>(live, 1, 4096);
  constexpr uint64_t kFires = 1 << 20;
  return TimePasses(
      [&](double* secs) {
        casc::EventQueue q;
        size_t next = 0;
        using Ev = casc::LambdaEvent<std::function<void()>>;
        std::vector<std::unique_ptr<Ev>> events;
        for (uint64_t i = 0; i < live; i++) {
          events.push_back(std::make_unique<Ev>([&q, &gaps, &next, &events, i] {
            q.ScheduleAfter(events[i].get(), gaps[next++ % gaps.size()]);
          }));
        }
        for (auto& ev : events) {
          q.ScheduleAfter(ev.get(), gaps[next++ % gaps.size()]);
        }
        const Clock::time_point t0 = Clock::now();
        const uint64_t fired = q.RunAll(kFires);
        *secs = SecondsSince(t0);
        return fired;
      },
      0.05);
}

}  // namespace

ReplayCost Replay(const Capture& capture, uint64_t live_events) {
  ReplayCost cost;
  cost.cache_ns = ReplayCaches(capture.ops());
  ReplayMonitor(capture.ops(), &cost);
  cost.eventq_ns = ReplayEventQueue(capture.op_gaps(), live_events);
  return cost;
}

}  // namespace perfbench
