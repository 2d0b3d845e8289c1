// EventQueue layer microbench (google-benchmark): the host cost of one
// schedule + fire round trip in the three shapes the simulator drives, and
// of the quiet advance that replaces the round trip for a lone actor.
//
//   TickEventReschedule  a caller-owned Event that reschedules itself one
//                        tick ahead from inside Fire() — the per-cycle core
//                        tick.
//   OneShotFire          ScheduleFn one tick ahead, then fire it: the pooled
//                        one-shot path (devices, loadgen, runtime timers).
//   FarFutureMigration   64 events that each reschedule themselves 6000
//                        ticks ahead (the fabric wire latency), so every fire
//                        goes heap -> wheel -> fire.
//   QuietAdvance         a lone actor that moves the clock one tick at a time
//                        with AdvanceIfIdle from inside its own Fire(), as
//                        Core::Cycle does when its core is the only live
//                        actor. Compare with TickEventReschedule: the same
//                        simulated progress without the round trip.
//
// Each benchmark iteration is one fired event (one quiet advance for
// QuietAdvance); items/s is events/s.
//
//   build/bench/bench_micro_eventq                          # full run
//   build/bench/bench_micro_eventq --benchmark_min_time=0.01  # smoke
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/sim/event_queue.h"

namespace casc {
namespace {

// Reschedules itself `period` ticks ahead every time it fires.
class Periodic final : public Event {
 public:
  Periodic(EventQueue* q, Tick period) : q_(q), period_(period) {}
  void Fire() override { q_->ScheduleAfter(this, period_); }

 private:
  EventQueue* q_;
  Tick period_;
};

void BM_TickEventReschedule(benchmark::State& state) {
  EventQueue q;
  Periodic tick(&q, static_cast<Tick>(state.range(0)));
  q.Schedule(&tick, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.RunOne());
  }
  state.SetItemsProcessed(static_cast<int64_t>(q.events_fired()));
}
BENCHMARK(BM_TickEventReschedule)->Arg(1);

void BM_OneShotFire(benchmark::State& state) {
  EventQueue q;
  const Tick delay = static_cast<Tick>(state.range(0));
  uint64_t calls = 0;
  for (auto _ : state) {
    q.ScheduleFnAfter(delay, [&calls] { calls++; });
    benchmark::DoNotOptimize(q.RunOne());
  }
  benchmark::DoNotOptimize(calls);
  state.SetItemsProcessed(static_cast<int64_t>(q.events_fired()));
}
BENCHMARK(BM_OneShotFire)->Arg(1);

void BM_FarFutureMigration(benchmark::State& state) {
  constexpr int kEvents = 64;
  const Tick wire = static_cast<Tick>(state.range(0));
  EventQueue q;
  std::vector<std::unique_ptr<Periodic>> events;
  for (int i = 0; i < kEvents; i++) {
    events.push_back(std::make_unique<Periodic>(&q, wire));
    q.Schedule(events.back().get(), wire + static_cast<Tick>(i) * (wire / kEvents));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.RunOne());
  }
  state.SetItemsProcessed(static_cast<int64_t>(q.events_fired()));
}
// 6000 > EventQueue::kWheelTicks: every reschedule overflows into the heap.
BENCHMARK(BM_FarFutureMigration)->Arg(6000);

// Runs the whole benchmark loop inside its one Fire(), under RunAll's
// advance ceiling, advancing the clock `period` ticks per iteration.
class QuietAdvancer final : public Event {
 public:
  QuietAdvancer(EventQueue* q, benchmark::State* state, Tick period)
      : q_(q), state_(state), period_(period) {}
  void Fire() override {
    for (auto _ : *state_) {
      const bool advanced = q_->AdvanceIfIdle(q_->now() + period_);
      benchmark::DoNotOptimize(advanced);
      benchmark::ClobberMemory();  // the clock store is the timed work
      if (!advanced) {
        state_->SkipWithError("AdvanceIfIdle refused a lone actor");
        break;
      }
    }
  }

 private:
  EventQueue* q_;
  benchmark::State* state_;
  Tick period_;
};

void BM_QuietAdvance(benchmark::State& state) {
  EventQueue q;
  QuietAdvancer actor(&q, &state, static_cast<Tick>(state.range(0)));
  q.Schedule(&actor, 1);
  q.RunAll();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QuietAdvance)->Arg(1);

}  // namespace
}  // namespace casc

BENCHMARK_MAIN();
