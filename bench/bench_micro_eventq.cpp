// EventQueue layer microbench (google-benchmark): the host cost of one
// schedule + fire round trip in the three shapes the simulator drives.
//
//   TickEventReschedule  a caller-owned Event that reschedules itself one
//                        tick ahead from inside Fire() — the per-cycle core
//                        tick.
//   OneShotFire          ScheduleFn one tick ahead, then fire it: the pooled
//                        one-shot path (devices, loadgen, runtime timers).
//   FarFutureMigration   64 events that each reschedule themselves 6000
//                        ticks ahead (the fabric wire latency), so every fire
//                        goes heap -> wheel -> fire.
//
// Each benchmark iteration is one fired event; items/s is events/s.
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

}  // namespace
}  // namespace casc

BENCHMARK_MAIN();
