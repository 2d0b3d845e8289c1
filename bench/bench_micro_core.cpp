// Core step layer microbench (google-benchmark): the host cost of one
// Core::Step on a core whose hardware threads are all native coroutines,
// each looping on Compute(1000). Almost every step is then a one-cycle tick
// of a pending Compute op, the shape that dominates the native server
// workloads (ring syscalls, thread-per-request RPC).
//
//   NativeComputeSteps/K  K native threads (1, 16, 640) on one core of a
//                         one-core machine with 640 threads per core. With
//                         the default 2 SMT slots, K = 1 steps once per tick
//                         and K >= 2 twice; at K = 640 most contexts live
//                         outside the register file, so the scheduler's
//                         rotation and context restores are in the measured
//                         path too.
//
//   NativeRestoreStormSteps/640
//                         the case the pick still pays O(rotation) for: 640
//                         native threads in 320 ping-pong pairs (each thread
//                         starts its partner, then stops itself), with
//                         prefetch-on-wake off, 4-slot RF/L2/L3 tiers and a
//                         2000-cycle DRAM, so every wake is a long demand
//                         restore. Pair starts are staggered 7 ticks apart
//                         so the hops spread over the restore period instead
//                         of moving in lockstep. About 320 threads are
//                         runnable at a time but few are ready, so the pick
//                         walks the whole rotation to fill its SMT slots and
//                         the next-work scan rarely exits early. `runnable`
//                         and `ready` count both at the end of the run.
//
// Each benchmark iteration advances the machine 1000 simulated ticks. The
// `per_step` counter is host time per simulated step (printed in ns; steps =
// the core's retired-instruction count, which counts one per Step); items/s
// is steps/s.
//
//   build/bench/bench_micro_core                            # full run
//   build/bench/bench_micro_core --benchmark_min_time=0.01  # smoke
#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/cpu/machine.h"

namespace casc {
namespace {

constexpr uint32_t kThreadsPerCore = 640;
constexpr Tick kTicksPerIteration = 1000;

GuestTask ComputeForever(GuestContext& ctx) {
  for (;;) {
    co_await ctx.Compute(1000);
  }
}

// Supervisor threads without a TDT name ptids directly, so vtid == ptid.
NativeProgram PingPong(Ptid partner) {
  return [partner](GuestContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.Start(partner);
      co_await ctx.StopSelf();
    }
  };
}

// Runs the machine past its start-up transient, then times kTicksPerIteration
// ticks per iteration and reports host time per core step.
void MeasureSteps(benchmark::State& state, Machine& m) {
  m.RunFor(10 * kTicksPerIteration);  // past the initial context restores
  Core& core = m.core(0);
  const uint64_t steps_before = core.instructions_retired();
  for (auto _ : state) {
    m.RunFor(kTicksPerIteration);
  }
  const auto steps = static_cast<double>(core.instructions_retired() - steps_before);
  if (steps == 0) {
    state.SkipWithError("no native steps ran");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
  // An inverted rate: elapsed seconds / steps.
  state.counters["per_step"] =
      benchmark::Counter(steps, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_NativeComputeSteps(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  MachineConfig cfg;
  cfg.hwt.threads_per_core = kThreadsPerCore;
  Machine m(cfg);
  for (uint32_t i = 0; i < threads; i++) {
    m.Start(m.BindNative(0, i, ComputeForever, /*supervisor=*/true));
  }
  MeasureSteps(state, m);
}
BENCHMARK(BM_NativeComputeSteps)->Arg(1)->Arg(16)->Arg(640);

void BM_NativeRestoreStormSteps(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  MachineConfig cfg;
  cfg.hwt.threads_per_core = kThreadsPerCore;
  cfg.hwt.prefetch_on_wake = false;
  cfg.hwt.rf_slots = 4;
  cfg.hwt.l2_slots = 4;
  cfg.hwt.l3_slots = 4;
  cfg.mem.dram_latency = 2000;
  Machine m(cfg);
  const uint32_t pairs = threads / 2;
  for (uint32_t i = 0; i < pairs; i++) {
    const Ptid a = m.threads().PtidOf(0, i);
    const Ptid b = m.threads().PtidOf(0, i + pairs);
    m.BindNative(0, i, PingPong(b), /*supervisor=*/true);
    m.BindNative(0, i + pairs, PingPong(a), /*supervisor=*/true);
    m.Start(a);
    m.RunFor(7);
  }
  MeasureSteps(state, m);
  uint32_t runnable = 0;
  uint32_t ready = 0;
  for (uint32_t i = 0; i < threads; i++) {
    const HwThread& t = m.threads().thread(m.threads().PtidOf(0, i));
    if (t.state() == ThreadState::kRunnable) {
      runnable++;
      ready += t.ready_at() <= m.sim().now() ? 1 : 0;
    }
  }
  state.counters["runnable"] = runnable;
  state.counters["ready"] = ready;
}
BENCHMARK(BM_NativeRestoreStormSteps)->Arg(640);

}  // namespace
}  // namespace casc

BENCHMARK_MAIN();
