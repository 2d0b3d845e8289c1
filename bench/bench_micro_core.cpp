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

void BM_NativeComputeSteps(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  MachineConfig cfg;
  cfg.hwt.threads_per_core = kThreadsPerCore;
  Machine m(cfg);
  for (uint32_t i = 0; i < threads; i++) {
    m.Start(m.BindNative(0, i, ComputeForever, /*supervisor=*/true));
  }
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
BENCHMARK(BM_NativeComputeSteps)->Arg(1)->Arg(16)->Arg(640);

}  // namespace
}  // namespace casc

BENCHMARK_MAIN();
