// E1 — Cost of the primitives (google-benchmark harness).
//
// Paper claims (§1, §4): starting a hardware thread costs ~20 cycles from
// the large register file and 10–50 cycles (3–16 ns @ 3 GHz) from L2/L3
// slots, while a software context switch costs hundreds of cycles and a
// syscall mode switch hundreds more. Every benchmark below runs the real
// simulated path and reports *simulated* cycles/ns per operation as
// counters (wall time of the simulator itself is meaningless).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/baseline_machine.h"
#include "src/cpu/machine.h"
#include "src/hwt/thread_system.h"

namespace casc {
namespace {

BenchReport* g_report = nullptr;

void ReportSimCycles(benchmark::State& state, const std::string& label, double total_cycles,
                     double ops, double ghz = 3.0) {
  const double per_op = total_cycles / ops;
  state.counters["sim_cycles"] = per_op;
  state.counters["sim_ns"] = per_op / ghz;
  if (g_report != nullptr) {
    g_report->Add("primitives", label, "sim_cycles", per_op);
    g_report->Add("primitives", label, "sim_ns", per_op / ghz);
  }
}

MachineConfig TieredConfig() {
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 32;
  cfg.hwt.rf_slots = 4;
  cfg.hwt.l2_slots = 4;
  cfg.hwt.l3_slots = 4;
  cfg.mem.l3.size_bytes = 1 << 20;  // keep construction cheap
  return cfg;
}

// Wake-to-ready latency with the thread's saved state pinned in one tier.
void BM_HtmWake(benchmark::State& state, StorageTier tier, const std::string& label) {
  Machine m(TieredConfig());
  ThreadSystem& ts = m.threads();
  const Ptid victim = 1;
  ts.InitThread(victim, 0x1000, true);
  double total = 0;
  double ops = 0;
  for (auto _ : state) {
    ts.store(0).ForceTier(ts.thread(victim), tier);
    const Tick before = m.sim().now();
    ts.MakeRunnable(victim);
    total += static_cast<double>(ts.thread(victim).ready_at() - before);
    ops += 1;
    ts.Disable(victim);
    m.RunFor(1);
  }
  ReportSimCycles(state, label, total, ops);
}

// Issue cost of the start instruction itself (supervisor identity mapping).
void BM_HtmStartIssue(benchmark::State& state) {
  Machine m(TieredConfig());
  ThreadSystem& ts = m.threads();
  ts.InitThread(0, 0x1000, true);
  ts.thread(0).set_state(ThreadState::kRunnable);
  ts.InitThread(1, 0x1000, true);
  ts.thread(1).set_state(ThreadState::kRunnable);  // start -> no-op, pure issue cost
  double total = 0;
  double ops = 0;
  for (auto _ : state) {
    total += static_cast<double>(ts.Start(0, 1).latency);
    ops += 1;
  }
  ReportSimCycles(state, "htm_start_issue", total, ops);
}

// Full software context switch on the baseline: two threads ping-pong via
// block/wake; cycles are measured from the busy-cycle counter.
void BM_BaselineContextSwitch(benchmark::State& state) {
  BaselineMachine m;
  SoftThread* a = nullptr;
  SoftThread* b = nullptr;
  a = m.cpu(0).Spawn("a", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      m.cpu(0).Wake(b);
      co_await ctx.Block();
    }
  });
  b = m.cpu(0).Spawn("b", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      m.cpu(0).Wake(a);
      co_await ctx.Block();
    }
  });
  m.RunFor(50000);  // warm the TCB lines
  double total = 0;
  double ops = 0;
  for (auto _ : state) {
    const uint64_t sw0 = m.cpu(0).context_switches();
    const Tick t0 = m.sim().now();
    m.RunFor(20000);
    total += static_cast<double>(m.sim().now() - t0);
    ops += static_cast<double>(m.cpu(0).context_switches() - sw0);
  }
  ReportSimCycles(state, "baseline_context_switch", total, ops);
}

// Baseline syscall: mode switch in and out around a trivial kernel body.
void BM_BaselineSyscall(benchmark::State& state, bool kernel_fp, const std::string& label) {
  BaselineMachineConfig cfg;
  cfg.cpu.kernel_uses_fp = kernel_fp;
  BaselineMachine m(cfg);
  uint64_t calls = 0;
  m.cpu(0).Spawn("sys", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.EnterKernel();
      co_await ctx.Compute(10);
      co_await ctx.ExitKernel();
      calls++;
    }
  });
  m.RunFor(20000);
  double total = 0;
  double ops = 0;
  for (auto _ : state) {
    const uint64_t c0 = calls;
    const Tick t0 = m.sim().now();
    m.RunFor(20000);
    total += static_cast<double>(m.sim().now() - t0);
    ops += static_cast<double>(calls - c0);
  }
  ReportSimCycles(state, label, total, ops);
}

// Baseline VM exit round trip.
void BM_BaselineVmExit(benchmark::State& state) {
  BaselineMachine m;
  uint64_t exits = 0;
  m.cpu(0).Spawn("guest", [&](SoftContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.VmExit();
      co_await ctx.Compute(10);
      co_await ctx.VmEnter();
      exits++;
    }
  });
  m.RunFor(20000);
  double total = 0;
  double ops = 0;
  for (auto _ : state) {
    const uint64_t c0 = exits;
    const Tick t0 = m.sim().now();
    m.RunFor(50000);
    total += static_cast<double>(m.sim().now() - t0);
    ops += static_cast<double>(exits - c0);
  }
  ReportSimCycles(state, "baseline_vm_exit", total, ops);
}

}  // namespace
}  // namespace casc

int main(int argc, char** argv) {
  using namespace casc;
  std::printf(
      "E1 — primitive costs. Paper: hardware-thread start ~20 cyc (RF), 10-50 cyc\n"
      "(L2/L3, 3-16 ns @3GHz); software context switch = hundreds of cycles; the\n"
      "sim_cycles / sim_ns counters below carry the simulated costs.\n\n");
  // --json/--smoke/--host-threads are ours; everything else goes to
  // google-benchmark.
  std::vector<char*> bm_argv = {argv[0]};
  std::vector<const char*> our_argv = {argv[0]};
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--smoke" || a.rfind("--json", 0) == 0 || a.rfind("--host-threads", 0) == 0) {
      our_argv.push_back(argv[i]);
    } else {
      bm_argv.push_back(argv[i]);
    }
  }
  BenchReport report("e1_primitives", static_cast<int>(our_argv.size()), our_argv.data());
  if (!report.parse_ok()) {
    return 1;
  }
  g_report = &report;

  const auto wake_iters = static_cast<int64_t>(report.Iters(2000, 50));
  const struct {
    const char* name;
    StorageTier tier;
  } tiers[] = {{"regfile", StorageTier::kRegFile},
               {"l2_slot", StorageTier::kL2},
               {"l3_slot", StorageTier::kL3},
               {"dram_spill", StorageTier::kDram}};
  for (const auto& t : tiers) {
    const std::string label = std::string("htm_wake/") + t.name;
    benchmark::RegisterBenchmark(
        (std::string("BM_HtmWake/") + t.name).c_str(),
        [tier = t.tier, label](benchmark::State& s) { BM_HtmWake(s, tier, label); })
        ->Iterations(wake_iters);
  }
  benchmark::RegisterBenchmark("BM_HtmStartIssue", BM_HtmStartIssue)
      ->Iterations(static_cast<int64_t>(report.Iters(5000, 100)));
  const auto sw_iters = static_cast<int64_t>(report.Iters(50, 3));
  benchmark::RegisterBenchmark("BM_BaselineContextSwitch", BM_BaselineContextSwitch)
      ->Iterations(sw_iters);
  benchmark::RegisterBenchmark(
      "BM_BaselineSyscall/integer_kernel",
      [](benchmark::State& s) { BM_BaselineSyscall(s, false, "baseline_syscall/integer_kernel"); })
      ->Iterations(sw_iters);
  benchmark::RegisterBenchmark(
      "BM_BaselineSyscall/fp_kernel",
      [](benchmark::State& s) { BM_BaselineSyscall(s, true, "baseline_syscall/fp_kernel"); })
      ->Iterations(sw_iters);
  benchmark::RegisterBenchmark("BM_BaselineVmExit", BM_BaselineVmExit)->Iterations(sw_iters);

  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report.Finish() ? 0 : 1;
}
