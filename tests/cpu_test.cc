// End-to-end CPU tests: interpreted CASC-ISA programs and native coroutine
// programs running on the simulated SMT cores with the full hardware
// threading model underneath.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/cpu/machine.h"
#include "src/hwt/exception.h"

namespace casc {
namespace {

// Collects (code, a0) pairs from hcall instructions.
struct HcallLog {
  std::vector<std::pair<int64_t, uint64_t>> entries;

  void InstallOn(Machine& m) {
    m.SetHcallHandler([this](Core&, HwThread& t, int64_t code) {
      entries.push_back({code, t.ReadGpr(10)});
    });
  }
  uint64_t Last(int64_t code) const {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->first == code) {
        return it->second;
      }
    }
    return UINT64_MAX;
  }
};

TEST(CpuTest, RunsArithmeticLoop) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  // Sum 1..10 into a0.
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 0\n"
                              "  li a1, 1\n"
                              "  li a2, 11\n"
                              "loop:\n"
                              "  add a0, a0, a1\n"
                              "  addi a1, a1, 1\n"
                              "  bne a1, a2, loop\n"
                              "  hcall 1\n"
                              "  halt\n",
                              /*supervisor=*/true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 55u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, DrainBudgetToTickMaxReturnsOnceQuiet) {
  // Regression: with limit == Tick max the legacy drain loop compared the
  // empty queue's Tick-max sentinel against the limit and spun forever once
  // the parked thread left nothing to fire.
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 4096\n"
                              "  monitor a0\n"
                              "  mwait\n"
                              "  halt\n",
                              /*supervisor=*/true);
  m.Start(p);
  EXPECT_TRUE(m.DrainBudget(std::numeric_limits<Tick>::max()));
  EXPECT_FALSE(m.halted());
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kWaiting);
}

TEST(CpuTest, LoadsAndStoresThroughCaches) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x8000\n"
                              "  li a2, 1234\n"
                              "  sd a2, 0(a1)\n"
                              "  ld a0, 0(a1)\n"
                              "  addi a0, a0, 1\n"
                              "  sd a0, 8(a1)\n"
                              "  hcall 1\n"
                              "  halt\n",
                              true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 1235u);
  EXPECT_EQ(m.mem().phys().Read64(0x8008), 1235u);
}

TEST(CpuTest, MonitorMwaitProducerConsumer) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  // Consumer on thread 0: wait for the flag line, then read data.
  // Data lives on a different cache line (0x9040) than the watched flag
  // (0x9000) so only the flag write wakes the consumer.
  const Ptid consumer = m.LoadSource(0, 0,
                                     "  li a1, 0x9000\n"
                                     "  monitor a1\n"
                                     "  mwait\n"
                                     "  ld a0, 64(a1)\n"
                                     "  hcall 1\n"
                                     "  csrrd a0, cycle\n"
                                     "  hcall 2\n"
                                     "  halt\n",
                                     true, "", 0, 0x1000);
  // Producer on thread 1: compute a while, then write data + flag.
  const Ptid producer = m.LoadSource(0, 1,
                                     "  li a1, 0x9000\n"
                                     "  li a2, 777\n"
                                     "  li a3, 200\n"
                                     "spin:\n"
                                     "  addi a3, a3, -1\n"
                                     "  bne a3, r0, spin\n"
                                     "  sd a2, 64(a1)\n"
                                     "  csrrd a0, cycle\n"
                                     "  hcall 3\n"
                                     "  sd a2, 0(a1)\n"  // flag write wakes consumer
                                     "  halt\n",
                                     true, "", 0, 0x2000);
  m.Start(consumer);
  m.Start(producer);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 777u);
  const uint64_t produced_at = log.Last(3);
  const uint64_t consumed_at = log.Last(2);
  ASSERT_NE(produced_at, UINT64_MAX);
  ASSERT_NE(consumed_at, UINT64_MAX);
  // Wakeup is nanosecond-scale: well under 100 cycles from flag write to the
  // consumer executing again (§1 "Resuming execution ... nanosecond scale").
  EXPECT_GT(consumed_at, produced_at);
  EXPECT_LT(consumed_at - produced_at, 100u);
}

TEST(CpuTest, StartSpawnsWorkerThread) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const Ptid worker = m.LoadSource(0, 1,
                                   "  li a0, 42\n"
                                   "  hcall 1\n"
                                   "  halt\n",
                                   true, "", 0, 0x3000);
  const Ptid boss = m.LoadSource(0, 0,
                                 "  li a1, 1\n"  // supervisor identity vtid = ptid
                                 "  start a1\n"
                                 "  halt\n",
                                 true, "", 0, 0x1000);
  (void)worker;
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 42u);
}

TEST(CpuTest, RpushSetsUpSoftwareThreadThenStarts) {
  // The OS-scheduler pattern from §3.1: write a disabled ptid's registers
  // (including its PC) with rpush, then start it.
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  m.LoadSource(0, 1,
               "entry_a:\n"
               "  hcall 1\n"
               "  halt\n"
               "entry_b:\n"
               "  addi a0, a0, 900\n"
               "  hcall 1\n"
               "  halt\n",
               true, "entry_a", 0, 0x4000);
  const Program& dummy = *[] {
    static AssembleResult r = Assembler::Assemble(
        "  li a1, 1\n"
        "  li a2, 0x4008\n"     // entry_b (2 instructions past 0x4000)
        "  rpush a1, pc, a2\n"  // redirect the worker
        "  li a3, 55\n"
        "  rpush a1, a0, a3\n"  // seed its a0
        "  start a1\n"
        "  halt\n",
        0x1000);
    return &r.program;
  }();
  const Ptid boss = m.Load(0, 0, dummy, true);
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 955u);
}

TEST(CpuTest, DivideByZeroHandlerChain) {
  // Faulting thread writes a descriptor; a handler thread monitoring the EDP
  // line wakes, reads the descriptor type, and reports it.
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  constexpr Addr kEdp = 0xa000;
  const Ptid faulty = m.LoadSource(0, 0,
                                   "  li a1, 10\n"
                                   "  li a2, 0\n"
                                   "  div a0, a1, a2\n"
                                   "  hcall 9\n"  // must not execute
                                   "  halt\n",
                                   false, "", kEdp, 0x1000);
  const Ptid handler = m.LoadSource(0, 1,
                                    "  li a1, 0xa000\n"
                                    "  monitor a1\n"
                                    "  mwait\n"
                                    "  lw a0, 0(a1)\n"  // descriptor type field
                                    "  hcall 1\n"
                                    "  ld a0, 16(a1)\n"  // errcode? no: addr field
                                    "  halt\n",
                                    true, "", 0, 0x2000);
  m.Start(faulty);
  m.Start(handler);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), static_cast<uint64_t>(ExceptionType::kDivideByZero));
  EXPECT_EQ(log.Last(9), UINT64_MAX);  // faulting thread never continued
  EXPECT_EQ(m.threads().thread(faulty).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, UnhandledExceptionHaltsMachine) {
  Machine m;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 1\n"
                              "  li a2, 0\n"
                              "  div a0, a1, a2\n"
                              "  halt\n",
                              false);  // no EDP
  m.Start(p);
  m.RunToQuiescence();
  EXPECT_TRUE(m.halted());
  EXPECT_NE(m.halt_reason().find("divide-by-zero"), std::string::npos);
}

TEST(CpuTest, UserModeCsrWriteFaults) {
  Machine m;
  constexpr Addr kEdp = 0xa000;
  const Ptid p = m.LoadSource(0, 0,
                              "  li a0, 1\n"
                              "  csrwr mode, a0\n"  // privileged
                              "  halt\n",
                              false, "", kEdp);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), kEdp);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPrivilegedInstruction));
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
}

TEST(CpuTest, UserLoadFromProtectedRangePageFaults) {
  // §3: "Events such as page faults that trigger exceptions in today's CPUs
  // simply write an exception descriptor to memory and disable the current
  // ptid."
  Machine m;
  constexpr Addr kEdp = 0xa000;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x00f00800\n"
                              "  ld a0, 0(a1)\n"  // protected: page fault
                              "  hcall 9\n"        // must not run
                              "  halt\n",
                              /*supervisor=*/false, "", kEdp);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), kEdp);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPageFault));
  EXPECT_EQ(d.addr, 0x00f00800u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, SupervisorAccessToProtectedRangeAllowed) {
  Machine m;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  const Ptid p = m.LoadSource(0, 0,
                              "  li a1, 0x00f00800\n"
                              "  li a0, 42\n"
                              "  sd a0, 0(a1)\n"
                              "  halt\n",
                              /*supervisor=*/true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0x00f00800), 42u);
  EXPECT_FALSE(m.halted());
}

TEST(CpuTest, NativeUserStorePageFaults) {
  Machine m;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  bool reached_after = false;
  const Ptid p = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Store(0x00f00000, 1);
        reached_after = true;
      },
      /*supervisor=*/false, /*edp=*/0xa000);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_FALSE(reached_after);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(m.mem(), 0xa000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPageFault));
}

TEST(CpuTest, SmtSharesCoreFairly) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const char* counting =
      "  li a0, 0\n"
      "  li a2, 2000\n"
      "loop:\n"
      "  addi a0, a0, 1\n"
      "  bne a0, a2, loop\n"
      "  csrrd a0, cycle\n"
      "  hcall 1\n"
      "  halt\n";
  const Ptid a = m.LoadSource(0, 0, counting, true, "", 0, 0x1000);
  const Ptid b = m.LoadSource(0, 1, counting, true, "", 0, 0x2000);
  m.Start(a);
  m.Start(b);
  ASSERT_TRUE(m.RunToQuiescence());
  // Both finish at roughly the same time (fine-grain RR over 2 SMT slots).
  ASSERT_EQ(log.entries.size(), 2u);
  const uint64_t t0 = log.entries[0].second;
  const uint64_t t1 = log.entries[1].second;
  EXPECT_LT(t0 > t1 ? t0 - t1 : t1 - t0, 100u);
}

TEST(CpuTest, PriorityWeightingSkewsProgress) {
  MachineConfig cfg;
  cfg.hwt.smt_width = 1;  // single slot: pure weighted RR
  Machine m(cfg);
  HcallLog log;
  log.InstallOn(m);
  const char* counting =
      "  li a0, 0\n"
      "  li a2, 3000\n"
      "loop:\n"
      "  addi a0, a0, 1\n"
      "  bne a0, a2, loop\n"
      "  csrrd a0, cycle\n"
      "  hcall 1\n"
      "  halt\n";
  const Ptid fast = m.LoadSource(0, 0, counting, true, "", 0, 0x1000);
  const Ptid slow = m.LoadSource(0, 1, counting, true, "", 0, 0x2000);
  m.threads().thread(fast).arch().prio = 4;
  m.Start(fast);
  m.Start(slow);
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(log.entries.size(), 2u);
  const uint64_t fast_done = log.entries[0].second;
  const uint64_t slow_done = log.entries[1].second;
  EXPECT_LT(fast_done, slow_done);
  // With a 4:1 share the high-priority thread finishes at ~62.5% of the
  // low-priority completion time (4/5 of the shared window, then the slow
  // thread runs alone). Allow slack for startup effects.
  EXPECT_LT(static_cast<double>(fast_done), 0.7 * static_cast<double>(slow_done));
}

TEST(CpuTest, NativeProgramComputesAndStores) {
  Machine m;
  const Ptid p = m.BindNative(
      0, 0,
      [](GuestContext& ctx) -> GuestTask {
        uint64_t acc = 0;
        for (int i = 1; i <= 4; i++) {
          co_await ctx.Compute(10);
          acc += static_cast<uint64_t>(i);
        }
        co_await ctx.Store(0xb000, acc);
      },
      /*supervisor=*/true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0xb000), 10u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  // 4 computes of 10 cycles dominate: finishes in a plausible window.
  EXPECT_GE(m.sim().now(), 40u);
  EXPECT_LT(m.sim().now(), 400u);
}

TEST(CpuTest, NativeMwaitWokenByDeviceWrite) {
  Machine m;
  const Ptid p = m.BindNative(
      0, 0,
      [](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(0xc000);
        co_await ctx.Mwait();
        const uint64_t v = co_await ctx.Load(0xc000);
        co_await ctx.Store(0xc100, v + 1);
      },
      true);
  m.Start(p);
  // Let it reach the mwait, then DMA like a NIC would.
  m.RunFor(1000);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kWaiting);
  const uint64_t pkt = 41;
  m.mem().DmaWrite(0xc000, &pkt, 8);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0xc100), 42u);
}

TEST(CpuTest, NativeServerLoopHandlesManyEvents) {
  Machine m;
  const Addr kDoorbell = 0xd000;
  const Addr kCounter = 0xd100;
  const Ptid p = m.BindNative(
      0, 0,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Monitor(kDoorbell);
        for (;;) {
          co_await ctx.Mwait();
          const uint64_t n = co_await ctx.Load(kCounter);
          co_await ctx.Store(kCounter, n + 1);
        }
      },
      true);
  m.Start(p);
  for (int i = 0; i < 5; i++) {
    m.RunFor(500);
    const uint64_t bell = static_cast<uint64_t>(i);
    m.mem().DmaWrite(kDoorbell, &bell, 8);
  }
  m.RunFor(500);
  EXPECT_EQ(m.mem().phys().Read64(kCounter), 5u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kWaiting);
}

TEST(CpuTest, NativeRestartAfterCompletionRunsFreshInstance) {
  Machine m;
  int runs = 0;
  const Ptid p = m.BindNative(
      0, 0,
      [&runs](GuestContext& ctx) -> GuestTask {
        runs++;
        co_await ctx.Compute(5);
      },
      true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 1);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 2);
}

// The core keeps native state in a table indexed by local thread index
// (ptid - PtidOf(core, 0)); the highest ptid of a non-zero core exercises
// both ends of that arithmetic.
TEST(CpuTest, NativeOnLastLocalThreadOfSecondCore) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  const uint32_t last = cfg.hwt.threads_per_core - 1;
  const Ptid p = m.BindNative(
      1, last,
      [](GuestContext& ctx) -> GuestTask {
        co_await ctx.Compute(20);
        co_await ctx.Store(0xb000, ctx.ptid());
      },
      true);
  EXPECT_EQ(p, m.threads().PtidOf(1, last));
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.mem().phys().Read64(0xb000), p);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
}

TEST(CpuTest, BindNativeRejectsPtidOfAnotherCore) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  const Ptid foreign = m.threads().PtidOf(1, 0);
  EXPECT_DEATH(m.core(0).BindNative(foreign, [](GuestContext&) -> GuestTask { co_return; }),
               "not on core 0");
}

// Out-of-range (core, local_thread) pairs used to index past the thread and
// core tables; every build now aborts on them.
TEST(CpuTest, LoadRejectsOutOfRangeThreadOrCore) {
  Machine m;  // one core
  const uint32_t threads = m.threads().config().threads_per_core;
  const Program program = Assembler::Assemble("halt\n", 0x1000).program;
  EXPECT_DEATH(m.Load(0, threads, program, true), "Load: core 0 thread .* is outside");
  EXPECT_DEATH(m.Load(1, 0, program, true), "Load: core 1 thread 0 is outside 1 cores");
  EXPECT_DEATH(m.LoadSource(0, threads, "halt\n", true), "LoadSource: core 0 thread");
  EXPECT_DEATH(m.LoadSource(1, 0, "halt\n", true), "LoadSource: core 1 thread 0");
}

TEST(CpuTest, BindNativeRejectsOutOfRangeThreadOrCore) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  const uint32_t threads = m.threads().config().threads_per_core;
  auto body = [](GuestContext&) -> GuestTask { co_return; };
  EXPECT_DEATH(m.BindNative(1, threads, body, true), "BindNative: core 1 thread .* is outside");
  EXPECT_DEATH(m.BindNative(2, 0, body, true), "BindNative: core 2 thread 0 is outside 2 cores");
}

// A native thread stopped by another thread mid-Compute keeps its instance:
// on restart it finishes the remaining cycles, and its program body is not
// re-run.
TEST(CpuTest, NativeStoppedMidComputeResumesRemainingCycles) {
  constexpr Tick kCompute = 1000;
  constexpr Tick kStopAfter = 300;
  Machine m;
  int runs = 0;
  Tick began = 0;
  Tick done_at = 0;
  const Ptid worker = m.BindNative(
      0, 1,
      [&](GuestContext& ctx) -> GuestTask {
        runs++;
        began = m.sim().now();  // the first compute cycle issues this tick
        co_await ctx.Compute(kCompute);
        done_at = m.sim().now();
      },
      true);
  const Ptid boss = m.BindNative(
      0, 0,
      [worker](GuestContext& ctx) -> GuestTask {
        co_await ctx.Compute(kStopAfter);
        co_await ctx.Stop(worker);  // supervisor identity mapping
      },
      true);
  m.Start(worker);
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  ASSERT_EQ(m.threads().thread(worker).state(), ThreadState::kDisabled);
  EXPECT_EQ(done_at, 0u);
  // Two threads on two SMT slots: the worker issued every tick from `began`
  // up to its last step, which left ready_at one tick past it.
  const Tick consumed = m.threads().thread(worker).ready_at() - began;
  ASSERT_GT(consumed, 0u);
  ASSERT_LT(consumed, kCompute);

  m.Start(worker);
  const Tick first_issue = m.threads().thread(worker).ready_at();
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 1);
  // Alone on the core it issues every tick; the tick after the last compute
  // cycle resumes the coroutine.
  EXPECT_EQ(done_at, first_issue + (kCompute - consumed));
  EXPECT_EQ(m.threads().thread(worker).state(), ThreadState::kDisabled);
}

TEST(CpuTest, NativeRebindReplacesProgram) {
  Machine m;
  int first_runs = 0;
  const Ptid p = m.BindNative(
      0, 0,
      [&first_runs](GuestContext& ctx) -> GuestTask {
        first_runs++;
        co_await ctx.Compute(1'000'000);
        co_await ctx.Store(0xb000, 1);
      },
      true);
  m.Start(p);
  m.RunFor(100);
  // Stopped mid-compute: the rebind must drop the live instance and its
  // pending op, not finish them under the new program.
  m.threads().HostStop(p);
  m.BindNative(
      0, 0,
      [](GuestContext& ctx) -> GuestTask {
        co_await ctx.Compute(10);
        co_await ctx.Store(0xb000, 2);
      },
      true);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(m.mem().phys().Read64(0xb000), 2u);
  EXPECT_LT(m.sim().now(), 1'000u);
}

TEST(CpuTest, InterpretedAndNativeShareOneCore) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const Ptid interp = m.LoadSource(0, 0,
                                   "  li a0, 0\n"
                                   "  li a1, 1\n"
                                   "  li a2, 101\n"
                                   "loop:\n"
                                   "  add a0, a0, a1\n"
                                   "  addi a1, a1, 1\n"
                                   "  bne a1, a2, loop\n"
                                   "  hcall 1\n"
                                   "  halt\n",
                                   true);
  const Ptid native = m.BindNative(
      0, 1,
      [](GuestContext& ctx) -> GuestTask {
        uint64_t acc = 0;
        for (uint64_t i = 1; i <= 100; i++) {
          co_await ctx.Compute(2);
          acc += i;
        }
        co_await ctx.Store(0xb000, acc);
      },
      true);
  m.Start(interp);
  m.Start(native);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 5050u);
  EXPECT_EQ(m.mem().phys().Read64(0xb000), 5050u);
  EXPECT_EQ(m.threads().thread(interp).state(), ThreadState::kDisabled);
  EXPECT_EQ(m.threads().thread(native).state(), ThreadState::kDisabled);
}

TEST(CpuTest, NativeRestartAfterFaultRunsFreshInstance) {
  Machine m;
  m.mem().AddSupervisorOnlyRange(0x00f00000, 0x1000);
  int runs = 0;
  const Ptid p = m.BindNative(
      0, 0,
      [&runs](GuestContext& ctx) -> GuestTask {
        runs++;
        co_await ctx.Compute(5);
        // The first instance faults; the second takes the legal path.
        co_await ctx.Store(runs == 1 ? 0x00f00000 : 0xb000, 7);
      },
      /*supervisor=*/false, /*edp=*/0xa000);
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
  EXPECT_EQ(ExceptionDescriptor::ReadFrom(m.mem(), 0xa000).type,
            static_cast<uint32_t>(ExceptionType::kPageFault));
  m.Start(p);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(m.mem().phys().Read64(0xb000), 7u);
  EXPECT_EQ(m.threads().thread(p).state(), ThreadState::kDisabled);
}

TEST(CpuTest, NativeStartsInterpretedWorkerAcrossCores) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  HcallLog log;
  log.InstallOn(m);
  const Ptid remote_worker = m.LoadSource(1, 0,
                                          "  li a0, 7\n"
                                          "  hcall 1\n"
                                          "  halt\n",
                                          true);
  const Ptid boss = m.BindNative(
      0, 0,
      [remote_worker](GuestContext& ctx) -> GuestTask {
        co_await ctx.Compute(10);
        co_await ctx.Start(remote_worker);  // supervisor identity mapping
      },
      true);
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(log.Last(1), 7u);
}

TEST(CpuTest, WakeLatencyReflectsStorageTier) {
  // A thread whose context spilled to DRAM wakes slower than an RF-resident
  // one (E1/E8 mechanism check).
  MachineConfig cfg;
  cfg.hwt.threads_per_core = 32;
  cfg.hwt.rf_slots = 2;
  cfg.hwt.l2_slots = 2;
  cfg.hwt.l3_slots = 2;
  Machine m(cfg);
  const Ptid hot = m.LoadSource(0, 0, "halt\n", true, "", 0, 0x1000);
  const Ptid cold = m.LoadSource(0, 20, "halt\n", true, "", 0, 0x2000);
  EXPECT_EQ(m.threads().thread(hot).tier(), StorageTier::kRegFile);
  EXPECT_EQ(m.threads().thread(cold).tier(), StorageTier::kDram);
  const Tick t0 = m.sim().now();
  m.Start(hot);
  const Tick hot_ready = m.threads().thread(hot).ready_at() - t0;
  m.Start(cold);
  const Tick cold_ready = m.threads().thread(cold).ready_at() - t0;
  EXPECT_LT(hot_ready, cold_ready);
  EXPECT_EQ(hot_ready, m.config().hwt.pipeline_restore_cycles);
  EXPECT_GE(cold_ready, m.config().mem.dram_latency);
}

TEST(CpuTest, StopFromAnotherThread) {
  Machine m;
  HcallLog log;
  log.InstallOn(m);
  const Ptid spinner = m.LoadSource(0, 1,
                                    "loop:\n"
                                    "  addi a0, a0, 1\n"
                                    "  j loop\n",
                                    true, "", 0, 0x2000);
  const Ptid boss = m.LoadSource(0, 0,
                                 "  li a1, 400\n"
                                 "wait:\n"
                                 "  addi a1, a1, -1\n"
                                 "  bne a1, r0, wait\n"
                                 "  li a2, 1\n"
                                 "  stop a2\n"
                                 "  halt\n",
                                 true, "", 0, 0x1000);
  m.Start(spinner);
  m.Start(boss);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(m.threads().thread(spinner).state(), ThreadState::kDisabled);
  // The spinner made progress but was stopped mid-loop.
  EXPECT_GT(m.threads().thread(spinner).ReadGpr(10), 0u);
}

}  // namespace
}  // namespace casc
