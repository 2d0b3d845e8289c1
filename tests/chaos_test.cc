// Tests for the fault-injection subsystem: schedule semantics, fault-class
// naming, engine bookkeeping, scenario determinism, and the recovery
// runtime's lost-wakeup regression (a descriptor delivered before the
// handler's first monitor arm must still be serviced).
#include <gtest/gtest.h>

#include <limits>

#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault.h"
#include "src/chaos/scenarios.h"
#include "src/chaos/schedule.h"
#include "src/cpu/machine.h"
#include "src/runtime/recovery.h"
#include "src/sim/rng.h"

namespace casc {
namespace {

TEST(ScheduleTest, AtTickFiresExactlyOnce) {
  InjectionSchedule s = InjectionSchedule::AtTick(100);
  Rng rng(1);
  EXPECT_FALSE(s.Fire(50, rng));
  EXPECT_FALSE(s.Fire(99, rng));
  EXPECT_TRUE(s.Fire(120, rng));  // first opportunity at-or-past the tick
  EXPECT_FALSE(s.Fire(130, rng));
  EXPECT_FALSE(s.Fire(100000, rng));
}

TEST(ScheduleTest, EveryNFiresOnCadence) {
  InjectionSchedule s = InjectionSchedule::EveryN(3);
  Rng rng(1);
  int fired = 0;
  for (int i = 0; i < 12; i++) {
    fired += s.Fire(static_cast<Tick>(i), rng) ? 1 : 0;
  }
  EXPECT_EQ(fired, 4);  // every third opportunity
}

TEST(ScheduleTest, AtTickBoundaryAtTickMax) {
  // --at at the very top of tick space: the comparison is `now >= at_` with
  // no arithmetic, so there is nothing to wrap — the schedule must stay
  // armed below the boundary and fire exactly once at it.
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  InjectionSchedule s = InjectionSchedule::AtTick(kMax);
  Rng rng(1);
  EXPECT_FALSE(s.Fire(kMax - 1, rng));
  EXPECT_TRUE(s.Fire(kMax, rng));
  EXPECT_FALSE(s.Fire(kMax, rng));
}

TEST(ScheduleTest, EveryZeroCoercesToEveryEvent) {
  // --every=0 would divide by zero in `count % every`; the factory coerces
  // it to 1 (fire on every eligible event).
  InjectionSchedule s = InjectionSchedule::EveryN(0);
  Rng rng(1);
  EXPECT_TRUE(s.Fire(10, rng));
  EXPECT_TRUE(s.Fire(20, rng));
  EXPECT_TRUE(s.Fire(30, rng));
}

TEST(ScheduleTest, ProbabilityIsDeterministicPerSeed) {
  std::vector<bool> a;
  std::vector<bool> b;
  for (std::vector<bool>* out : {&a, &b}) {
    InjectionSchedule s = InjectionSchedule::WithProbability(0.3);
    Rng rng(42);
    for (int i = 0; i < 200; i++) {
      out->push_back(s.Fire(static_cast<Tick>(i), rng));
    }
  }
  EXPECT_EQ(a, b);
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_LT(std::count(a.begin(), a.end(), true), 200);
}

TEST(FaultClassTest, NamesRoundTrip) {
  for (FaultClass cls : AllScenarioClasses()) {
    FaultClass parsed;
    ASSERT_TRUE(ParseFaultClass(FaultClassName(cls), &parsed)) << FaultClassName(cls);
    EXPECT_EQ(parsed, cls);
  }
  FaultClass parsed;
  EXPECT_FALSE(ParseFaultClass("not-a-fault", &parsed));
}

TEST(ChaosEngineTest, MaxFaultsBoundsInjection) {
  // A context-poison campaign with max_faults=1 over a machine where the
  // victim wakes many times: exactly one record, and SetRecovered implies
  // detection bookkeeping stays consistent.
  ScenarioOptions opts;
  opts.seed = 5;
  opts.faults = 1;
  const ScenarioOutcome out = RunScenario(FaultClass::kContextPoison, opts);
  EXPECT_TRUE(out.ok) << out.why_not_ok;
  EXPECT_EQ(out.injected, 1u);
  EXPECT_EQ(out.detected, 1u);
  EXPECT_EQ(out.recovered, 1u);
}

TEST(ScenarioTest, SameSeedSameStatsBytes) {
  ScenarioOptions opts;
  opts.seed = 9;
  const ScenarioOutcome a = RunScenario(FaultClass::kEdpUnwritable, opts);
  const ScenarioOutcome b = RunScenario(FaultClass::kEdpUnwritable, opts);
  EXPECT_TRUE(a.ok) << a.why_not_ok;
  EXPECT_EQ(a.stats_json, b.stats_json);  // bit-reproducibility contract
}

// Cross-core scenario determinism (DESIGN.md §4k): each of the three
// cross-core fault classes must be bit-reproducible per engine — same seed,
// same stats JSON — on the legacy engine (ht0) and on the sharded engine
// (ht1). ht0 is allowed to differ from ht1 (direct cross-core paths vs
// mailbox hops are different timing models), which is why this test
// compares within each engine, never across.
TEST(ScenarioTest, CrossCoreScenariosAreDeterministicPerEngine) {
  for (FaultClass cls : CrossCoreScenarioClasses()) {
    for (uint32_t ht : {0u, 1u}) {
      SCOPED_TRACE(std::string(FaultClassName(cls)) + " ht" + std::to_string(ht));
      SetDefaultHostThreads(ht);
      ScenarioOptions opts;
      opts.seed = 9;
      const ScenarioOutcome a = RunScenario(cls, opts);
      const ScenarioOutcome b = RunScenario(cls, opts);
      EXPECT_TRUE(a.ok) << a.why_not_ok;
      EXPECT_GE(a.injected, 1u);
      EXPECT_EQ(a.stats_json, b.stats_json);  // bit-reproducibility contract
    }
  }
  SetDefaultHostThreads(0);
}

TEST(ScenarioTest, ChainExhaustionHaltsWithReportableReason) {
  ScenarioOptions opts;
  opts.seed = 1;
  opts.expect_halt = true;
  const ScenarioOutcome out = RunScenario(FaultClass::kEdpUnwritable, opts);
  EXPECT_TRUE(out.ok) << out.why_not_ok;
  EXPECT_TRUE(out.halted);
  EXPECT_EQ(out.halt_why, HaltReason::kHandlerChainExhausted);
  EXPECT_NE(out.halt_reason.find("handler chain exhausted"), std::string::npos);
}

TEST(RecoveryTest, HandlerServicesDescriptorDeliveredBeforeItsFirstWait) {
  // Regression: the worker faults almost immediately, so its descriptor is
  // DMA-written while the handler is still in its startup path. With the
  // monitor armed only after the first scan, that write fell in the
  // scan-to-arm gap and the handler slept forever. FaultHandlerLoop must arm
  // monitors before scanning (monitor -> check -> wait).
  constexpr Addr kWorkerEdp = 0x30000;
  constexpr Addr kHandlerEdp = 0x30100;
  Machine m;
  m.mem().AddSupervisorOnlyRange(0, 0x1000);
  uint64_t worker_runs = 0;
  NativeProgram worker = [&worker_runs](GuestContext& ctx) -> GuestTask {
    worker_runs++;
    co_await ctx.Store(0x100, 1, 8);  // user store to supervisor-only: faults
  };
  const Ptid worker_ptid = m.BindNative(0, 0, worker, /*supervisor=*/false, kWorkerEdp);
  HandlerStats stats;
  HandlerPolicy policy;
  NativeProgram handler = [&, worker_ptid](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, {{worker_ptid, kWorkerEdp}}, policy, &stats);
  };
  const Ptid handler_ptid = m.BindNative(0, 1, handler, /*supervisor=*/true, kHandlerEdp);
  m.Start(worker_ptid);
  m.Start(handler_ptid);
  m.RunFor(20000);
  EXPECT_GE(stats.serviced, 1u);
  EXPECT_GE(stats.restarts, 1u);
  EXPECT_GE(worker_runs, 2u);  // the ward actually came back
  EXPECT_FALSE(m.threads().halted());
}

TEST(RecoveryTest, HandlerGivesUpAfterRestartBudget) {
  constexpr Addr kWorkerEdp = 0x30000;
  constexpr Addr kHandlerEdp = 0x30100;
  Machine m;
  m.mem().AddSupervisorOnlyRange(0, 0x1000);
  NativeProgram worker = [](GuestContext& ctx) -> GuestTask {
    for (;;) {
      co_await ctx.Compute(50);
      co_await ctx.Store(0x100, 1, 8);  // faults every iteration
    }
  };
  const Ptid worker_ptid = m.BindNative(0, 0, worker, /*supervisor=*/false, kWorkerEdp);
  HandlerStats stats;
  HandlerPolicy policy;
  policy.max_restarts_per_ward = 3;
  NativeProgram handler = [&, worker_ptid](GuestContext& ctx) -> GuestTask {
    return FaultHandlerLoop(ctx, {{worker_ptid, kWorkerEdp}}, policy, &stats);
  };
  const Ptid handler_ptid = m.BindNative(0, 1, handler, /*supervisor=*/true, kHandlerEdp);
  m.Start(worker_ptid);
  m.Start(handler_ptid);
  m.RunFor(100000);
  EXPECT_EQ(stats.restarts, 3u);   // budget consumed...
  EXPECT_GE(stats.gave_up, 1u);    // ...then the ward is dropped, not retried
  EXPECT_EQ(m.threads().thread(worker_ptid).state(), ThreadState::kDisabled);
  EXPECT_FALSE(m.threads().halted());
}

}  // namespace
}  // namespace casc
