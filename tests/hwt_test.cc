// Tests for the hardware threading model: ptid state machine, TDT
// translation and permissions (Table 1), vtid cache + invtid, tiered context
// store, weighted scheduling queue, exception descriptors, and monitor/mwait
// integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/hwt/context_store.h"
#include "src/hwt/exception.h"
#include "src/hwt/sched_queue.h"
#include "src/hwt/tdt.h"
#include "src/hwt/thread_system.h"
#include "src/mem/memory_system.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"

namespace casc {
namespace {

constexpr Addr kTdtBase = 0x20000;

class HwtTest : public ::testing::Test {
 protected:
  HwtTest() : sim_(3.0), mem_(sim_, MemConfig{}, 2), ts_(sim_, mem_, MakeConfig(), 2) {}

  static HwtConfig MakeConfig() {
    HwtConfig cfg;
    cfg.threads_per_core = 16;
    cfg.rf_slots = 4;
    cfg.l2_slots = 4;
    cfg.l3_slots = 4;
    return cfg;
  }

  // Installs a TDT for `issuer` with one entry: vtid 0 -> (target, perms).
  void InstallTdt(Ptid issuer, Ptid target, uint8_t perms, uint64_t size = 1) {
    TdtEntry{target, perms}.WriteTo(mem_, kTdtBase, 0);
    ts_.thread(issuer).arch().tdtr = kTdtBase;
    ts_.thread(issuer).arch().tdt_size = size;
  }

  Simulation sim_;
  MemorySystem mem_;
  ThreadSystem ts_;
};

TEST_F(HwtTest, ThreadsStartDisabled) {
  for (Ptid p = 0; p < ts_.num_threads(); p++) {
    EXPECT_EQ(ts_.thread(p).state(), ThreadState::kDisabled);
  }
  EXPECT_EQ(ts_.num_threads(), 32u);
  EXPECT_EQ(ts_.CoreOf(17), 1u);
  EXPECT_EQ(ts_.PtidOf(1, 1), 17u);
}

TEST_F(HwtTest, SupervisorIdentityStartStop) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  OpResult r = ts_.Start(0, 5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kRunnable);
  EXPECT_GT(r.latency, 0u);

  r = ts_.Stop(0, 5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kDisabled);
}

TEST_F(HwtTest, UserWithoutTdtCannotStart) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  const OpResult r = ts_.Start(1, 5);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(ts_.thread(1).state(), ThreadState::kDisabled);  // faulted
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kDisabled);
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kInvalidVtid));
  EXPECT_EQ(d.ptid, 1u);
}

TEST_F(HwtTest, TdtGrantsStartToUserThread) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermStart);
  const OpResult r = ts_.Start(1, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(ts_.thread(7).state(), ThreadState::kRunnable);
}

TEST_F(HwtTest, TdtDeniesStopWithoutPermission) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermStart);  // start only
  ts_.thread(7).set_state(ThreadState::kRunnable);
  const OpResult r = ts_.Stop(1, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(ts_.thread(7).state(), ThreadState::kRunnable);  // unaffected
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPermissionDenied));
}

TEST_F(HwtTest, NonHierarchicalPrivilege) {
  // §3.2: B may stop A, C may stop B, but C has no permission over A —
  // impossible with protection rings.
  const Ptid a = 4;
  const Ptid b = 5;
  const Ptid c = 6;
  for (Ptid p : {a, b, c}) {
    ts_.InitThread(p, 0x1000, /*supervisor=*/false, /*edp=*/0x30000 + p * 0x100);
    ts_.thread(p).set_state(ThreadState::kRunnable);
  }
  // B's TDT: vtid0 -> A (stop). C's TDT: vtid0 -> B (stop). Separate tables.
  TdtEntry{a, kPermStop}.WriteTo(mem_, 0x40000, 0);
  ts_.thread(b).arch().tdtr = 0x40000;
  ts_.thread(b).arch().tdt_size = 1;
  TdtEntry{b, kPermStop}.WriteTo(mem_, 0x41000, 0);
  ts_.thread(c).arch().tdtr = 0x41000;
  ts_.thread(c).arch().tdt_size = 1;

  EXPECT_TRUE(ts_.Stop(b, 0).ok);  // B stops A
  EXPECT_EQ(ts_.thread(a).state(), ThreadState::kDisabled);
  EXPECT_TRUE(ts_.Stop(c, 0).ok);  // C stops B
  EXPECT_EQ(ts_.thread(b).state(), ThreadState::kDisabled);
  // C's only vtid maps to B; it has no way to name A at all.
  EXPECT_FALSE(ts_.Start(c, 1).ok);  // out of table -> invalid vtid, C faults
}

TEST_F(HwtTest, RpullRpushOnDisabledTarget) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  ts_.thread(3).arch().pc = 0x2222;
  ts_.thread(3).WriteGpr(10, 77);

  OpResult r = ts_.Rpull(0, 3, 10);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 77u);
  r = ts_.Rpull(0, 3, static_cast<uint32_t>(RemoteReg::kPc));
  EXPECT_EQ(r.value, 0x2222u);

  EXPECT_TRUE(ts_.Rpush(0, 3, static_cast<uint32_t>(RemoteReg::kPc), 0x3333).ok);
  EXPECT_EQ(ts_.thread(3).arch().pc, 0x3333u);
  EXPECT_TRUE(ts_.Rpush(0, 3, 11, 88).ok);
  EXPECT_EQ(ts_.thread(3).ReadGpr(11), 88u);
}

TEST_F(HwtTest, RpullFaultsOnRunnableTarget) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true, /*edp=*/0x30000);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  ts_.thread(3).set_state(ThreadState::kRunnable);
  const OpResult r = ts_.Rpull(0, 3, 10);
  EXPECT_FALSE(r.ok);
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kTargetNotDisabled));
}

TEST_F(HwtTest, UserCannotRpushModeEvenWithModifyMost) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermAll);
  const OpResult r = ts_.Rpush(1, 0, static_cast<uint32_t>(RemoteReg::kMode), 1);
  EXPECT_FALSE(r.ok);
  sim_.queue().RunAll();
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPrivilegedInstruction));
}

TEST_F(HwtTest, UserNeedsModifyMostForPcWrite) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  InstallTdt(1, /*target=*/7, kPermStart | kPermStop | kPermModifySome);
  // GPR write allowed.
  EXPECT_TRUE(ts_.Rpush(1, 0, 12, 5).ok);
  // PC write requires modify-most.
  EXPECT_FALSE(ts_.Rpush(1, 0, static_cast<uint32_t>(RemoteReg::kPc), 0x9999).ok);
}

TEST_F(HwtTest, VtidCacheHitsAfterWalkAndInvtidInvalidates) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  InstallTdt(0, /*target=*/7, kPermAll, /*size=*/4);

  Tick lat1 = 0;
  const Translation t1 = ts_.Translate(0, 0, &lat1);
  ASSERT_TRUE(t1.valid);
  EXPECT_FALSE(t1.cache_hit);
  EXPECT_GT(lat1, ts_.config().vtid_cache_hit_cycles);  // memory walk

  Tick lat2 = 0;
  const Translation t2 = ts_.Translate(0, 0, &lat2);
  EXPECT_TRUE(t2.cache_hit);
  EXPECT_EQ(lat2, ts_.config().vtid_cache_hit_cycles);

  // Repoint the entry; stale until invtid.
  TdtEntry{9, kPermAll}.WriteTo(mem_, kTdtBase, 0);
  Tick lat3 = 0;
  EXPECT_EQ(ts_.Translate(0, 0, &lat3).ptid, 7u);  // stale hit
  // invtid names the thread whose cache is flushed; install a self-mapping
  // at vtid 1 so the issuer can invalidate its own entry 0.
  TdtEntry{0, kPermAll}.WriteTo(mem_, kTdtBase, 1);
  EXPECT_TRUE(ts_.Invtid(0, 1, 0).ok);
  Tick lat4 = 0;
  const Translation t4 = ts_.Translate(0, 0, &lat4);
  EXPECT_EQ(t4.ptid, 9u);
  EXPECT_FALSE(t4.cache_hit);
}

TEST_F(HwtTest, MonitorMwaitWakeOnDma) {
  ts_.InitThread(2, 0x1000, /*supervisor=*/false);
  ts_.thread(2).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.Monitor(2, 0x8000).ok);
  const auto mw = ts_.Mwait(2);
  EXPECT_TRUE(mw.blocked);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kWaiting);

  const uint64_t pkt = 1;
  mem_.DmaWrite(0x8000, &pkt, 8);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kRunnable);
  EXPECT_GE(ts_.thread(2).ready_at(), sim_.now());
}

TEST_F(HwtTest, MwaitReturnsImmediatelyIfWriteRacedAhead) {
  ts_.InitThread(2, 0x1000, /*supervisor=*/false);
  ts_.thread(2).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.Monitor(2, 0x8000).ok);
  const uint64_t pkt = 1;
  mem_.DmaWrite(0x8000, &pkt, 8);  // write lands between monitor and mwait
  const auto mw = ts_.Mwait(2);
  EXPECT_FALSE(mw.blocked);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kRunnable);
}

TEST_F(HwtTest, StartWakesWaitingThread) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  ts_.InitThread(2, 0x1000, /*supervisor=*/false);
  ts_.thread(2).set_state(ThreadState::kRunnable);
  ASSERT_TRUE(ts_.Monitor(2, 0x8000).ok);
  ASSERT_TRUE(ts_.Mwait(2).blocked);
  EXPECT_TRUE(ts_.Start(0, 2).ok);
  EXPECT_EQ(ts_.thread(2).state(), ThreadState::kRunnable);
}

TEST_F(HwtTest, CrossCoreStartAddsInterconnectDelay) {
  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  const Ptid remote = ts_.PtidOf(1, 0);
  sim_.queue().RunUntil(100);
  EXPECT_TRUE(ts_.Start(0, remote).ok);
  EXPECT_GE(ts_.thread(remote).ready_at(), 100 + ts_.config().remote_start_cycles);
}

TEST_F(HwtTest, ExceptionWithoutEdpHaltsMachine) {
  ts_.InitThread(3, 0x1000, /*supervisor=*/false, /*edp=*/0);
  ts_.thread(3).set_state(ThreadState::kRunnable);
  ts_.RaiseException(3, ExceptionType::kDivideByZero, 0, 0);
  EXPECT_TRUE(ts_.halted());
  EXPECT_NE(ts_.halt_reason().find("divide-by-zero"), std::string::npos);
  // The structured halt record carries the same story as the string.
  EXPECT_EQ(ts_.halt_info().reason, HaltReason::kUnhandledException);
  EXPECT_EQ(ts_.halt_info().exception, ExceptionType::kDivideByZero);
  EXPECT_EQ(ts_.halt_info().ptid, 3u);
  EXPECT_EQ(ts_.halt_info().chain_depth, 0u);
}

TEST_F(HwtTest, ExceptionChainEndsAtThreadWithoutHandler) {
  // A faults -> B handles; B faults -> C handles; C faults -> halt (§3.2).
  ts_.InitThread(4, 0x1000, false, /*edp=*/0x30000);
  ts_.InitThread(5, 0x1000, false, /*edp=*/0x30100);
  ts_.InitThread(6, 0x1000, false, /*edp=*/0);
  for (Ptid p : {4u, 5u, 6u}) {
    ts_.thread(p).set_state(ThreadState::kRunnable);
  }
  ts_.RaiseException(4, ExceptionType::kDivideByZero, 0, 0);
  sim_.queue().RunAll();
  EXPECT_FALSE(ts_.halted());
  EXPECT_EQ(ExceptionDescriptor::ReadFrom(mem_, 0x30000).ptid, 4u);

  ts_.RaiseException(5, ExceptionType::kPageFault, 0xdead, 0);
  sim_.queue().RunAll();
  EXPECT_FALSE(ts_.halted());
  EXPECT_EQ(ExceptionDescriptor::ReadFrom(mem_, 0x30100).ptid, 5u);

  ts_.RaiseException(6, ExceptionType::kDivideByZero, 0, 0);
  EXPECT_TRUE(ts_.halted());
}

TEST_F(HwtTest, ExceptionDescriptorWakesMonitoringHandler) {
  ts_.InitThread(4, 0x1000, false, /*edp=*/0x30000);
  ts_.thread(4).set_state(ThreadState::kRunnable);
  ts_.InitThread(5, 0x2000, true);
  ts_.thread(5).set_state(ThreadState::kRunnable);
  ASSERT_TRUE(ts_.Monitor(5, 0x30000).ok);
  ASSERT_TRUE(ts_.Mwait(5).blocked);

  ts_.RaiseException(4, ExceptionType::kPageFault, 0xbeef, 0);
  sim_.queue().RunAll();
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kRunnable);
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30000);
  EXPECT_EQ(d.addr, 0xbeefu);
  EXPECT_EQ(d.seq, 1u);
}

TEST_F(HwtTest, DescriptorWriteFaultEscalatesToWatcher) {
  // The faulter's EDP page is unwritable, so the descriptor write itself
  // faults. The thread monitoring that EDP line is the handler that would
  // have serviced the fault — it becomes the next faulting party and takes a
  // page-fault descriptor naming the undeliverable EDP, with the original
  // faulter in errcode.
  ts_.InitThread(4, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(4).set_state(ThreadState::kRunnable);
  ts_.InitThread(5, 0x2000, /*supervisor=*/true, /*edp=*/0x30100);
  ts_.thread(5).set_state(ThreadState::kRunnable);
  ASSERT_TRUE(ts_.Monitor(5, 0x30000).ok);
  ASSERT_TRUE(ts_.Mwait(5).blocked);
  mem_.AddUnwritableRange(0x30000, ExceptionDescriptor::kBytes);

  ts_.RaiseException(4, ExceptionType::kDivideByZero, 0, 0);
  sim_.queue().RunAll();
  EXPECT_FALSE(ts_.halted());
  const ExceptionDescriptor d = ExceptionDescriptor::ReadFrom(mem_, 0x30100);
  EXPECT_EQ(d.type, static_cast<uint32_t>(ExceptionType::kPageFault));
  EXPECT_EQ(d.ptid, 5u);
  EXPECT_EQ(d.addr, 0x30000u);   // the EDP the fabric refused to write
  EXPECT_EQ(d.errcode, 4u);      // the original faulter
  EXPECT_EQ(ts_.thread(4).state(), ThreadState::kDisabled);
  EXPECT_EQ(ts_.thread(5).state(), ThreadState::kDisabled);
  EXPECT_EQ(sim_.stats().GetCounter("hwt.exception_escalations"), 1u);
}

TEST_F(HwtTest, DescriptorWriteFaultWithNoWatcherHaltsCleanly) {
  // Unwritable EDP and nobody monitoring the line: the escalation walk has
  // nowhere to go, so the machine halts with a reportable reason — no
  // assertion, no silent wedge.
  ts_.InitThread(4, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(4).set_state(ThreadState::kRunnable);
  mem_.AddUnwritableRange(0x30000, ExceptionDescriptor::kBytes);

  ts_.RaiseException(4, ExceptionType::kDivideByZero, 0, 0);
  sim_.queue().RunAll();
  EXPECT_TRUE(ts_.halted());
  EXPECT_EQ(ts_.halt_info().reason, HaltReason::kHandlerChainExhausted);
  EXPECT_EQ(ts_.halt_info().ptid, 4u);
  EXPECT_EQ(ts_.halt_info().chain_depth, 1u);
  EXPECT_NE(ts_.halt_reason().find("handler chain exhausted"), std::string::npos);
}

TEST_F(HwtTest, EscalationChainTerminatesWhenEveryEdpIsUnwritable) {
  // A three-deep handler chain where every EDP page is unwritable: each
  // escalation step disables one watcher (tearing down its watches), so the
  // walk provably runs out of watchers and halts instead of looping.
  ts_.InitThread(4, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.InitThread(5, 0x2000, /*supervisor=*/true, /*edp=*/0x30100);
  ts_.InitThread(6, 0x3000, /*supervisor=*/true, /*edp=*/0x30200);
  for (Ptid p : {4u, 5u, 6u}) {
    ts_.thread(p).set_state(ThreadState::kRunnable);
  }
  ASSERT_TRUE(ts_.Monitor(5, 0x30000).ok);
  ASSERT_TRUE(ts_.Mwait(5).blocked);
  ASSERT_TRUE(ts_.Monitor(6, 0x30100).ok);
  ASSERT_TRUE(ts_.Mwait(6).blocked);
  for (Addr edp : {Addr{0x30000}, Addr{0x30100}, Addr{0x30200}}) {
    mem_.AddUnwritableRange(edp, ExceptionDescriptor::kBytes);
  }

  ts_.RaiseException(4, ExceptionType::kPageFault, 0xdead, 0);
  sim_.queue().RunAll();
  EXPECT_TRUE(ts_.halted());
  EXPECT_EQ(ts_.halt_info().reason, HaltReason::kHandlerChainExhausted);
  EXPECT_EQ(ts_.halt_info().chain_depth, 3u);
  for (Ptid p : {4u, 5u, 6u}) {
    EXPECT_EQ(ts_.thread(p).state(), ThreadState::kDisabled);
  }
  EXPECT_EQ(sim_.stats().GetCounter("hwt.exception_escalations"), 3u);
}

TEST_F(HwtTest, CsrPrivilegeEnforced) {
  ts_.InitThread(1, 0x1000, /*supervisor=*/false, /*edp=*/0x30000);
  ts_.thread(1).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.ReadCsr(1, Csr::kPtid).ok);
  EXPECT_EQ(ts_.ReadCsr(1, Csr::kPtid).value, 1u);
  const OpResult r = ts_.WriteCsr(1, Csr::kMode, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(ts_.thread(1).state(), ThreadState::kDisabled);

  ts_.InitThread(0, 0x1000, /*supervisor=*/true);
  ts_.thread(0).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts_.WriteCsr(0, Csr::kPrio, 8).ok);
  EXPECT_EQ(ts_.thread(0).arch().prio, 8u);
}

TEST_F(HwtTest, ContextStoreTiersByOccupancy) {
  // rf_slots=4, l2=4, l3=4, 16 threads/core: the first 4 admit to RF, then
  // spill L2 (4), L3 (4), DRAM (rest).
  ContextStore& store = ts_.store(0);
  EXPECT_EQ(store.rf_occupancy(), 4u);
  EXPECT_EQ(ts_.thread(0).tier(), StorageTier::kRegFile);
  EXPECT_EQ(ts_.thread(4).tier(), StorageTier::kL2);
  EXPECT_EQ(ts_.thread(8).tier(), StorageTier::kL3);
  EXPECT_EQ(ts_.thread(12).tier(), StorageTier::kDram);
}

TEST_F(HwtTest, RestoreLatencyOrderedByTier) {
  ContextStore& store = ts_.store(0);
  const Tick rf = store.RestoreLatency(ts_.thread(0));
  const Tick l2 = store.RestoreLatency(ts_.thread(4));
  const Tick l3 = store.RestoreLatency(ts_.thread(8));
  const Tick dram = store.RestoreLatency(ts_.thread(12));
  EXPECT_EQ(rf, ts_.config().pipeline_restore_cycles);
  EXPECT_LE(rf, l2);
  EXPECT_LT(l2, l3);
  EXPECT_LT(l3, dram);
  // §4 numbers: RF ~20 cycles; L2/L3 in the 10-50 cycle range.
  EXPECT_LE(l3, 60u);
}

TEST_F(HwtTest, WakePromotesToRegFileAndEvictsLru) {
  // Wake a DRAM-resident thread; it should land in the RF, evicting an
  // unpinned disabled thread.
  const Ptid cold = 12;
  EXPECT_EQ(ts_.thread(cold).tier(), StorageTier::kDram);
  ts_.InitThread(cold, 0x1000, false);
  ts_.MakeRunnable(cold);
  EXPECT_EQ(ts_.thread(cold).tier(), StorageTier::kRegFile);
  EXPECT_EQ(ts_.store(0).rf_occupancy(), 4u);
  EXPECT_GT(ts_.thread(cold).ready_at(), sim_.now());
}

TEST_F(HwtTest, PinnedThreadsAreNotEvicted) {
  for (Ptid p = 0; p < 4; p++) {
    ts_.thread(p).set_pinned(true);
  }
  const Ptid cold = 12;
  ts_.MakeRunnable(cold);
  // No eviction possible: the thread stays in DRAM and pays that latency.
  EXPECT_EQ(ts_.thread(cold).tier(), StorageTier::kDram);
}

TEST_F(HwtTest, WakeVictimSpillsIntoFreedTierSlot) {
  // Regression: rf/l2/l3 = 4/4/4 with 16 threads means both spill tiers start
  // full. Waking the L2-resident thread 4 frees its L2 slot; the evicted RF
  // victim must reuse exactly that slot. The old code released the waker's
  // slot only after picking the victim's spill tier, so the victim saw a full
  // L2/L3 and dropped all the way to DRAM.
  ContextStore& store = ts_.store(0);
  ASSERT_EQ(ts_.thread(4).tier(), StorageTier::kL2);
  ASSERT_EQ(store.l2_used(), 4u);
  ASSERT_EQ(store.l3_used(), 4u);
  store.EnsureResident(ts_.thread(4));
  EXPECT_EQ(ts_.thread(4).tier(), StorageTier::kRegFile);
  EXPECT_EQ(ts_.thread(0).tier(), StorageTier::kL2);  // LRU victim took the freed slot
  EXPECT_EQ(store.l2_used(), 4u);
  EXPECT_EQ(store.l3_used(), 4u);
}

TEST_F(HwtTest, TierSlotAccountingStaysBoundedAcrossWakes) {
  ContextStore& store = ts_.store(0);
  // Wake every spilled thread in turn. Each wake frees at most one slot and
  // the victim takes it straight back, so the counters must never exceed
  // capacity and must end exactly full.
  for (Ptid p = 4; p < 16; p++) {
    store.EnsureResident(ts_.thread(p));
    EXPECT_LE(store.l2_used(), 4u);
    EXPECT_LE(store.l3_used(), 4u);
    EXPECT_EQ(store.rf_occupancy(), 4u);
  }
  EXPECT_EQ(store.l2_used(), 4u);
  EXPECT_EQ(store.l3_used(), 4u);
}

TEST_F(HwtTest, AllPinnedWakeKeepsSlotAccounting) {
  // Regression: when every RF thread is pinned the waker keeps its tier, so
  // the slot released up front must be re-acquired. The old code leaked it,
  // draining l2_used() one wake at a time until the counter underflowed.
  ContextStore& store = ts_.store(0);
  for (Ptid p = 0; p < 4; p++) {
    ts_.thread(p).set_pinned(true);
  }
  for (int i = 0; i < 3; i++) {
    store.EnsureResident(ts_.thread(4));
    EXPECT_EQ(ts_.thread(4).tier(), StorageTier::kL2);
    EXPECT_EQ(store.l2_used(), 4u);
  }
  EXPECT_EQ(store.rf_occupancy(), 4u);
  EXPECT_EQ(store.l3_used(), 4u);
}

TEST_F(HwtTest, DirtyTrackingShrinksTransfer) {
  // A thread that used few registers restores faster than the full-state
  // transfer when dirty tracking is on.
  HwThread& sparse = ts_.thread(4);  // L2 tier
  sparse.ResetUsedRegs();
  sparse.MarkRegUsed(1);
  const Tick with_tracking = ts_.store(0).RestoreLatency(sparse);

  HwtConfig cfg2 = MakeConfig();
  cfg2.dirty_register_tracking = false;
  Simulation sim2;
  MemorySystem mem2(sim2, MemConfig{}, 1);
  ThreadSystem ts2(sim2, mem2, cfg2, 1);
  const Tick without_tracking = ts2.store(0).RestoreLatency(ts2.thread(4));
  EXPECT_LT(with_tracking, without_tracking);
}

TEST(SchedQueueTest, RoundRobinRotates) {
  Simulation sim;
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread c(2, 0);
  for (HwThread* t : {&a, &b, &c}) {
    t->set_state(ThreadState::kRunnable);
  }
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  q.Add(&c);
  std::vector<HwThread*> picked;
  std::vector<Ptid> heads;
  for (int i = 0; i < 6; i++) {
    q.PickUpTo(100, 1, &picked);
    ASSERT_EQ(picked.size(), 1u);
    heads.push_back(picked[0]->ptid());
  }
  EXPECT_EQ(heads, (std::vector<Ptid>{0, 1, 2, 0, 1, 2}));
}

TEST(SchedQueueTest, WeightedShareFollowsPrio) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  a.set_state(ThreadState::kRunnable);
  b.set_state(ThreadState::kRunnable);
  a.arch().prio = 3;
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  int a_picks = 0;
  std::vector<HwThread*> picked;
  for (int i = 0; i < 400; i++) {
    q.PickUpTo(100, 1, &picked);
    ASSERT_EQ(picked.size(), 1u);
    a_picks += picked[0]->ptid() == 0 ? 1 : 0;
  }
  EXPECT_EQ(a_picks, 300);  // 3:1 share
}

TEST(SchedQueueTest, SmtWidthPicksDistinctThreads) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  a.set_state(ThreadState::kRunnable);
  b.set_state(ThreadState::kRunnable);
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  std::vector<HwThread*> picked;
  q.PickUpTo(0, 2, &picked);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_NE(picked[0]->ptid(), picked[1]->ptid());
}

TEST(SchedQueueTest, SkipsThreadsStillRestoring) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  a.set_state(ThreadState::kRunnable);
  b.set_state(ThreadState::kRunnable);
  a.set_ready_at(50);
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  std::vector<HwThread*> picked;
  q.PickUpTo(10, 2, &picked);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->ptid(), 1u);
  EXPECT_EQ(q.NextReadyTick(10), 50u);
  q.PickUpTo(50, 2, &picked);
  EXPECT_EQ(picked.size(), 2u);
}

TEST(SchedQueueTest, FrontInsertPreempts) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread critical(2, 0);
  for (HwThread* t : {&a, &b, &critical}) {
    t->set_state(ThreadState::kRunnable);
  }
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  std::vector<HwThread*> picked;
  q.PickUpTo(0, 1, &picked);  // cursor advances past a
  q.Add(&critical, /*front=*/true);
  q.PickUpTo(0, 1, &picked);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->ptid(), 2u);
}

TEST(SchedQueueTest, RemoveKeepsRotationConsistent) {
  HwThread a(0, 0);
  HwThread b(1, 0);
  HwThread c(2, 0);
  for (HwThread* t : {&a, &b, &c}) {
    t->set_state(ThreadState::kRunnable);
  }
  SchedQueue q;
  q.Add(&a);
  q.Add(&b);
  q.Add(&c);
  std::vector<HwThread*> picked;
  q.PickUpTo(0, 1, &picked);  // a
  q.Remove(1);
  q.PickUpTo(0, 1, &picked);
  EXPECT_EQ(picked[0]->ptid(), 2u);
  q.PickUpTo(0, 1, &picked);
  EXPECT_EQ(picked[0]->ptid(), 0u);
  EXPECT_EQ(q.Size(), 2u);
}

// Test-only copy of the scheduler scan that SchedQueue replaced: one pass
// that visits every rotation slot and reports the minimum ready_at over the
// runnable threads it did not pick, and a NextWorkTick that walks the whole
// rotation. Add/Remove are the same rotation edits SchedQueue makes.
class ReferenceSchedQueue {
 public:
  void Add(HwThread* thread, bool front) {
    for (const Slot& s : rotation_) {
      if (s.thread->ptid() == thread->ptid()) {
        return;
      }
    }
    const Slot slot{thread, FullCredits(*thread)};
    if (front && cursor_ <= rotation_.size()) {
      rotation_.insert(rotation_.begin() + static_cast<ptrdiff_t>(cursor_), slot);
    } else {
      rotation_.push_back(slot);
    }
  }

  void Remove(Ptid ptid) {
    for (size_t i = 0; i < rotation_.size(); i++) {
      if (rotation_[i].thread->ptid() == ptid) {
        rotation_.erase(rotation_.begin() + static_cast<ptrdiff_t>(i));
        if (cursor_ > i) {
          cursor_--;
        }
        if (cursor_ >= rotation_.size()) {
          cursor_ = 0;
        }
        return;
      }
    }
  }

  void PickUpTo(Tick now, uint32_t width, std::vector<HwThread*>* out, Tick* unpicked_min) {
    out->clear();
    Tick umin = std::numeric_limits<Tick>::max();
    const size_t n = rotation_.size();
    size_t idx = cursor_;
    bool found = false;
    for (size_t s = 0; s < n; s++) {
      HwThread* t = rotation_[idx].thread;
      const bool runnable = t->state() == ThreadState::kRunnable;
      if (runnable && t->ready_at() <= now && out->size() < width) {
        if (!found) {
          found = true;
          cursor_ = idx;
        }
        out->push_back(t);
      } else if (runnable) {
        umin = std::min(umin, t->ready_at());
      }
      if (++idx == n) {
        idx = 0;
      }
    }
    *unpicked_min = umin;
    if (!found) {
      return;
    }
    Slot& head = rotation_[cursor_];
    if (head.credits > 0) {
      head.credits--;
    }
    if (head.credits == 0) {
      head.credits = FullCredits(*head.thread);
      if (++cursor_ == n) {
        cursor_ = 0;
      }
    }
  }

  Tick NextWorkTick(Tick after) const {
    Tick best = std::numeric_limits<Tick>::max();
    for (const Slot& s : rotation_) {
      if (s.thread->state() == ThreadState::kRunnable) {
        best = std::min(best, std::max(s.thread->ready_at(), after));
      }
    }
    return best;
  }

  size_t Size() const { return rotation_.size(); }
  size_t cursor() const { return cursor_; }
  Ptid PtidAt(size_t i) const { return rotation_[i].thread->ptid(); }

 private:
  struct Slot {
    HwThread* thread;
    uint64_t credits;
  };
  static uint64_t FullCredits(const HwThread& t) { return std::max<uint64_t>(1, t.arch().prio); }

  std::vector<Slot> rotation_;
  size_t cursor_ = 0;
};

TEST(SchedQueueTest, RandomizedDifferentialAgainstReferenceScan) {
  // Drive SchedQueue and the reference with the same random wakes (Add, at
  // the back or the cursor), blocks (Remove of a random slot, the cursor slot
  // or the last slot), idle gaps, prio changes and picks of width 1-4. Picked
  // threads then get a new ready_at, as Core::Step and a demand restore
  // write it, and some block mid-step. Phases alternate between growing the
  // rotation toward 640 threads and shrinking it. After every op both must
  // agree on NextWorkTick(now) and NextWorkTick(now + 1); after every pick
  // they must pick the same threads, and when no thread blocked during the
  // steps, NextWorkTick(now + 1) must also equal the reconstruction the old
  // Core::Cycle made from the scan's unpicked minimum.
  constexpr uint32_t kThreads = 640;
  constexpr Tick kNever = std::numeric_limits<Tick>::max();
  std::vector<HwThread> threads;
  threads.reserve(kThreads);
  for (uint32_t i = 0; i < kThreads; i++) {
    threads.emplace_back(i, 0);
  }
  std::vector<bool> queued(kThreads, false);
  SchedQueue q;
  ReferenceSchedQueue ref;
  Rng rng(2027);
  Tick now = 0;
  std::vector<HwThread*> got;
  std::vector<HwThread*> want;
  size_t max_size = 0;

  auto block = [&](Ptid p) {
    threads[p].set_state(rng.NextBounded(2) == 0 ? ThreadState::kWaiting
                                                 : ThreadState::kDisabled);
    q.Remove(p);
    ref.Remove(p);
    queued[p] = false;
  };

  for (int op = 0; op < 24000; op++) {
    const bool grow = (op / 4000) % 2 == 0;
    const uint64_t r = rng.NextBounded(100);
    if (r < (grow ? 30u : 10u)) {
      // Wake (MakeRunnable): ready now, or after a restore latency. Mostly
      // the next unqueued thread from a random start; one in four is a
      // random thread, which may re-add a queued one (a no-op).
      auto p = static_cast<Ptid>(rng.NextBounded(kThreads));
      if (rng.NextBounded(4) != 0) {
        for (uint32_t i = 0; i < kThreads && queued[p]; i++) {
          p = (p + 1) % kThreads;
        }
      }
      HwThread& t = threads[p];
      if (!queued[p]) {
        t.set_state(ThreadState::kRunnable);
        t.set_ready_at(rng.NextBounded(3) == 0 ? now + 1 + rng.NextBounded(300) : now);
        t.arch().prio = 1 + rng.NextBounded(4);
      }
      const bool front = rng.NextBounded(4) == 0;
      q.Add(&t, front);
      ref.Add(&t, front);
      queued[t.ptid()] = true;
    } else if (r < (grow ? 33u : 40u)) {
      if (ref.Size() == 0) {
        continue;
      }
      const uint64_t which = rng.NextBounded(3);
      const size_t slot = which == 0   ? rng.NextBounded(ref.Size())
                          : which == 1 ? ref.cursor() % ref.Size()
                                       : ref.Size() - 1;
      block(ref.PtidAt(slot));
    } else if (r < 45) {
      now += 1 + rng.NextBounded(50);
    } else if (r < 48) {
      threads[rng.NextBounded(kThreads)].arch().prio = 1 + rng.NextBounded(4);
    } else {
      const auto width = static_cast<uint32_t>(1 + rng.NextBounded(4));
      Tick unpicked_min = 0;
      q.PickUpTo(now, width, &got);
      ref.PickUpTo(now, width, &want, &unpicked_min);
      ASSERT_EQ(got, want) << "op " << op << " now " << now << " width " << width;
      bool blocked = false;
      for (HwThread* t : got) {
        const uint64_t kind = rng.NextBounded(40);
        if (kind == 0) {
          block(t->ptid());
          blocked = true;
        } else if (kind == 1) {
          t->set_ready_at(now + 100 + rng.NextBounded(300));  // demand restore
        } else {
          t->set_ready_at(now + 1 + (kind < 30 ? 0 : rng.NextBounded(8)));
        }
      }
      if (!blocked) {
        Tick m = unpicked_min;
        for (HwThread* t : got) {
          m = std::min(m, t->ready_at());
        }
        const Tick reconstructed = m == kNever ? m : std::max(m, now + 1);
        ASSERT_EQ(q.NextWorkTick(now + 1), reconstructed) << "op " << op << " now " << now;
      }
      const Tick next = q.NextWorkTick(now + 1);
      now = next == kNever ? now + 1 : next;
    }
    ASSERT_EQ(q.Size(), ref.Size()) << "op " << op;
    max_size = std::max(max_size, ref.Size());
    for (const Tick after : {now, now + 1}) {
      ASSERT_EQ(q.NextWorkTick(after), ref.NextWorkTick(after))
          << "op " << op << " after " << after;
    }
  }
  EXPECT_GE(max_size, 600u);  // the rotation really reached the K = 640 regime
}

TEST_F(HwtTest, DemandRestoreWithoutPrefetch) {
  HwtConfig cfg = MakeConfig();
  cfg.prefetch_on_wake = false;
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  ThreadSystem ts(sim, mem, cfg, 1);
  const Ptid cold = 12;  // DRAM tier
  ts.InitThread(cold, 0x1000, false);
  ts.MakeRunnable(cold);
  EXPECT_TRUE(ts.NeedsRestore(cold));
  EXPECT_EQ(ts.thread(cold).ready_at(), sim.now());  // looks ready until picked
  ts.BeginDemandRestore(cold);
  EXPECT_FALSE(ts.NeedsRestore(cold));
  EXPECT_GT(ts.thread(cold).ready_at(), sim.now());
}

TEST_F(HwtTest, WakeHookFires) {
  int wakes = 0;
  ts_.SetWakeHook(0, [&] { wakes++; });
  ts_.InitThread(3, 0x1000, false);
  ts_.MakeRunnable(3);
  EXPECT_EQ(wakes, 1);
}

TEST_F(HwtTest, MonitorOverflowRaisesException) {
  HwtConfig cfg = MakeConfig();
  Simulation sim;
  MemConfig mc;
  mc.monitor.max_watches_per_thread = 1;
  MemorySystem mem(sim, mc, 1);
  ThreadSystem ts(sim, mem, cfg, 1);
  ts.InitThread(2, 0x1000, false, /*edp=*/0x30000);
  ts.thread(2).set_state(ThreadState::kRunnable);
  EXPECT_TRUE(ts.Monitor(2, 0x8000).ok);
  EXPECT_FALSE(ts.Monitor(2, 0x9000).ok);
  EXPECT_EQ(ts.thread(2).state(), ThreadState::kDisabled);
}

}  // namespace
}  // namespace casc
