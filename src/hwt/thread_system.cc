#include "src/hwt/thread_system.h"

#include <cassert>
#include <limits>

#include "src/sim/log.h"

namespace casc {

const char* ThreadStateName(ThreadState s) {
  switch (s) {
    case ThreadState::kDisabled:
      return "disabled";
    case ThreadState::kRunnable:
      return "runnable";
    case ThreadState::kWaiting:
      return "waiting";
  }
  return "?";
}

const char* StorageTierName(StorageTier t) {
  switch (t) {
    case StorageTier::kRegFile:
      return "regfile";
    case StorageTier::kL2:
      return "l2";
    case StorageTier::kL3:
      return "l3";
    case StorageTier::kDram:
      return "dram";
  }
  return "?";
}

ThreadSystem::ThreadSystem(Simulation& sim, MemorySystem& mem, const HwtConfig& config,
                           uint32_t num_cores)
    : sim_(sim),
      mem_(mem),
      config_(config),
      num_cores_(num_cores),
      queues_(num_cores),
      wake_hooks_(num_cores),
      router_(sim.router()),
      stat_starts_(sim.stats().Intern("hwt.starts")),
      stat_stops_(sim.stats().Intern("hwt.stops")),
      stat_exceptions_(sim.stats().Intern("hwt.exceptions")),
      stat_mwait_blocks_(sim.stats().Intern("hwt.mwait_blocks")),
      stat_mwait_immediate_(sim.stats().Intern("hwt.mwait_immediate")),
      stat_vtid_hits_(sim.stats().Intern("hwt.vtid_cache_hits")),
      stat_vtid_misses_(sim.stats().Intern("hwt.vtid_cache_misses")),
      stat_escalations_(sim.stats().Intern("hwt.exception_escalations")),
      stat_restore_poisons_(sim.stats().Intern("hwt.restore_poisons")) {
  for (uint32_t i = 0; i < kNumExceptionTypes; i++) {
    stat_exception_by_type_[i] = sim.stats().Intern(
        std::string("hwt.exception.") + ExceptionTypeName(static_cast<ExceptionType>(i)));
  }
  const uint32_t total = num_cores * config_.threads_per_core;
  threads_.reserve(total);
  needs_restore_.assign(total, 0);
  for (uint32_t c = 0; c < num_cores; c++) {
    stores_.push_back(std::make_unique<ContextStore>(sim, mem, config_, c));
  }
  for (uint32_t p = 0; p < total; p++) {
    const CoreId core = p / config_.threads_per_core;
    threads_.push_back(std::make_unique<HwThread>(p, core));
    stores_[core]->AdmitThread(*threads_.back());
    vtid_caches_.emplace_back(config_.vtid_cache_entries);
  }
  mem_.SetMonitorWakeHandler([this](Ptid ptid, Addr) { OnMonitorWake(ptid); });
}

void ThreadSystem::InitThread(Ptid ptid, Addr pc, bool supervisor, Addr edp, Addr tdtr,
                              uint64_t tdt_size) {
  HwThread& t = thread(ptid);
  t.arch().pc = pc;
  t.arch().mode = supervisor ? 1 : 0;
  t.arch().edp = edp;
  t.arch().tdtr = tdtr;
  t.arch().tdt_size = tdt_size;
}

void ThreadSystem::NotifyWake(CoreId core) {
  if (!halted() && wake_hooks_[core]) {
    wake_hooks_[core]();
  }
}

Tick ThreadSystem::PostTick(Tick delay) const {
  const Tick now = sim_.now();
  return delay > std::numeric_limits<Tick>::max() - now ? std::numeric_limits<Tick>::max()
                                                        : now + delay;
}

void ThreadSystem::Halt(const std::string& reason) {
  HaltInfo info = halt_info_;
  if (info.reason == HaltReason::kNone) {
    info.reason = HaltReason::kHostRequested;
  }
  HaltWith(info, reason);
}

void ThreadSystem::HaltWith(const HaltInfo& info, const std::string& reason) {
  if (halted()) {
    return;
  }
  if (ShardedExecuting()) {
    // Inside a window: stage a proposal in this shard's slot (which
    // stops this shard via halted()) and let MergeHaltProposals pick the
    // globally-earliest halt at the barrier.
    ShardLocal& slot = shard_local_[shard::current];
    slot.halt_proposed = true;
    slot.halt_tick = sim_.now();
    slot.halt_info = info;
    slot.halt_reason = reason;
    return;
  }
  halted_ = true;
  halt_info_ = info;
  halt_reason_ = reason;
  CASC_LOG(Debug) << "machine halt: " << reason;
}

void ThreadSystem::MergeHaltProposals() {
  const uint32_t n = sim_.num_shards() != 0 ? sim_.num_shards() : 1;
  int best = -1;
  for (uint32_t s = 0; s < n; s++) {
    ShardLocal& slot = shard_local_[s];
    if (!slot.halt_proposed) {
      continue;
    }
    if (best < 0 || slot.halt_tick < shard_local_[best].halt_tick) {
      best = static_cast<int>(s);
    }
  }
  if (best >= 0 && !halted_) {
    halted_ = true;
    halt_info_ = shard_local_[best].halt_info;
    halt_reason_ = shard_local_[best].halt_reason;
    CASC_LOG(Debug) << "machine halt: " << halt_reason_;
  }
  for (uint32_t s = 0; s < n; s++) {
    shard_local_[s].halt_proposed = false;
  }
}

Translation ThreadSystem::Translate(Ptid issuer, Vtid vtid, Tick* latency) {
  *latency = 0;
  HwThread& t = thread(issuer);
  Translation result;
  if (config_.security_model == SecurityModel::kSecretKey) {
    // §3.2 alternative: vtids name ptids directly; authority comes from
    // presenting the target's secret key (or supervisor mode).
    if (vtid >= num_threads()) {
      return result;
    }
    result.valid = true;
    result.ptid = vtid;
    const HwThread& target = thread(vtid);
    const bool authorized = t.arch().is_supervisor() ||
                            (target.arch().self_key != 0 &&
                             t.arch().auth_key == target.arch().self_key);
    result.perms = authorized ? kPermAll : 0;
    *latency = 1;  // key compare
    return result;
  }
  if (t.arch().tdtr == 0) {
    // No TDT installed: supervisor threads address ptids directly (identity
    // map with full permissions); user threads have no valid translations.
    if (t.arch().is_supervisor() && vtid < num_threads()) {
      result.valid = true;
      result.ptid = vtid;
      result.perms = kPermAll;
    }
    return result;
  }
  if (vtid >= t.arch().tdt_size) {
    return result;
  }
  VtidCache& cache = vtid_caches_[issuer];
  if (const Translation* hit = cache.Lookup(vtid)) {
    stat_vtid_hits_++;
    *latency = config_.vtid_cache_hit_cycles;
    result = *hit;
    result.cache_hit = true;
    return result;
  }
  stat_vtid_misses_++;
  // Hardware TDT walk: one memory access at the issuing core.
  const Addr entry_addr = t.arch().tdtr + static_cast<Addr>(vtid) * TdtEntry::kBytes;
  *latency = mem_.AccessLatency(t.core(), entry_addr, /*is_write=*/false, /*is_fetch=*/false);
  const TdtEntry entry = TdtEntry::ReadFrom(mem_, t.arch().tdtr, vtid);
  if (!entry.valid() || entry.ptid >= num_threads()) {
    return result;  // invalid entries are not cached
  }
  result.valid = true;
  result.ptid = entry.ptid;
  result.perms = entry.perms;
  cache.Insert(vtid, result);
  return result;
}

bool ThreadSystem::CheckTranslated(Ptid issuer, Vtid vtid, const Translation& t,
                                   uint8_t required_perms, Tick latency, OpResult* result) {
  if (!t.valid) {
    result->ok = false;
    result->latency = latency;
    RaiseException(issuer, ExceptionType::kInvalidVtid, 0, vtid);
    return false;
  }
  // §3.2: permission checks guard user-mode threads; supervisor-mode threads
  // are trusted by the hardware.
  if (!thread(issuer).arch().is_supervisor() && !PermAllows(t.perms, required_perms)) {
    result->ok = false;
    result->latency = latency;
    RaiseException(issuer, ExceptionType::kPermissionDenied, 0, vtid);
    return false;
  }
  return true;
}

OpResult ThreadSystem::Start(Ptid issuer, Vtid vtid) {
  OpResult result;
  Tick tlat = 0;
  const Translation t = Translate(issuer, vtid, &tlat);
  if (!CheckTranslated(issuer, vtid, t, kPermStart, tlat, &result)) {
    return result;
  }
  result.latency = tlat + config_.start_issue_cycles;
  stat_starts_++;
  HwThread& target = thread(t.ptid);
  // Cross-shard the target's state belongs to another shard mid-window, so
  // the already-running no-op check moves to the MakeRunnable replayed there.
  if (!CrossShardTarget(target.core()) && target.state() == ThreadState::kRunnable) {
    return result;  // already running: no-op
  }
  const bool remote = target.core() != thread(issuer).core();
  MakeRunnable(t.ptid, remote ? config_.remote_start_cycles : 0);
  if (remote && remote_start_observer_) {
    remote_start_observer_(issuer, t.ptid);
  }
  if (chb_ != nullptr) {
    chb_->OnThreadStart(issuer, t.ptid);
  }
  return result;
}

OpResult ThreadSystem::Stop(Ptid issuer, Vtid vtid) {
  OpResult result;
  Tick tlat = 0;
  const Translation t = Translate(issuer, vtid, &tlat);
  if (!CheckTranslated(issuer, vtid, t, kPermStop, tlat, &result)) {
    return result;
  }
  result.latency = tlat + config_.stop_issue_cycles;
  stat_stops_++;
  if (CrossShardTarget(CoreOf(t.ptid))) {
    router_->Post(CoreOf(t.ptid), PostTick(router_->hop()),
                  [this, p = t.ptid] { Disable(p); });
  } else {
    Disable(t.ptid);
  }
  if (chb_ != nullptr) {
    chb_->OnThreadStop(issuer, t.ptid);
  }
  return result;
}

uint64_t* ThreadSystem::RemoteRegSlot(HwThread& t, uint32_t remote_reg) {
  if (remote_reg < kNumGprs) {
    return &t.arch().gpr[remote_reg];
  }
  switch (static_cast<RemoteReg>(remote_reg)) {
    case RemoteReg::kPc:
      return &t.arch().pc;
    case RemoteReg::kMode:
      return &t.arch().mode;
    case RemoteReg::kEdp:
      return &t.arch().edp;
    case RemoteReg::kTdtr:
      return &t.arch().tdtr;
    case RemoteReg::kTdtSize:
      return &t.arch().tdt_size;
    case RemoteReg::kPrio:
      return &t.arch().prio;
    default:
      return nullptr;
  }
}

OpResult ThreadSystem::Rpull(Ptid issuer, Vtid vtid, uint32_t remote_reg) {
  OpResult result;
  Tick tlat = 0;
  const Translation t = Translate(issuer, vtid, &tlat);
  if (!CheckTranslated(issuer, vtid, t, kPermModifySome, tlat, &result)) {
    return result;
  }
  result.latency = tlat + 3;
  HwThread& target = thread(t.ptid);
  // rpull/rpush touch the target's registers directly even cross-shard: §3.1
  // requires the target to be *disabled*, and a ptid disabled at the last
  // barrier stays disabled until its own shard restarts it, so the registers
  // are stable for the whole window (the "stably disabled" contract; racing
  // a same-window restart is a program-level race casc-race reports).
  if (target.state() != ThreadState::kDisabled) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kTargetNotDisabled, 0, vtid);
    return result;
  }
  uint64_t* slot = RemoteRegSlot(target, remote_reg);
  if (slot == nullptr) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kIllegalInstruction, 0, remote_reg);
    return result;
  }
  if (migration_fault_hook_ && migration_fault_hook_(issuer, t.ptid, /*is_push=*/false)) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kMigrationAbort, 0, t.ptid);
    return result;
  }
  result.value = *slot;
  if (chb_ != nullptr) {
    chb_->OnRpull(issuer, t.ptid);
  }
  return result;
}

OpResult ThreadSystem::Rpush(Ptid issuer, Vtid vtid, uint32_t remote_reg, uint64_t value) {
  OpResult result;
  Tick tlat = 0;
  const Translation t = Translate(issuer, vtid, &tlat);
  // GPRs need modify-some; PC/EDP/PRIO need modify-most.
  const bool is_gpr = remote_reg < kNumGprs;
  const uint8_t needed =
      is_gpr ? kPermModifySome : static_cast<uint8_t>(kPermModifySome | kPermModifyMost);
  if (!CheckTranslated(issuer, vtid, t, needed, tlat, &result)) {
    return result;
  }
  result.latency = tlat + 3;
  HwThread& issuer_t = thread(issuer);
  HwThread& target = thread(t.ptid);
  if (target.state() != ThreadState::kDisabled) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kTargetNotDisabled, 0, vtid);
    return result;
  }
  // MODE/TDTR/TDTSIZE are the virtualization roots: supervisor-only (§3.2:
  // "A ptid must be in supervisor mode to set this register in its own
  // context or any other vtid").
  const RemoteReg rr = static_cast<RemoteReg>(remote_reg);
  if ((rr == RemoteReg::kMode || rr == RemoteReg::kTdtr || rr == RemoteReg::kTdtSize) &&
      !issuer_t.arch().is_supervisor()) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kPrivilegedInstruction, 0, remote_reg);
    return result;
  }
  if (migration_fault_hook_ && migration_fault_hook_(issuer, t.ptid, /*is_push=*/true)) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kMigrationAbort, 0, t.ptid);
    return result;
  }
  if (is_gpr) {
    target.WriteGpr(remote_reg, value);
    if (chb_ != nullptr) {
      chb_->OnRpush(issuer, t.ptid);
    }
    return result;
  }
  uint64_t* slot = RemoteRegSlot(target, remote_reg);
  if (slot == nullptr) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kIllegalInstruction, 0, remote_reg);
    return result;
  }
  *slot = value;
  if (chb_ != nullptr) {
    chb_->OnRpush(issuer, t.ptid);
  }
  return result;
}

OpResult ThreadSystem::Invtid(Ptid issuer, Vtid vtid, Vtid remote_vtid) {
  OpResult result;
  Tick tlat = 0;
  const Translation t = Translate(issuer, vtid, &tlat);
  const uint8_t needed = static_cast<uint8_t>(kPermModifySome | kPermModifyMost);
  if (!CheckTranslated(issuer, vtid, t, needed, tlat, &result)) {
    return result;
  }
  result.latency = tlat + 2;
  if (CrossShardTarget(CoreOf(t.ptid))) {
    // The target's translation cache lives on its core's shard; the
    // invalidation rides the interconnect like any other cross-core signal.
    router_->Post(CoreOf(t.ptid), PostTick(router_->hop()),
                  [this, p = t.ptid, remote_vtid] {
                    VtidCache& cache = vtid_caches_[p];
                    if (remote_vtid == kInvalidVtid) {
                      cache.InvalidateAll();
                    } else {
                      cache.Invalidate(remote_vtid);
                    }
                  });
    return result;
  }
  VtidCache& cache = vtid_caches_[t.ptid];
  if (remote_vtid == kInvalidVtid) {
    cache.InvalidateAll();
  } else {
    cache.Invalidate(remote_vtid);
  }
  return result;
}

OpResult ThreadSystem::Monitor(Ptid issuer, Addr addr) {
  OpResult result;
  result.latency = 2;
  if (!mem_.monitors().AddWatch(issuer, addr)) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kMonitorOverflow, addr, 0);
    return result;
  }
  if (chb_ != nullptr) {
    chb_->OnMonitorArm(issuer, LineBase(addr));
  }
  return result;
}

OpResult ThreadSystem::Unmonitor(Ptid issuer, Addr addr) {
  OpResult result;
  result.latency = 2;
  mem_.monitors().RemoveWatch(issuer, addr);
  if (chb_ != nullptr) {
    chb_->OnMonitorDisarm(issuer, LineBase(addr));
  }
  return result;
}

ThreadSystem::MwaitResult ThreadSystem::Mwait(Ptid issuer) {
  MwaitResult result;
  result.latency = 2;
  if (mem_.monitors().ConsumePending(issuer)) {
    stat_mwait_immediate_++;
    result.blocked = false;  // a watched write already happened: fall through
    if (chb_ != nullptr) {
      chb_->OnMwaitReturn(issuer);
    }
    return result;
  }
  stat_mwait_blocks_++;
  HwThread& t = thread(issuer);
  if (tracer_ != nullptr) {
    tracer_->Record(sim_.now(), issuer, t.state(), ThreadState::kWaiting, TraceCause::kMwait);
  }
  t.set_state(ThreadState::kWaiting);
  queues_[t.core()].Remove(issuer);
  mem_.monitors().SetWaiting(issuer, true);
  result.blocked = true;
  return result;
}

OpResult ThreadSystem::ReadCsr(Ptid issuer, Csr csr) {
  OpResult result;
  result.latency = 1;
  HwThread& t = thread(issuer);
  switch (csr) {
    case Csr::kMode:
      result.value = t.arch().mode;
      break;
    case Csr::kEdp:
      result.value = t.arch().edp;
      break;
    case Csr::kTdtr:
      result.value = t.arch().tdtr;
      break;
    case Csr::kTdtSize:
      result.value = t.arch().tdt_size;
      break;
    case Csr::kPrio:
      result.value = t.arch().prio;
      break;
    case Csr::kPtid:
      result.value = issuer;
      break;
    case Csr::kCoreId:
      result.value = t.core();
      break;
    case Csr::kCycle:
      result.value = sim_.now();
      break;
    case Csr::kSelfKey:
    case Csr::kAuthKey:
      result.value = 0;  // keys are write-only (cannot be exfiltrated)
      break;
    default:
      result.ok = false;
      RaiseException(issuer, ExceptionType::kIllegalInstruction, 0, static_cast<uint64_t>(csr));
      break;
  }
  return result;
}

OpResult ThreadSystem::WriteCsr(Ptid issuer, Csr csr, uint64_t value) {
  OpResult result;
  result.latency = 1;
  HwThread& t = thread(issuer);
  // The secret-key registers are deliberately user-writable: "each thread
  // would set its own key and share it with other threads using existing
  // software mechanisms" (§3.2).
  if (csr == Csr::kSelfKey) {
    t.arch().self_key = value;
    return result;
  }
  if (csr == Csr::kAuthKey) {
    t.arch().auth_key = value;
    return result;
  }
  // All other writable CSRs are privileged: a user-mode write disables the
  // thread and reports a descriptor the supervisor can use to emulate (§3.2).
  if (!t.arch().is_supervisor()) {
    result.ok = false;
    RaiseException(issuer, ExceptionType::kPrivilegedInstruction, 0, static_cast<uint64_t>(csr));
    return result;
  }
  switch (csr) {
    case Csr::kMode:
      t.arch().mode = value;
      break;
    case Csr::kEdp:
      t.arch().edp = value;
      break;
    case Csr::kTdtr:
      t.arch().tdtr = value;
      break;
    case Csr::kTdtSize:
      t.arch().tdt_size = value;
      break;
    case Csr::kPrio:
      t.arch().prio = value;
      break;
    default:
      result.ok = false;
      RaiseException(issuer, ExceptionType::kIllegalInstruction, 0, static_cast<uint64_t>(csr));
      break;
  }
  return result;
}

void ThreadSystem::RaiseExceptionAt(Ptid ptid, ExceptionType type, Addr addr, uint64_t errcode,
                                    uint32_t depth) {
  if (CrossShardTarget(CoreOf(ptid))) {
    // The raise disables the target and snapshots its registers into the
    // descriptor — all state owned by the target's shard. Replay the whole
    // raise there after the interconnect hop.
    router_->Post(CoreOf(ptid), PostTick(router_->hop()),
                  [this, ptid, type, addr, errcode, depth] {
                    RaiseExceptionAt(ptid, type, addr, errcode, depth);
                  });
    return;
  }
  stat_exceptions_++;
  const uint32_t type_idx = static_cast<uint32_t>(type);
  stat_exception_by_type_[type_idx < kNumExceptionTypes ? type_idx : 0]++;
  for (const ExceptionObserver& obs : exception_observers_) {
    obs(ptid, type, addr, depth);
  }
  HwThread& t = thread(ptid);
  const Addr edp = t.arch().edp;
  // The faulting thread stops executing first (its handler may rpull state).
  Disable(ptid, TraceCause::kException);
  if (edp == 0) {
    // §3.2: "Triggering an exception in a thread without a handler ...
    // indicates a serious kernel bug akin to a triple-fault".
    HaltInfo info;
    info.reason = HaltReason::kUnhandledException;
    info.exception = type;
    info.ptid = ptid;
    info.chain_depth = depth;
    HaltWith(info, std::string("unhandled ") + ExceptionTypeName(type) + " in ptid " +
                       std::to_string(ptid) + " with no exception descriptor pointer");
    return;
  }
  ExceptionDescriptor d;
  d.type = static_cast<uint32_t>(type);
  d.ptid = ptid;
  d.pc = t.arch().pc;
  d.addr = addr;
  d.errcode = errcode;
  d.tick = sim_.now() + config_.exception_write_cycles;
  // Sequence numbers must be unique and deterministic. Sharded, each shard
  // stamps its own counter into a disjoint residue class mod kMaxShards;
  // legacy keeps the historical dense numbering.
  d.seq = router_ != nullptr
              ? (++shard_local_[shard::current].eseq) * shard::kMaxShards + shard::current
              : ++exception_seq_;
  // The descriptor write is what wakes the handler thread monitoring the EDP
  // line; schedule it after the hardware formatting delay.
  sim_.queue().ScheduleFnAfter(config_.exception_write_cycles, [this, d, edp, depth] {
    DeliverOrEscalate(d, edp, depth);
  });
}

void ThreadSystem::DeliverOrEscalate(const ExceptionDescriptor& d, Addr edp, uint32_t depth) {
  if (halted()) {
    return;
  }
  if (mem_.DmaWriteAllowed(edp, ExceptionDescriptor::kBytes)) {
    d.WriteTo(mem_, edp);
    for (const DeliveryObserver& obs : delivery_observers_) {
      obs(d, edp, depth);
    }
    return;
  }
  // The descriptor write itself faulted: the EDP points at a page the fabric
  // will not write. Escalate up the handler chain — whoever monitors this
  // EDP line is the handler that was going to service the fault, so it
  // becomes the next faulting thread: it takes a page-fault descriptor
  // naming the undeliverable EDP, with the original faulter in errcode.
  // Termination: every escalation step disables one more thread, and
  // Disable() tears down that thread's watches, so even a cyclic handler
  // graph runs out of watchers after at most num_threads() steps.
  stat_escalations_++;
  Ptid handler = 0;
  // The escalation walk must see every watcher whichever core armed it, so
  // it scans all shards' filters; a cross-shard handler takes the fault via
  // the routed RaiseExceptionAt.
  if (mem_.FirstWatcherOfAll(edp, &handler)) {
    RaiseExceptionAt(handler, ExceptionType::kPageFault, edp, d.ptid, depth + 1);
    return;
  }
  HaltInfo info;
  info.reason = HaltReason::kHandlerChainExhausted;
  info.exception = static_cast<ExceptionType>(d.type);
  info.ptid = d.ptid;
  info.chain_depth = depth + 1;
  HaltWith(info, std::string("exception descriptor for ptid ") + std::to_string(d.ptid) +
                     " undeliverable (edp " + std::to_string(edp) +
                     "): handler chain exhausted");
}

void ThreadSystem::MakeRunnable(Ptid ptid, Tick extra_delay, TraceCause cause) {
  HwThread& t = thread(ptid);
  if (CrossShardTarget(t.core())) {
    // Deliver the wake to the target's shard as a timestamped message. The
    // cross-core delay (at least one interconnect hop — exactly
    // remote_start_cycles in the default config) is absorbed into the
    // message timestamp, so the replayed wake runs MakeRunnable(ptid, 0) and
    // ready_at lands on the same tick the legacy path computes.
    const Tick hop = router_->hop();
    const Tick delay = extra_delay > hop ? extra_delay : hop;
    router_->Post(t.core(), PostTick(delay),
                  [this, ptid, cause] { MakeRunnable(ptid, 0, cause); });
    return;
  }
  if (t.state() == ThreadState::kRunnable) {
    return;
  }
  if (t.state() == ThreadState::kWaiting) {
    mem_.monitors().SetWaiting(ptid, false);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(sim_.now(), ptid, t.state(), ThreadState::kRunnable, cause);
  }
  t.set_state(ThreadState::kRunnable);
  Tick restore = 0;
  if (config_.prefetch_on_wake) {
    // Begin moving the context toward the pipeline immediately (§4
    // "prefetching of the state of recently woken up threads").
    restore = stores_[t.core()]->EnsureResident(t);
    needs_restore_[ptid] = 0;
    MaybePoisonRestore(ptid, restore);
  } else {
    needs_restore_[ptid] = 1;
  }
  t.set_ready_at(sim_.now() + restore + extra_delay);
  const bool preempt =
      config_.preempt_priority != 0 && t.arch().prio >= config_.preempt_priority;
  queues_[t.core()].Add(&t, preempt);
  if (!wake_observers_.empty()) {
    for (const WakeObserver& obs : wake_observers_) {
      obs(ptid, cause);
    }
  }
  NotifyWake(t.core());
}

void ThreadSystem::BeginDemandRestore(Ptid ptid) {
  HwThread& t = thread(ptid);
  if (!needs_restore_[ptid]) {
    return;
  }
  needs_restore_[ptid] = 0;
  const Tick restore = stores_[t.core()]->EnsureResident(t);
  t.set_ready_at(sim_.now() + restore);
  MaybePoisonRestore(ptid, restore);
}

void ThreadSystem::MaybePoisonRestore(Ptid ptid, Tick restore) {
  // Poison only applies to restores that actually moved state through the
  // hierarchy — an RF-resident wake (restore == 0) transfers nothing that
  // could be corrupted.
  if (restore == 0 || !restore_fault_hook_ || !restore_fault_hook_(ptid)) {
    return;
  }
  stat_restore_poisons_++;
  sim_.queue().ScheduleFnAfter(restore, [this, ptid, restore] {
    if (halted() || thread(ptid).state() == ThreadState::kDisabled) {
      return;
    }
    RaiseException(ptid, ExceptionType::kContextPoison, 0, restore);
  });
}

void ThreadSystem::Disable(Ptid ptid, TraceCause cause) {
  HwThread& t = thread(ptid);
  if (tracer_ != nullptr && t.state() != ThreadState::kDisabled) {
    tracer_->Record(sim_.now(), ptid, t.state(), ThreadState::kDisabled, cause);
  }
  if (t.state() == ThreadState::kWaiting) {
    mem_.monitors().SetWaiting(ptid, false);
  }
  // A disabled thread's monitor set is torn down: its registers are about to
  // be repurposed by whoever restarts it.
  mem_.monitors().ClearWatches(ptid);
  t.set_state(ThreadState::kDisabled);
  queues_[t.core()].Remove(ptid);
  needs_restore_[ptid] = 0;
  if (chb_ != nullptr) {
    chb_->OnThreadDisabled(ptid);
  }
}

void ThreadSystem::HostStop(Ptid ptid, TraceCause cause) {
  if (CrossShardTarget(CoreOf(ptid))) {
    router_->Post(CoreOf(ptid), PostTick(router_->hop()),
                  [this, ptid, cause] { Disable(ptid, cause); });
    return;
  }
  Disable(ptid, cause);
}

void ThreadSystem::OnMonitorWake(Ptid ptid) {
  HwThread& t = thread(ptid);
  if (t.state() != ThreadState::kWaiting) {
    return;
  }
  MakeRunnable(ptid, 0, TraceCause::kMonitorWake);
  // The wake is the acquire point of the blocked mwait: the triggering store
  // already released into the line's clock (cores report stores before the
  // memory write that fires this wake).
  if (chb_ != nullptr) {
    chb_->OnMwaitReturn(ptid);
  }
}

}  // namespace casc
