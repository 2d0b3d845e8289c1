#include "src/cpu/core.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace casc {

Core::Core(Simulation& sim, MemorySystem& mem, ThreadSystem& ts, CoreId id, CoreTimings timings)
    : sim_(sim),
      mem_(mem),
      ts_(ts),
      id_(id),
      timings_(timings),
      l1i_hit_latency_(mem.config().l1i.hit_latency),
      eq_(&sim.QueueFor(sim.num_shards() != 0 ? id : 0)),
      tick_event_(this),
      native_base_(ts.PtidOf(id, 0)),
      stat_instructions_(sim.stats().Intern("cpu.core" + std::to_string(id) + ".instructions")),
      stat_active_cycles_(sim.stats().Intern("cpu.core" + std::to_string(id) + ".active_cycles")),
      stat_idle_wakeups_(sim.stats().Intern("cpu.core" + std::to_string(id) + ".idle_wakeups")) {
  picked_.resize(ts.config().smt_width);
  mem_.AddCodeWriteListener(id_, [this](Addr line) { InvalidatePredecodeLine(line); });
}

void Core::InvalidatePredecodeAll() {
  for (PredecodedLine& line : predecode_) {
    line.base = kNoCodeLine;
  }
}

void Core::FillPredecodeLine(PredecodedLine& line, Addr base) {
  constexpr size_t kSlots = kLineSize / kInstBytes;
  for (size_t i = 0; i < kSlots; i++) {
    DecodedSlot& s = line.slots[i];
    s.inst = Decode(mem_.phys().Read32(base + i * kInstBytes));
    s.handler = HandlerOf(s.inst.op);
  }
  line.base = base;
  line.fetch_ref = Cache::LineRef{};  // memo belongs to the old contents
}

void Core::BindNative(Ptid ptid, NativeProgram program) {
  // Checked in every build: a foreign ptid would index past this core's table.
  if (ts_.CoreOf(ptid) != id_) {
    std::fprintf(stderr, "BindNative: ptid %u is not on core %u\n", ptid, id_);
    std::abort();
  }
  if (native_.empty()) {
    const uint32_t n = ts_.config().threads_per_core;
    native_.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
      native_.emplace_back(native_base_ + i);
    }
  }
  NativeState& ns = native_[ptid - native_base_];
  ns.Reset();
  ns.program = std::move(program);
  has_native_ = true;
}

void Core::Kick() {
  if (ts_.halted()) {
    return;
  }
  SchedQueue& q = ts_.queue(id_);
  if (q.Empty()) {
    return;
  }
  const Tick next = q.NextWorkTick(eq_->now());
  if (next == std::numeric_limits<Tick>::max()) {
    return;
  }
  if (!tick_event_.scheduled() || tick_event_.when() > next) {
    stat_idle_wakeups_++;
    eq_->Schedule(&tick_event_, std::max(next, eq_->now()));
  }
}

void Core::Cycle() {
  if (ts_.halted()) {
    return;
  }
  SchedQueue& q = ts_.queue(id_);
  const uint32_t width = ts_.config().smt_width;
  // Counters batch into locals and flush once per Cycle return: the sharded
  // CounterHandle costs a TLS load plus two dependent loads per increment,
  // and nothing reads these counters until after the run completes.
  uint64_t insts = 0;
  uint64_t active_cycles = 0;
  // `now` is carried across AdvanceIfIdle instead of re-read: nothing inside
  // the loop body advances the clock except that call, which sets it to
  // exactly `next`.
  Tick now = eq_->now();
  for (;;) {
    const uint64_t gen = q.generation();
    Tick unpicked_min;
    const uint32_t npicked = q.PickUpTo(now, width, picked_.data(), &unpicked_min);
    bool active = false;
    for (uint32_t i = 0; i < npicked; i++) {
      HwThread* t = picked_[i];
      if (ts_.NeedsRestore(t->ptid())) {
        // Prefetch-on-wake disabled: the restore begins only when the
        // scheduler first reaches the thread (demand restore).
        ts_.BeginDemandRestore(t->ptid());
        continue;
      }
      Step(*t);
      insts++;
      active = true;
      if (ts_.halted()) {
        stat_instructions_ += insts;
        stat_active_cycles_ += active_cycles;
        return;
      }
    }
    if (active) {
      active_cycles++;
    }
    // Sleep until the next tick at which some thread can issue. When this
    // core is the only live actor, advance the clock in place and keep
    // stepping — same timing, no event dispatch round trip per tick.
    //
    // NextWorkTick(after) == max(after, min ready_at over runnable threads)
    // (Tick max if none), so when no Add/Remove ran during the steps the
    // value is reconstructed from the pick scan's unpicked minimum plus the
    // picked threads' just-written ready_at — no second rotation walk. Any
    // wake, block, or stop bumps the queue generation and falls back to the
    // full scan, so the computed tick is identical by construction.
    Tick next;
    if (q.generation() == gen) {
      Tick m = unpicked_min;
      for (uint32_t i = 0; i < npicked; i++) {
        HwThread* t = picked_[i];
        if (t->state() == ThreadState::kRunnable) {
          m = std::min(m, t->ready_at());
        }
      }
      next = m == std::numeric_limits<Tick>::max() ? m : std::max(m, now + 1);
    } else {
      next = q.NextWorkTick(now + 1);
    }
    if (next == std::numeric_limits<Tick>::max()) {
      break;
    }
    if (!eq_->AdvanceIfIdle(next)) {
      eq_->Schedule(&tick_event_, next);
      break;
    }
    now = next;
  }
  stat_instructions_ += insts;
  stat_active_cycles_ += active_cycles;
}

Tick Core::Step(HwThread& t) {
  Tick latency = 0;
  if (has_native_) {
    NativeState& ns = native_[t.ptid() - native_base_];
    latency = ns.program ? StepNative(t, ns) : StepInterpreted(t);
  } else {
    latency = StepInterpreted(t);
  }
  if (t.state() == ThreadState::kRunnable) {
    t.set_ready_at(eq_->now() + std::max<Tick>(1, latency));
    ts_.store(id_).Touch(t);
  }
  return latency;
}

Tick Core::StepInterpreted(HwThread& t) {
  const Addr pc = t.arch().pc;
  if (predecode_enabled_) {
    PredecodedLine& line = predecode_[(pc >> 6) & (kPredecodeLines - 1)];
    const Addr base = LineBase(pc);
    if (line.base == base) {
      stat_predecode_hits_++;
    } else {
      FillPredecodeLine(line, base);
      stat_predecode_misses_++;
    }
    // The timed fetch still runs through the simulated hierarchy (and counts
    // in mem.fetches); only the functional word read + Decode are skipped.
    const Tick fetch = mem_.FetchPredecoded(id_, pc, &line.fetch_ref);
    const Tick fetch_penalty = fetch > l1i_hit_latency_ ? fetch - l1i_hit_latency_ : 0;
    const DecodedSlot& slot = line.slots[(pc & (kLineSize - 1)) / kInstBytes];
    return fetch_penalty + DispatchSlot(t, slot.inst, slot.handler);
  }
  uint32_t word = 0;
  const Tick fetch = mem_.Fetch(id_, pc, &word);
  // Warm fetches are pipelined away; only the miss penalty stalls issue.
  const Tick fetch_penalty = fetch > l1i_hit_latency_ ? fetch - l1i_hit_latency_ : 0;
  const Instruction inst = Decode(word);
  return fetch_penalty + DispatchSlot(t, inst, HandlerOf(inst.op));
}

// Core::DispatchSlot: the handler bodies (DESIGN.md §4j).
#include "src/cpu/dispatch.inc"  // NOLINT(build/include)

Tick Core::StepNative(HwThread& t, NativeState& ns) {
  GuestContext& ctx = ns.ctx;
  GuestOp& pending = ctx.pending();
  // Most native steps tick a pending Compute op, so that case is tested
  // first: while an op is pending the task is suspended on it and cannot be
  // done, so the coroutine frame need not be read.
  if (pending.kind != GuestOp::Kind::kCompute || ctx.faulted()) {
    if (!ns.task.valid() || ns.task.done() || ctx.faulted()) {
      ns.Reset();
      ns.task = ns.program(ctx);
    }
    if (!ctx.has_pending()) {
      ctx.ResumeLeaf(ns.task.handle());
      if (ns.task.done()) {
        ts_.Disable(t.ptid());
        return 1;
      }
      if (!ctx.has_pending()) {
        return 1;  // treat a bare suspension as a one-cycle yield
      }
    }
    if (pending.kind != GuestOp::Kind::kCompute) {
      const GuestOp op = ctx.TakePending();
      return ExecuteNativeOp(t, ctx, op);
    }
  }
  // Compute ops issue one cycle per pick: the thread competes for SMT slots
  // cycle by cycle (fine-grain multiplexing, §4), instead of reserving the
  // whole duration up front.
  if (pending.cycles > 1) {
    pending.cycles--;
  } else {
    ctx.Complete(0);
  }
  return 1;
}

Tick Core::ExecuteNativeOp(HwThread& t, GuestContext& ctx, const GuestOp& op) {
  const Ptid self = t.ptid();
  // Memory protection (page-fault analog, §3) applies to native code too.
  if ((op.kind == GuestOp::Kind::kLoad || op.kind == GuestOp::Kind::kStore ||
       op.kind == GuestOp::Kind::kAtomicAdd || op.kind == GuestOp::Kind::kAtomicCas) &&
      !t.arch().is_supervisor() && mem_.IsSupervisorOnly(op.addr)) {
    ctx.set_faulted(true);
    ts_.RaiseException(self, ExceptionType::kPageFault, op.addr, 0);
    return 1;
  }
  auto fail_or = [&ctx](const OpResult& r) {
    if (!r.ok) {
      ctx.set_faulted(true);
    } else {
      ctx.DeliverResult(r.value);
    }
    return r.latency;
  };
  switch (op.kind) {
    case GuestOp::Kind::kCompute:
      ctx.DeliverResult(0);
      return std::max<Tick>(1, op.cycles);
    case GuestOp::Kind::kLoad: {
      if (chb_ != nullptr) {
        chb_->OnLoad(self, op.addr, op.size, /*pc=*/0);
      }
      uint64_t value = 0;
      const Tick lat = mem_.Read(id_, op.addr, op.size, &value);
      ctx.DeliverResult(value);
      return lat;
    }
    case GuestOp::Kind::kStore: {
      if (chb_ != nullptr) {
        chb_->OnStore(self, op.addr, op.size, /*pc=*/0);
      }
      const Tick lat = mem_.Write(id_, op.addr, op.size, op.value);
      ctx.DeliverResult(0);
      return lat;
    }
    case GuestOp::Kind::kAtomicAdd: {
      if (chb_ != nullptr) {
        chb_->OnAtomic(self, op.addr, 8, /*pc=*/0);
      }
      uint64_t old = 0;
      const Tick lat = mem_.AtomicAdd(id_, op.addr, op.value, &old);
      ctx.DeliverResult(old);
      return lat;
    }
    case GuestOp::Kind::kAtomicCas: {
      if (chb_ != nullptr) {
        chb_->OnAtomic(self, op.addr, 8, /*pc=*/0);
      }
      uint64_t old = 0;
      const Tick lat = mem_.AtomicCas(id_, op.addr, op.value, op.value2, &old);
      ctx.DeliverResult(old);
      return lat;
    }
    case GuestOp::Kind::kMonitor:
      return fail_or(ts_.Monitor(self, op.addr));
    case GuestOp::Kind::kUnmonitor:
      return fail_or(ts_.Unmonitor(self, op.addr));
    case GuestOp::Kind::kMwait: {
      const auto r = ts_.Mwait(self);
      ctx.DeliverResult(0);
      return r.latency;
    }
    case GuestOp::Kind::kStart:
      return fail_or(ts_.Start(self, op.vtid));
    case GuestOp::Kind::kStop:
      return fail_or(ts_.Stop(self, op.vtid));
    case GuestOp::Kind::kStopSelf:
      ctx.DeliverResult(0);
      ts_.Disable(self);
      return ts_.config().stop_issue_cycles;
    case GuestOp::Kind::kRpull:
      return fail_or(ts_.Rpull(self, op.vtid, op.reg));
    case GuestOp::Kind::kRpush:
      return fail_or(ts_.Rpush(self, op.vtid, op.reg, op.value));
    case GuestOp::Kind::kInvtid:
      return fail_or(ts_.Invtid(self, op.vtid, op.vtid2));
    case GuestOp::Kind::kCsrRead:
      return fail_or(ts_.ReadCsr(self, op.csr));
    case GuestOp::Kind::kCsrWrite:
      return fail_or(ts_.WriteCsr(self, op.csr, op.value));
    case GuestOp::Kind::kNone:
      break;
  }
  ctx.DeliverResult(0);
  return 1;
}

}  // namespace casc
