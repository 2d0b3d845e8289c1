// A physical core: a small number of SMT slots multiplexing the runnable
// hardware threads selected by the per-core SchedQueue, per §4. Each slot
// executes either interpreted CASC-ISA instructions (fetched through the
// I-cache) or one pending native-coroutine operation per pick; both charge
// costs through the shared memory system and thread system.
//
// The interpreter dispatches predecoded per-slot handler ids through one
// switch (DESIGN.md §4j).
#ifndef SRC_CPU_CORE_H_
#define SRC_CPU_CORE_H_

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cpu/guest.h"
#include "src/hwt/thread_system.h"
#include "src/mem/memory_system.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace casc {

// Execution latencies of the simple in-order pipeline (beyond memory).
struct CoreTimings {
  Tick alu = 1;
  Tick mul = 3;
  Tick div = 20;
  Tick branch = 1;
};

// Dispatch handler ids: one per opcode (same numbering as Opcode so predecode
// can translate with a bounds check), then the illegal-opcode trap.
enum VmHandler : uint8_t {
  vmNop, vmHalt, vmAdd, vmSub, vmMul, vmDiv, vmAnd, vmOr, vmXor, vmSll, vmSrl, vmSra,
  vmSlt, vmSltu, vmAddi, vmAndi, vmOri, vmXori, vmSlli, vmSrli, vmSrai, vmSlti, vmLui,
  vmLd, vmLw, vmLh, vmLb, vmSd, vmSw, vmSh, vmSb,
  vmBeq, vmBne, vmBlt, vmBge, vmBltu, vmBgeu, vmJal, vmJalr,
  vmCsrrd, vmCsrwr, vmMonitor, vmMwait, vmStart, vmStop, vmRpull, vmRpush, vmInvtid,
  vmAmoadd, vmHcall, vmIllegal,
  vmHandlerCount,
};
static_assert(vmNop == static_cast<uint8_t>(Opcode::kNop) &&
                  vmHcall == static_cast<uint8_t>(Opcode::kHcall) &&
                  vmIllegal == static_cast<uint8_t>(Opcode::kCount),
              "handler ids must mirror Opcode numbering");

class Core {
 public:
  // Handler for the `hcall` host-escape instruction / test instrumentation.
  using HcallHandler = std::function<void(Core& core, HwThread& thread, int64_t code)>;

  Core(Simulation& sim, MemorySystem& mem, ThreadSystem& ts, CoreId id,
       CoreTimings timings = CoreTimings{});

  CoreId id() const { return id_; }

  // Binds a native coroutine program to a local hardware thread. The
  // coroutine is (re)instantiated when the thread is started with no live
  // instance.
  void BindNative(Ptid ptid, NativeProgram program);

  void SetHcallHandler(HcallHandler handler) { hcall_ = std::move(handler); }

  // Attaches the dynamic race detector's access hooks (not owned; nullptr —
  // the default — keeps the data path free of observer calls beyond one
  // predictable branch).
  void SetConcurrencyObserver(ConcurrencyObserver* observer) { chb_ = observer; }

  // Arms the tick event if there is runnable work. Called at boot and by the
  // ThreadSystem wake hook.
  void Kick();

  uint64_t instructions_retired() const { return stat_instructions_.get(); }

  // Enables/disables the predecoded I-cache (on by default). Turning it off
  // falls back to per-fetch Decode — used by benches/tests to isolate the
  // predecode contribution and to cross-check trace equivalence.
  void set_predecode_enabled(bool enabled) { predecode_enabled_ = enabled; }
  bool predecode_enabled() const { return predecode_enabled_; }

  // Drops every predecoded line. Needed after writes that bypass the memory
  // system, e.g. Program::LoadInto at Machine::Load time.
  void InvalidatePredecodeAll();

  uint64_t predecode_hits() const { return stat_predecode_hits_; }
  uint64_t predecode_misses() const { return stat_predecode_misses_; }
  // Always 0: superinstruction fusion was removed (DESIGN.md §4j). Kept only
  // because perfbench/workloads.cc still reads it for cpu.fused_pair_rate;
  // goes with that metric on the next benchmark change.
  uint64_t fused_pairs_total() const { return 0; }

 private:
  struct NativeState {
    NativeProgram program;
    GuestTask task;
    std::unique_ptr<GuestContext> ctx;
  };

  // The per-cycle tick fires every simulated tick the core is active; a
  // devirtualizable member call avoids std::function dispatch on that path.
  struct TickEvent final : public Event {
    explicit TickEvent(Core* c) : core(c) {}
    void Fire() override { core->Cycle(); }
    Core* core;
  };

  // Predecoded I-cache (host-side speedup, no timing effect): each line of
  // instruction memory is decoded once on first fetch and replayed as
  // handler-id-tagged slots until a write to the line invalidates it. Timed
  // fetches still run through the simulated cache hierarchy.
  static constexpr size_t kPredecodeLines = 512;  // direct-mapped, 32 KB of code
  static constexpr Addr kNoCodeLine = ~Addr{0};   // not line-aligned: matches nothing
  struct DecodedSlot {
    Instruction inst;
    uint8_t handler = vmNop;  // dispatch id
  };
  struct PredecodedLine {
    Addr base = kNoCodeLine;
    Cache::LineRef fetch_ref;  // L1I hit memo for addresses in this line
    std::array<DecodedSlot, kLineSize / kInstBytes> slots;
  };
  void Cycle();
  void FillPredecodeLine(PredecodedLine& line, Addr base);
  void InvalidatePredecodeLine(Addr line) {
    // Unconditional: clearing an aliased entry only costs a future refill.
    predecode_[(line >> 6) & (kPredecodeLines - 1)].base = kNoCodeLine;
  }
  // Executes one step for `t`; returns the latency consumed.
  Tick Step(HwThread& t);
  Tick StepInterpreted(HwThread& t);
  Tick StepNative(HwThread& t, NativeState& ns);
  Tick ExecuteNativeOp(HwThread& t, GuestContext& ctx, const GuestOp& op);
  // Instruction semantics, dispatched by handler id; returns execute latency
  // (fetch handled by caller). Defined in src/cpu/dispatch.inc.
  Tick DispatchSlot(HwThread& t, const Instruction& inst, uint8_t handler);
  static uint8_t HandlerOf(Opcode op) {
    const uint8_t raw = static_cast<uint8_t>(op);
    return raw < static_cast<uint8_t>(Opcode::kCount) ? raw : static_cast<uint8_t>(vmIllegal);
  }

  Simulation& sim_;
  MemorySystem& mem_;
  ThreadSystem& ts_;
  CoreId id_;
  CoreTimings timings_;
  Tick l1i_hit_latency_;  // hoisted from mem config: read once per instruction
  // This core's event queue, bound once at construction: the shard queue for
  // core `id` on a sharded machine, the one legacy queue otherwise. The hot
  // Cycle/Step paths must not re-resolve the shard table per tick.
  EventQueue* eq_;
  TickEvent tick_event_;
  std::vector<HwThread*> picked_;  // PickUpTo scratch, sized smt_width at construction
  std::unordered_map<Ptid, NativeState> native_;
  bool has_native_ = false;  // skips the native_ lookup on all-interpreted cores
  HcallHandler hcall_;
  ConcurrencyObserver* chb_ = nullptr;
  bool predecode_enabled_ = true;
  std::array<PredecodedLine, kPredecodeLines> predecode_;
  uint64_t stat_predecode_hits_ = 0;
  uint64_t stat_predecode_misses_ = 0;
  StatsRegistry::CounterHandle stat_instructions_;
  StatsRegistry::CounterHandle stat_active_cycles_;
  StatsRegistry::CounterHandle stat_idle_wakeups_;
};

}  // namespace casc

#endif  // SRC_CPU_CORE_H_
