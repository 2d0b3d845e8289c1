// Machine: the top-level simulated computer — simulation context, memory
// system, thread system, and cores — plus convenience helpers for loading
// programs, binding native coroutines, and driving the simulation.
#ifndef SRC_CPU_MACHINE_H_
#define SRC_CPU_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/core.h"
#include "src/hwt/thread_system.h"
#include "src/isa/assembler.h"
#include "src/mem/memory_system.h"
#include "src/sim/shard_engine.h"
#include "src/sim/simulation.h"

namespace casc {

struct MachineConfig {
  double ghz = 3.0;
  uint64_t seed = 1;
  uint32_t num_cores = 1;
  // Event engine (DESIGN.md §4i). 0 = legacy single-queue engine (the
  // default); 1 = sharded engine, one shard per core run in serial
  // conservative sync windows; kHostThreadsDefault = adopt the process-wide
  // default installed by SetDefaultHostThreads (how the tools'
  // --host-threads flag reaches every machine a tool builds). Any other
  // value aborts the constructor.
  static constexpr uint32_t kHostThreadsDefault = UINT32_MAX;
  uint32_t host_threads = kHostThreadsDefault;
  // Conservative sync window width: a lower bound on the latency of every
  // cross-shard interaction. Matches HwtConfig::remote_start_cycles (and the
  // 30-cycle exception-write delay) so windows never shift an effect's
  // arrival tick.
  Tick cross_shard_hop = 30;
  MemConfig mem;
  HwtConfig hwt;
  CoreTimings timings;
};

// Process-wide default for MachineConfig::host_threads, consulted when a
// machine is built with host_threads == kHostThreadsDefault. 0 (the initial
// value) selects the legacy engine.
void SetDefaultHostThreads(uint32_t n);
uint32_t GetDefaultHostThreads();

// Checks a --host-threads value from the command line: true for 0 (legacy
// engine) and 1 (sharded engine). Anything else prints a usage message to
// stderr and returns false; the tools then exit 2.
bool HostThreadsFlagOk(uint64_t n);

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig{});

  const MachineConfig& config() const { return config_; }
  Simulation& sim() { return sim_; }
  MemorySystem& mem() { return *mem_; }
  ThreadSystem& threads() { return *ts_; }
  Core& core(CoreId id) { return *cores_[id]; }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  // True when this machine executes on the sharded engine (host_threads == 1
  // resolved at construction). The engine accessor is for tests.
  bool sharded() const { return engine_ != nullptr; }
  ShardEngine* engine() { return engine_.get(); }

  // Loads an assembled program into memory and points a hardware thread at
  // `entry` (a program symbol, or the program base if empty). The thread
  // stays disabled until Start(). Load, LoadSource and BindNative abort
  // unless core < num_cores and local_thread < threads_per_core.
  Ptid Load(CoreId core, uint32_t local_thread, const Program& program, bool supervisor,
            const std::string& entry = "", Addr edp = 0);

  // Assembles `source` and loads it (aborts the test/bench on assembly
  // errors — convenience for inline assembly snippets).
  Ptid LoadSource(CoreId core, uint32_t local_thread, const std::string& source, bool supervisor,
                  const std::string& entry = "", Addr edp = 0, Addr base = 0x1000);

  // Binds a native coroutine program to a hardware thread.
  Ptid BindNative(CoreId core, uint32_t local_thread, NativeProgram program, bool supervisor,
                  Addr edp = 0);

  // Makes a thread runnable (host-side boot; models the platform firmware
  // starting the initial kernel thread).
  void Start(Ptid ptid);

  void SetHcallHandler(Core::HcallHandler handler);

  // Attaches/detaches a dynamic race detector to the thread system and every
  // core (casc-race's `--race-check`; nullptr restores the zero-cost default).
  void SetConcurrencyObserver(ConcurrencyObserver* observer);

  // Toggles the predecoded I-cache on every core (benchmarks/tests only).
  void SetPredecodeEnabled(bool enabled);

  // --- driving the simulation ---------------------------------------------
  void RunFor(Tick cycles) { RunUntil(sim_.now() + cycles); }
  // Advances simulated time to `tick` (all shards reach it together on a
  // sharded machine).
  void RunUntil(Tick tick);
  // Runs until the event queue drains or the machine halts. Returns false if
  // the event cap was hit (runaway guard).
  bool RunToQuiescence(uint64_t max_events = 200'000'000);
  // Fires every event up to and including `limit`, stopping early on a
  // machine halt, without advancing the clock past the last event actually
  // fired (so cycle reports stay meaningful). Returns true if the machine
  // fully quiesced — no live events remain anywhere.
  bool DrainBudget(Tick limit);

  // First-class halt reporting: the string form for logs (and the
  // differential oracle), the structured form for tests and the chaos
  // engine. A fault whose handler chain ends uninstalled halts with
  // kUnhandledException / kHandlerChainExhausted — never an assert.
  using HaltReason = ::casc::HaltReason;
  bool halted() const { return ts_->halted(); }
  const std::string& halt_reason() const { return ts_->halt_reason(); }
  HaltReason halt_why() const { return ts_->halt_info().reason; }
  const HaltInfo& halt_info() const { return ts_->halt_info(); }

 private:
  // The ptid of (core, local_thread), checked in every build: an index past
  // either bound would overrun the core and thread tables.
  Ptid CheckedPtid(const char* caller, CoreId core, uint32_t local_thread) const;

  MachineConfig config_;
  Simulation sim_;
  std::unique_ptr<ShardEngine> engine_;  // null on legacy machines
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<ThreadSystem> ts_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace casc

#endif  // SRC_CPU_MACHINE_H_
